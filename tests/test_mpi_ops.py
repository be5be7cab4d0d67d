"""In-place ``Op.reduce_bytes`` against the ``Op.apply`` oracle.

``reduce_bytes`` is the reduction path every collective uses: it combines a
contribution into a caller's byte buffer (often a memoryview slice of a
larger buffer) in one NumPy pass.  ``apply`` is the plain, out-of-place
definition of each op.  The two must agree bit for bit on every predefined
op and datatype, including integer wraparound and the IEEE corner cases of
MAX/MIN (NaN, signed zeros).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.mpi import datatypes, ops

ALL_OPS = list(ops.PREDEFINED.values())
ALL_DATATYPES = list(datatypes.PREDEFINED.values())

#: Guard bytes around the accumulator slice, so the test also proves the
#: reduction writes exactly the slice it was given.
LEAD, TAIL = 5, 3
GUARD = 0xA5


def _specials(npdt: np.dtype) -> list:
    if npdt.kind == "f":
        info = np.finfo(npdt)
        return [0.0, -0.0, 1.0, -1.5, np.nan, np.inf, -np.inf,
                float(info.max), float(info.min), float(info.tiny), float(info.smallest_subnormal)]
    info = np.iinfo(npdt)
    values = [0, 1, 2, info.max, info.max - 1, info.max // 2 + 1, info.min]
    if info.min < 0:
        values += [-1, info.min + 1]
    return values


def _operands(datatype: datatypes.Datatype):
    """Every ordered pair of special values, then seeded random elements."""
    npdt = datatype.numpy()
    specials = _specials(npdt)
    pairs = list(itertools.product(specials, repeat=2))
    rng = np.random.default_rng(sum(datatype.name.encode()))
    if npdt.kind == "f":
        randoms = rng.standard_normal((64, 2)) * 1e3
    else:
        info = np.iinfo(npdt)
        randoms = rng.integers(info.min, info.max, size=(64, 2), dtype=npdt, endpoint=True)
    a = np.concatenate([np.array([p[0] for p in pairs], dtype=npdt), randoms[:, 0].astype(npdt)])
    b = np.concatenate([np.array([p[1] for p in pairs], dtype=npdt), randoms[:, 1].astype(npdt)])
    # Whole datatype elements (MPI_LONG_DOUBLE spans two float64 lanes).
    usable = (a.nbytes // datatype.size) * datatype.size
    return a.tobytes()[:usable], b.tobytes()[:usable]


@pytest.mark.parametrize("datatype", ALL_DATATYPES, ids=lambda d: d.name)
@pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.name)
def test_in_place_reduce_bytes_matches_apply_oracle(op, datatype):
    acc_bytes, contribution = _operands(datatype)
    nbytes = len(acc_bytes)
    count = nbytes // datatype.size
    npdt = datatype.numpy()
    backing = bytearray([GUARD] * LEAD) + bytearray(acc_bytes) + bytearray([GUARD] * TAIL)
    acc = memoryview(backing)[LEAD : LEAD + nbytes]

    with np.errstate(all="ignore"):
        try:
            expected = op.apply(np.frombuffer(acc_bytes, dtype=npdt).copy(),
                                np.frombuffer(contribution, dtype=npdt))
        except TypeError:
            # Bitwise ops on floating types: undefined in MPI, rejected by
            # both paths before anything is written.
            with pytest.raises(TypeError):
                op.reduce_bytes(acc, contribution, datatype, count)
            assert bytes(acc) == acc_bytes
            return
        op.reduce_bytes(acc, contribution, datatype, count)

    assert bytes(acc) == np.asarray(expected).astype(npdt, copy=False).tobytes()
    # In place: the result lives in the caller's buffer, and nothing outside
    # the slice moved.
    assert bytes(backing[LEAD : LEAD + nbytes]) == bytes(acc)
    assert backing[:LEAD] == bytearray([GUARD] * LEAD)
    assert backing[LEAD + nbytes :] == bytearray([GUARD] * TAIL)


def test_reduce_bytes_updates_a_bytearray_in_place():
    acc = bytearray(np.array([1, 2, 3, 4], dtype=np.int32).tobytes())
    before = id(acc)
    ops.SUM.reduce_bytes(acc, np.array([10, 20, 30, 40], dtype=np.int32).tobytes(),
                         datatypes.INT, 3)
    assert id(acc) == before
    # Only the first ``count`` elements are combined.
    assert np.frombuffer(acc, dtype=np.int32).tolist() == [11, 22, 33, 4]


def test_reduce_bytes_wraps_integers_and_orders_signed_zeros_like_numpy():
    acc = bytearray(np.array([np.iinfo(np.int8).max, -128], dtype=np.int8).tobytes())
    ops.SUM.reduce_bytes(acc, np.array([1, -1], dtype=np.int8).tobytes(), datatypes.CHAR, 2)
    assert np.frombuffer(acc, dtype=np.int8).tolist() == [-128, 127]

    acc = bytearray(np.array([np.nan, -0.0, 0.0], dtype=np.float64).tobytes())
    ops.MAX.reduce_bytes(acc, np.array([1.0, 0.0, -0.0], dtype=np.float64).tobytes(),
                         datatypes.DOUBLE, 3)
    out = np.frombuffer(acc, dtype=np.float64)
    assert np.isnan(out[0])
    assert out[1:].tobytes() == np.maximum([-0.0, 0.0], [0.0, -0.0]).tobytes()


@pytest.mark.parametrize("op, truth", [(ops.LAND, np.logical_and), (ops.LOR, np.logical_or),
                                       (ops.LXOR, np.logical_xor)], ids=lambda o: getattr(o, "name", ""))
@pytest.mark.parametrize("datatype", [datatypes.INT, datatypes.UNSIGNED_CHAR, datatypes.DOUBLE],
                         ids=lambda d: d.name)
def test_logical_ops_store_one_or_zero_in_the_buffer_dtype(op, truth, datatype):
    # MPI's definition: any nonzero element (NaN included) is true, and the
    # result is 1 or 0 of the operand type.
    npdt = datatype.numpy()
    a = np.array([0, 0, 2, 3] + ([np.nan, np.nan] if npdt.kind == "f" else [5, 0]), dtype=npdt)
    b = np.array([0, 7, 0, 9] + ([0, np.nan] if npdt.kind == "f" else [0, 1]), dtype=npdt)
    acc = bytearray(a.tobytes())
    op.reduce_bytes(acc, b.tobytes(), datatype, len(a))
    expected = np.array([int(truth(x != 0, y != 0)) for x, y in zip(a, b)], dtype=npdt)
    assert bytes(acc) == expected.tobytes()
