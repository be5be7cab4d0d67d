"""Shared primitives of the collective-algorithm subsystem.

Every algorithm is a schedule builder; its schedules execute against
:class:`CollectiveContext` -- the small bundle of callables the per-rank
runtime exposes -- so payloads stay bit-identical regardless of algorithm
and all virtual-time costs fall out of the transport model underneath
``send``/``recv``.

Tag discipline: collectives own the tag space above :data:`COLL_TAG_BASE`.
A tag is derived from the collective *kind* and the per-communicator
operation sequence number; algorithms add small round offsets on top.  MPI
requires every rank to call collectives in the same order, so the sequence
numbers (and hence the tags) agree across ranks without negotiation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Union

from repro.mpi.datatypes import Datatype
from repro.mpi.ops import BytesLike, Op

#: A writable collective buffer: a temporary ``bytearray`` or a flat byte
#: view of the caller's memory.
Buffer = Union[bytearray, memoryview]

# Tag space reserved for collectives (user tags are non-negative and small).
COLL_TAG_BASE = 1 << 24
COLL_TAG_MOD = 1 << 20

# Kind identifiers (kept distinct so different collectives never cross-match).
KIND_BARRIER = 0
KIND_BCAST = 1
KIND_REDUCE = 2
KIND_GATHER = 3
KIND_SCATTER = 4
KIND_ALLGATHER = 5
KIND_ALLTOALL = 6
KIND_ALLREDUCE = 7


def coll_tag(kind: int, seq: int) -> int:
    """Tag for the ``seq``-th collective of a given kind on a communicator."""
    return COLL_TAG_BASE + kind * COLL_TAG_MOD + (seq % COLL_TAG_MOD)


#: Names of the caller-bound buffers the schedules run over (see
#: :mod:`repro.mpi.collectives` for which collective binds which).
ACC = "acc"    # reduction accumulator: this rank's contribution, then the result
DATA = "data"  # bcast payload: input on the root, output everywhere else
SEND = "send"  # this rank's outgoing block(s)
RECV = "recv"  # this rank's incoming block(s) / the reduce root's result


class CollectiveContext:
    """Bundle of callables a schedule executes against on one rank.

    ``send(dst_local, tag, data)`` and ``recv(src_local, tag, into)`` operate
    on *communicator-local* ranks; the runtime translates to world ranks and
    forwards to the matching engine.  ``compute(seconds)`` charges local
    computation time (used for the combine step of reductions).

    Copy rules -- each payload byte crosses each hop once:

    * ``send`` takes a flat byte view (a ``memoryview`` slice of the
      schedule's buffer) and posts without blocking; the matching engine
      snapshots it at post, so the buffer may be overwritten right away and a
      fan of sends may be posted before draining receives.
    * ``recv`` receives *into* a caller-supplied writable byte view: ``len``
      of the view is the expected size (larger messages raise
      :class:`~repro.mpi.errors.TruncationError`), and the payload lands
      there directly with no intermediate buffer.  An empty view receives a
      zero-byte token.

    The incremental executor behind the non-blocking collectives also needs:

    * ``recv_nb(src_local, tag, into) -> Optional[float]`` -- consume a
      buffered match into ``into`` (same contract as ``recv``) charging only
      CPU overhead, and return the virtual time the payload actually
      finishes arriving (``None`` when nothing is buffered).  Separating
      consumption from the arrival time is what lets transfers overlap caller
      compute;
    * ``now() -> float`` / ``advance_to(t)`` -- the rank's virtual clock,
      used to enforce data dependencies (a step that reads received data
      cannot execute before that data has arrived).

    ``world_rank`` is the COMM_WORLD rank, the per-rank lane trace events and
    fault hooks are attributed to.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        send: Callable[[int, int, BytesLike], None],
        recv: Callable[[int, int, memoryview], None],
        compute: Callable[[float], None],
        recv_nb: Callable[[int, int, memoryview], Optional[float]],
        now: Callable[[], float],
        advance_to: Callable[[float], None],
        world_rank: int,
        reduce_compute_per_byte: float = 0.04e-9,
    ):
        self.rank = rank
        self.size = size
        self.send = send
        self.recv = recv
        self.compute = compute
        self.recv_nb = recv_nb
        self.now = now
        self.advance_to = advance_to
        self.world_rank = world_rank
        self.reduce_compute_per_byte = reduce_compute_per_byte


def combine_segment(cc: CollectiveContext, op: Op, acc: Buffer, contribution: BytesLike,
                    datatype: Datatype, elem_offset: int, elem_count: int) -> None:
    """Reduce ``contribution`` in place into the element range of ``acc``
    starting at ``elem_offset``; charges combine time for the segment only."""
    if elem_count <= 0:
        return
    esize = datatype.size
    lo = elem_offset * esize
    hi = lo + elem_count * esize
    op.reduce_bytes(memoryview(acc)[lo:hi], contribution, datatype, elem_count)
    cc.compute(elem_count * esize * cc.reduce_compute_per_byte)


def chunk_counts(count: int, parts: int) -> List[int]:
    """Split ``count`` elements into ``parts`` near-equal chunks (MPICH style:
    the remainder is spread over the first chunks)."""
    base, extra = divmod(count, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def chunk_offsets(counts: List[int]) -> List[int]:
    """Exclusive prefix sums of ``counts`` (element offsets of each chunk)."""
    offsets = [0] * len(counts)
    for i in range(1, len(counts)):
        offsets[i] = offsets[i - 1] + counts[i - 1]
    return offsets


def largest_power_of_two_leq(p: int) -> int:
    """Largest power of two <= ``p`` (``p`` >= 1)."""
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    return pof2


def fold_absolute_rank(vrank: int, rem: int) -> int:
    """Inverse of the non-power-of-two fold mapping: virtual id -> absolute
    communicator rank (shared by the halving/doubling reduce and allreduce
    algorithms, whose pre-phases fold the ``rem`` extra ranks into odd
    neighbours)."""
    return 2 * vrank + 1 if vrank < rem else vrank + rem
