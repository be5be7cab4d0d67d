"""Reduce algorithms: binomial tree and Rabenseifner (reduce-scatter + gather).

Signature shared by every reduce algorithm::

    fn(cc, sendbuf, recvbuf, count, datatype, op, root, seq) -> None

``recvbuf`` is a writable byte buffer on the root and ``None`` elsewhere.
The binomial tree is expressed as a schedule over the accumulator buffer
``"acc"`` (see :mod:`repro.mpi.algorithms.schedule`), shared with the
non-blocking path; Rabenseifner stays a direct implementation.
"""

from __future__ import annotations

from typing import Optional

from repro.mpi.algorithms.base import (
    KIND_REDUCE,
    Buffer,
    CollectiveContext,
    chunk_counts,
    chunk_offsets,
    coll_tag,
    combine,
    combine_segment,
    fold_absolute_rank,
    largest_power_of_two_leq,
)
from repro.mpi.algorithms.registry import register
from repro.mpi.algorithms.schedule import (
    CopyStep,
    RecvStep,
    ReduceStep,
    Schedule,
    SendStep,
    execute,
    register_builder,
)
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import BytesLike, Op

# Tag offset separating the gather phase from the reduce-scatter rounds
# (rounds use offsets 1..log2(p), far below 64).
_GATHER_TAG_OFFSET = 64

#: Buffer names the reduce schedules use.
ACC = "acc"
RECV = "recv"


@register_builder("reduce", "binomial")
def build_reduce_binomial(rank: int, size: int, count: int, esize: int,
                          root: int, seq: int) -> Schedule:
    """Binomial-tree reduction of ``count`` elements to ``root``.

    The root's schedule ends with a copy of the accumulator into ``"recv"``.
    """
    sched = Schedule()
    p = size
    nbytes = count * esize
    if p > 1:
        tag = coll_tag(KIND_REDUCE, seq)
        vrank = (rank - root) % p
        tmp = sched.temp("tmp", nbytes)
        mask = 1
        while mask < p:
            if vrank & mask:
                parent = ((vrank & ~mask) + root) % p
                sched.round([SendStep(parent, tag, ACC, 0, nbytes)])
                break
            vchild = vrank | mask
            if vchild < p:
                child = (vchild + root) % p
                sched.round([
                    RecvStep(child, tag, tmp, 0, nbytes),
                    ReduceStep(tmp, 0, ACC, 0, count),
                ])
            mask <<= 1
    if rank == root:
        sched.round([CopyStep(ACC, 0, RECV, 0, nbytes)])
    return sched


@register("reduce", "binomial")
def reduce_binomial(
    cc: CollectiveContext,
    sendbuf: BytesLike,
    recvbuf: Optional[Buffer],
    count: int,
    datatype: Datatype,
    op: Op,
    root: int,
    seq: int,
) -> None:
    """Blocking binomial-tree reduction (executes the schedule in place)."""
    nbytes = count * datatype.size
    sched = build_reduce_binomial(cc.rank, cc.size, count, datatype.size, root, seq)
    buffers = {ACC: bytearray(memoryview(sendbuf)[:nbytes])}
    if cc.rank == root:
        # Only the root's schedule references RECV (the final copy step).
        buffers[RECV] = recvbuf if recvbuf is not None else bytearray(nbytes)
    execute(cc, sched, buffers, datatype, op)


def _fold_to_power_of_two(
    cc: CollectiveContext,
    acc: bytearray,
    tmp: memoryview,
    count: int,
    datatype: Datatype,
    op: Op,
    tag: int,
    rem: int,
) -> int:
    """Pre-phase of the halving/doubling algorithms for non-power-of-two sizes.

    The first ``2 * rem`` ranks pair up: each even rank sends its vector to
    its odd neighbour (which receives it into ``tmp`` and combines it) and
    drops out of the core phase.  Returns the rank's virtual id within the
    power-of-two group, or ``-1`` for folded-out ranks.
    """
    rank = cc.rank
    nbytes = count * datatype.size
    if rank < 2 * rem:
        if rank % 2 == 0:
            cc.send(rank + 1, tag, memoryview(acc))
            return -1
        cc.recv(rank - 1, tag, tmp[:nbytes])
        combine(cc, op, acc, tmp, datatype, count)
        return rank // 2
    return rank - rem


def _reduce_scatter_halving(
    cc: CollectiveContext,
    acc: bytearray,
    tmp: memoryview,
    datatype: Datatype,
    op: Op,
    tag: int,
    vrank: int,
    pof2: int,
    rem: int,
    cnts,
    offs,
):
    """Recursive-halving reduce-scatter over the power-of-two group.

    Each participant starts with a full combined vector and ends owning the
    fully reduced chunk ``vrank`` (chunk boundaries from ``cnts``/``offs``);
    partner halves are received into ``tmp``.
    """
    esize = datatype.size
    lo, hi = 0, pof2
    mask = pof2 // 2
    round_no = 1
    while mask > 0:
        partner = fold_absolute_rank(vrank ^ mask, rem)
        mid = lo + (hi - lo) // 2
        if vrank < mid:
            keep_lo, keep_hi, send_lo, send_hi = lo, mid, mid, hi
        else:
            keep_lo, keep_hi, send_lo, send_hi = mid, hi, lo, mid
        send_end = (offs[send_hi - 1] + cnts[send_hi - 1]) * esize
        cc.send(partner, tag + round_no, memoryview(acc)[offs[send_lo] * esize : send_end])
        keep_elems = offs[keep_hi - 1] + cnts[keep_hi - 1] - offs[keep_lo]
        cc.recv(partner, tag + round_no, tmp[: keep_elems * esize])
        combine_segment(cc, op, acc, tmp, datatype, offs[keep_lo], keep_elems)
        lo, hi = keep_lo, keep_hi
        mask //= 2
        round_no += 1


@register("reduce", "rabenseifner")
def reduce_rabenseifner(
    cc: CollectiveContext,
    sendbuf: BytesLike,
    recvbuf: Optional[Buffer],
    count: int,
    datatype: Datatype,
    op: Op,
    root: int,
    seq: int,
) -> None:
    """Rabenseifner reduction: recursive-halving reduce-scatter, then a gather
    of the reduced chunks to the root.

    Halves the bandwidth term of the binomial tree for large vectors
    (~``2 * nbytes`` moved per rank instead of ``nbytes * log2(p)``).
    Non-power-of-two sizes fold the ``p - 2^k`` extra ranks into their
    neighbours in a pre-phase, exactly like MPICH's implementation; all
    predefined MPI ops are commutative, which the fold relies on.
    """
    p = cc.size
    esize = datatype.size
    nbytes = count * esize
    acc = bytearray(memoryview(sendbuf)[:nbytes])
    if p <= 1:
        if cc.rank == root and recvbuf is not None:
            recvbuf[:nbytes] = acc
        return

    tag = coll_tag(KIND_REDUCE, seq)
    pof2 = largest_power_of_two_leq(p)
    rem = p - pof2
    tmp = memoryview(bytearray(nbytes))
    vrank = _fold_to_power_of_two(cc, acc, tmp, count, datatype, op, tag, rem)

    cnts = chunk_counts(count, pof2)
    offs = chunk_offsets(cnts)
    if vrank != -1:
        _reduce_scatter_halving(cc, acc, tmp, datatype, op, tag, vrank, pof2, rem, cnts, offs)

    # Gather phase: every chunk owner ships its reduced chunk to the root.
    gather_tag = tag + _GATHER_TAG_OFFSET
    if cc.rank == root:
        # Drain every chunk even when the caller passed no receive buffer, so
        # no message is left behind in the matching engine.
        out = memoryview(recvbuf if recvbuf is not None else tmp)
        for v in range(pof2):
            if cnts[v] == 0:
                continue
            seg_lo = offs[v] * esize
            seg_hi = seg_lo + cnts[v] * esize
            owner = fold_absolute_rank(v, rem)
            if owner == root:
                out[seg_lo:seg_hi] = memoryview(acc)[seg_lo:seg_hi]
            else:
                cc.recv(owner, gather_tag + v, out[seg_lo:seg_hi])
    elif vrank != -1 and cnts[vrank] > 0:
        seg_lo = offs[vrank] * esize
        seg_hi = seg_lo + cnts[vrank] * esize
        cc.send(root, gather_tag + vrank, memoryview(acc)[seg_lo:seg_hi])
