"""Gather and scatter algorithms: linear (root exchanges with every rank)
and binomial tree (blocks aggregated/partitioned along subtrees).

Both collectives are schedules over ``"send"`` and ``"recv"``: for gather,
``"send"`` is this rank's block and ``"recv"`` the root's ``p`` blocks; for
scatter, ``"send"`` is the root's ``p`` blocks and ``"recv"`` this rank's
block.  The binomial trees move packed subtree buffers; a root other than
rank 0 rotates them from virtual-rank into rank order with local copies.
"""

from __future__ import annotations

from repro.mpi.algorithms.base import KIND_GATHER, KIND_SCATTER, RECV, SEND, coll_tag
from repro.mpi.algorithms.registry import register
from repro.mpi.algorithms.schedule import CopyStep, RecvStep, Schedule, SendStep


def _subtree_span(vrank: int, p: int) -> int:
    """Number of virtual ranks in the binomial subtree rooted at ``vrank``:
    ``[vrank, vrank + span)``, bounded by the lowest set bit of ``vrank``
    (the whole communicator for the root)."""
    mask = 1
    while mask < p and not vrank & mask:
        mask <<= 1
    return min(mask, p - vrank)


@register("gather", "linear")
def build_gather_linear(rank: int, size: int, count: int, esize: int,
                        root: int, seq: int) -> Schedule:
    """Linear gather: every non-root rank sends its block to the root."""
    sched = Schedule()
    b = count * esize
    tag = coll_tag(KIND_GATHER, seq)
    if rank == root:
        sched.round([CopyStep(SEND, 0, RECV, root * b, b)] + [
            RecvStep(src, tag, RECV, src * b, b) for src in range(size) if src != root
        ])
    else:
        sched.round([SendStep(root, tag, SEND, 0, b)])
    return sched


@register("gather", "binomial")
def build_gather_binomial(rank: int, size: int, count: int, esize: int,
                          root: int, seq: int) -> Schedule:
    """Binomial-tree gather: subtree blocks are aggregated on the way up.

    The subtree hanging off virtual rank ``v`` at bit position ``m`` covers
    the contiguous virtual-rank range ``[v, min(v + m, p))``, so every
    internal node forwards one packed message per child instead of the root
    receiving ``p - 1`` individual blocks.  Each rank packs its subtree in
    virtual-rank order and children's blocks are received straight into
    place; a root other than rank 0 rotates the packed blocks into rank
    order at the end.
    """
    sched = Schedule()
    p = size
    b = count * esize
    tag = coll_tag(KIND_GATHER, seq)
    vrank = (rank - root) % p
    span = _subtree_span(vrank, p)
    packed = RECV if vrank == 0 and root == 0 else sched.temp("packed", span * b)
    sched.round([CopyStep(SEND, 0, packed, 0, b)])
    mask = 1
    while mask < p:
        if vrank & mask:
            sched.round([SendStep(((vrank - mask) + root) % p, tag, packed, 0, span * b)])
            break
        vchild = vrank | mask
        if vchild < p:
            child_span = min(mask, p - vchild)
            sched.round([RecvStep((vchild + root) % p, tag, packed, mask * b, child_span * b)])
        mask <<= 1
    if vrank == 0 and root != 0:
        # Virtual rank v is rank (v + root) % p: rotate into rank order.
        head = (p - root) * b
        sched.round([CopyStep(packed, 0, RECV, root * b, head),
                     CopyStep(packed, head, RECV, 0, root * b)])
    return sched


@register("scatter", "linear")
def build_scatter_linear(rank: int, size: int, count: int, esize: int,
                         root: int, seq: int) -> Schedule:
    """Linear scatter: the root sends one block to every other rank."""
    sched = Schedule()
    b = count * esize
    tag = coll_tag(KIND_SCATTER, seq)
    if rank == root:
        sched.round([CopyStep(SEND, root * b, RECV, 0, b)] + [
            SendStep(dst, tag, SEND, dst * b, b) for dst in range(size) if dst != root
        ])
    else:
        sched.round([RecvStep(root, tag, RECV, 0, b)])
    return sched


@register("scatter", "binomial")
def build_scatter_binomial(rank: int, size: int, count: int, esize: int,
                           root: int, seq: int) -> Schedule:
    """Binomial-tree scatter: the mirror of the binomial gather.

    Each rank receives the packed blocks of its whole subtree (in
    virtual-rank order) from its parent and forwards the ranges belonging to
    its children, so the root injects ``log2(p)`` messages instead of
    ``p - 1``.
    """
    sched = Schedule()
    p = size
    b = count * esize
    tag = coll_tag(KIND_SCATTER, seq)
    vrank = (rank - root) % p
    span = _subtree_span(vrank, p)
    packed = SEND if vrank == 0 and root == 0 else sched.temp("packed", span * b)
    if vrank == 0 and root != 0:
        # Rotate into virtual-rank order: virtual v is rank (v + root) % p.
        head = (p - root) * b
        sched.round([CopyStep(SEND, root * b, packed, 0, head),
                     CopyStep(SEND, 0, packed, head, root * b)])
    # Phase 1: receive this rank's subtree from the binomial parent.
    mask = 1
    while mask < p:
        if vrank & mask:
            sched.round([RecvStep(((vrank - mask) + root) % p, tag, packed, 0, span * b)])
            break
        mask <<= 1
    # Phase 2: forward each child its sub-range.
    mask >>= 1
    while mask > 0:
        vchild = vrank + mask
        if vchild < p:
            child_span = min(mask, p - vchild)
            sched.round([SendStep((vchild + root) % p, tag, packed, mask * b, child_span * b)])
        mask >>= 1
    sched.round([CopyStep(packed, 0, RECV, 0, b)])
    return sched
