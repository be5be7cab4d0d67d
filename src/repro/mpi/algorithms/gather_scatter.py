"""Gather and scatter algorithms: linear (root exchanges with every rank)
and binomial tree (blocks aggregated/partitioned along subtrees).

Signatures::

    gather:  fn(cc, sendbuf, recvbuf, nbytes_per_rank, root, seq) -> None
    scatter: fn(cc, sendbuf, recvbuf, nbytes_per_rank, root, seq) -> None

For gather, ``recvbuf`` is a writable byte buffer of ``p`` blocks on the
root and ``None`` elsewhere; for scatter, ``sendbuf`` is ``p`` blocks on the
root and ``None`` elsewhere.  Blocks are received straight into their final
place and sent as memoryview slices (the context snapshots sends).
"""

from __future__ import annotations

from typing import Optional

from repro.mpi.algorithms.base import (
    KIND_GATHER,
    KIND_SCATTER,
    Buffer,
    CollectiveContext,
    coll_tag,
)
from repro.mpi.algorithms.registry import register
from repro.mpi.ops import BytesLike


def _subtree_span(vrank: int, p: int) -> int:
    """Number of virtual ranks in the binomial subtree rooted at ``vrank``:
    ``[vrank, vrank + span)``, bounded by the lowest set bit of ``vrank``
    (the whole communicator for the root)."""
    mask = 1
    while mask < p and not vrank & mask:
        mask <<= 1
    return min(mask, p - vrank)


@register("gather", "linear")
def gather_linear(
    cc: CollectiveContext,
    sendbuf: BytesLike,
    recvbuf: Optional[Buffer],
    nbytes_per_rank: int,
    root: int,
    seq: int,
) -> None:
    """Linear gather: every non-root rank sends its block to the root."""
    p = cc.size
    b = nbytes_per_rank
    tag = coll_tag(KIND_GATHER, seq)
    if cc.rank == root:
        if recvbuf is None:
            raise ValueError("root must supply a receive buffer to gather")
        out = memoryview(recvbuf)
        out[root * b : (root + 1) * b] = memoryview(sendbuf)[:b]
        for src in range(p):
            if src != root:
                cc.recv(src, tag, out[src * b : (src + 1) * b])
    else:
        cc.send(root, tag, memoryview(sendbuf)[:b])


@register("gather", "binomial")
def gather_binomial(
    cc: CollectiveContext,
    sendbuf: BytesLike,
    recvbuf: Optional[Buffer],
    nbytes_per_rank: int,
    root: int,
    seq: int,
) -> None:
    """Binomial-tree gather: subtree blocks are aggregated on the way up.

    The subtree hanging off virtual rank ``v`` at bit position ``m`` covers
    the contiguous virtual-rank range ``[v, min(v + m, p))``, so every
    internal node forwards one packed message per child instead of the root
    receiving ``p - 1`` individual blocks.  Each rank packs its subtree in
    virtual-rank order and children's blocks are received straight into
    place; a root other than rank 0 rotates the packed blocks into rank
    order at the end.
    """
    p = cc.size
    b = nbytes_per_rank
    tag = coll_tag(KIND_GATHER, seq)
    vrank = (cc.rank - root) % p
    span = _subtree_span(vrank, p)
    if vrank == 0 and recvbuf is None:
        raise ValueError("root must supply a receive buffer to gather")
    packed = memoryview(recvbuf if vrank == 0 and root == 0 else bytearray(span * b))
    packed[:b] = memoryview(sendbuf)[:b]
    mask = 1
    while mask < p:
        if vrank & mask:
            cc.send(((vrank - mask) + root) % p, tag, packed[: span * b])
            break
        vchild = vrank | mask
        if vchild < p:
            child_span = min(mask, p - vchild)
            cc.recv((vchild + root) % p, tag, packed[mask * b : (mask + child_span) * b])
        mask <<= 1
    if vrank == 0 and root != 0:
        # Virtual rank v is absolute rank (v + root) % p.
        out = memoryview(recvbuf)
        head = (p - root) * b
        out[root * b : p * b] = packed[:head]
        out[: root * b] = packed[head : p * b]


@register("scatter", "linear")
def scatter_linear(
    cc: CollectiveContext,
    sendbuf: Optional[BytesLike],
    recvbuf: Buffer,
    nbytes_per_rank: int,
    root: int,
    seq: int,
) -> None:
    """Linear scatter: the root sends one block to every other rank."""
    p = cc.size
    b = nbytes_per_rank
    tag = coll_tag(KIND_SCATTER, seq)
    if cc.rank == root:
        if sendbuf is None:
            raise ValueError("root must supply a send buffer to scatter")
        blocks = memoryview(sendbuf)
        recvbuf[:b] = blocks[root * b : (root + 1) * b]
        for dst in range(p):
            if dst != root:
                cc.send(dst, tag, blocks[dst * b : (dst + 1) * b])
    else:
        cc.recv(root, tag, memoryview(recvbuf)[:b])


@register("scatter", "binomial")
def scatter_binomial(
    cc: CollectiveContext,
    sendbuf: Optional[BytesLike],
    recvbuf: Buffer,
    nbytes_per_rank: int,
    root: int,
    seq: int,
) -> None:
    """Binomial-tree scatter: the mirror of the binomial gather.

    Each rank receives the packed blocks of its whole subtree (in
    virtual-rank order) from its parent and forwards the ranges belonging to
    its children, so the root injects ``log2(p)`` messages instead of
    ``p - 1``.
    """
    p = cc.size
    b = nbytes_per_rank
    tag = coll_tag(KIND_SCATTER, seq)
    vrank = (cc.rank - root) % p
    span = _subtree_span(vrank, p)

    if vrank == 0:
        if sendbuf is None:
            raise ValueError("root must supply a send buffer to scatter")
        blocks = memoryview(sendbuf)
        if root == 0:
            packed = blocks
        else:
            # Rotate into virtual-rank order: virtual v is absolute (v + root) % p.
            packed = memoryview(bytearray(p * b))
            head = (p - root) * b
            packed[:head] = blocks[root * b : p * b]
            packed[head : p * b] = blocks[: root * b]
    else:
        packed = memoryview(bytearray(span * b))
    # Phase 1: receive this rank's subtree from the binomial parent.
    mask = 1
    while mask < p:
        if vrank & mask:
            cc.recv(((vrank - mask) + root) % p, tag, packed[: span * b])
            break
        mask <<= 1
    # Phase 2: forward each child its sub-range.
    mask >>= 1
    while mask > 0:
        vchild = vrank + mask
        if vchild < p:
            child_span = min(mask, p - vchild)
            cc.send((vchild + root) % p, tag, packed[mask * b : (mask + child_span) * b])
        mask >>= 1
    recvbuf[:b] = packed[:b]
