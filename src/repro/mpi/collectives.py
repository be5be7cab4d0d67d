"""Call surface between the per-rank runtime and the collective algorithms.

The algorithms live in :mod:`repro.mpi.algorithms` -- a registry of
interchangeable schedule builders per collective (at least two each,
mirroring Open MPI's ``tuned`` module) plus a size-based decision layer.
For each collective this module has one function that builds the schedule
of the algorithm the runtime selected and binds it to the call's buffers.
The runtime then either executes the bound schedule to completion (the
blocking ``MPI_Allreduce``) or starts it as a request its progress engine
advances (``MPI_Iallreduce``): one schedule serves both.

Buffers are raw bytes; the reductions get their element interpretation from
the datatype and op the runtime passes at execution.  Successive collectives
on the same communicator are disambiguated with a per-communicator operation
sequence number folded into the message tag; MPI requires all ranks to call
collectives in the same order, so the sequence numbers agree.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.mpi.algorithms import registry
from repro.mpi.algorithms.base import ACC, DATA, RECV, SEND, Buffer
from repro.mpi.algorithms.schedule import Schedule
from repro.mpi.ops import BytesLike

#: A schedule plus the named buffers it runs over.
Bound = Tuple[Schedule, Dict[str, Buffer]]


def _bind(collective: str, algorithm: str, rank: int, size: int, count: int,
          esize: int, root: int, seq: int, buffers: Dict[str, Optional[Buffer]]) -> Bound:
    """Build one rank's schedule through the registered builder and bind the
    buffers this rank supplies (``None`` marks a root-only buffer elsewhere)."""
    schedule = registry.get(collective, algorithm)(rank, size, count, esize, root, seq)
    return schedule, {name: buf for name, buf in buffers.items() if buf is not None}


def barrier(algorithm: str, rank: int, size: int, seq: int) -> Bound:
    """A barrier: token exchanges over no buffers."""
    return _bind("barrier", algorithm, rank, size, 0, 0, 0, seq, {})


def bcast(algorithm: str, rank: int, size: int, data: Buffer, count: int, esize: int,
          root: int, seq: int) -> Bound:
    """A broadcast in place over ``data``: the payload on the root, the
    receive target everywhere else."""
    return _bind("bcast", algorithm, rank, size, count, esize, root, seq, {DATA: data})


def reduce(algorithm: str, rank: int, size: int, sendbuf: BytesLike,
           recvbuf: Optional[Buffer], count: int, esize: int, root: int, seq: int) -> Bound:
    """A reduction to ``root``: the accumulator starts as a copy of this
    rank's contribution, and ``recvbuf`` (the root's only) gets the result."""
    return _bind("reduce", algorithm, rank, size, count, esize, root, seq,
                 {ACC: bytearray(sendbuf), RECV: recvbuf})


def allreduce(algorithm: str, rank: int, size: int, sendbuf: BytesLike, recvbuf: Buffer,
              count: int, esize: int, seq: int) -> Bound:
    """An allreduce with ``recvbuf`` as the accumulator: it is loaded with
    this rank's contribution and holds the result at completion."""
    recvbuf[:] = sendbuf
    return _bind("allreduce", algorithm, rank, size, count, esize, 0, seq, {ACC: recvbuf})


def gather(algorithm: str, rank: int, size: int, sendbuf: BytesLike,
           recvbuf: Optional[Buffer], count: int, esize: int, root: int, seq: int) -> Bound:
    """A gather of one block per rank into the root's ``recvbuf``."""
    return _bind("gather", algorithm, rank, size, count, esize, root, seq,
                 {SEND: sendbuf, RECV: recvbuf})


def scatter(algorithm: str, rank: int, size: int, sendbuf: Optional[BytesLike],
            recvbuf: Buffer, count: int, esize: int, root: int, seq: int) -> Bound:
    """A scatter of the root's ``sendbuf``, one block into each ``recvbuf``."""
    return _bind("scatter", algorithm, rank, size, count, esize, root, seq,
                 {SEND: sendbuf, RECV: recvbuf})


def allgather(algorithm: str, rank: int, size: int, sendbuf: BytesLike, recvbuf: Buffer,
              count: int, esize: int, seq: int) -> Bound:
    """An allgather of one block per rank into every ``recvbuf``."""
    return _bind("allgather", algorithm, rank, size, count, esize, 0, seq,
                 {SEND: sendbuf, RECV: recvbuf})


def alltoall(algorithm: str, rank: int, size: int, sendbuf: BytesLike, recvbuf: Buffer,
             count: int, esize: int, seq: int) -> Bound:
    """An alltoall of one block per peer, from ``sendbuf`` into ``recvbuf``."""
    return _bind("alltoall", algorithm, rank, size, count, esize, 0, seq,
                 {SEND: sendbuf, RECV: recvbuf})
