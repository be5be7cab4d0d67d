"""Dispatcher for the MPI collectives.

The algorithm implementations live in :mod:`repro.mpi.algorithms` -- a
registry of interchangeable algorithms per collective (at least two each,
mirroring Open MPI's ``tuned`` module) plus a size-based decision layer.
This module is the thin call surface the per-rank runtime uses: each function
accepts an ``algorithm`` name and forwards to the registered implementation,
defaulting to the algorithm the original single-algorithm implementation
hardwired so direct callers keep their historical behaviour.

The functions operate on raw byte buffers; element interpretation (for the
reduction collectives) comes from the datatype argument.  Successive
collectives on the same communicator are disambiguated with a per-communicator
operation sequence number folded into the message tag; MPI requires all ranks
to call collectives in the same order, so the sequence numbers agree.
"""

from __future__ import annotations

from typing import Optional

from repro.mpi.algorithms import registry
from repro.mpi.algorithms.base import (
    COLL_TAG_BASE as _COLL_TAG_BASE,  # noqa: F401  (re-exported for compat)
    COLL_TAG_MOD as _COLL_TAG_MOD,  # noqa: F401
    KIND_ALLGATHER,
    KIND_ALLREDUCE,
    KIND_ALLTOALL,
    KIND_BARRIER,
    KIND_BCAST,
    KIND_GATHER,
    KIND_REDUCE,
    KIND_SCATTER,
    Buffer,
    CollectiveContext,
    coll_tag as _coll_tag,
)
from repro.mpi.algorithms import schedule as schedules
from repro.mpi.algorithms.schedule import Schedule
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import BytesLike, Op

__all__ = [
    "CollectiveContext",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "barrier_schedule",
    "bcast_schedule",
    "allreduce_schedule",
    "allgather_schedule",
    "alltoall_schedule",
    "schedulable_algorithm",
]


def barrier(cc: CollectiveContext, seq: int, algorithm: str = "dissemination") -> None:
    """Barrier through the selected algorithm."""
    registry.get("barrier", algorithm)(cc, seq)


def bcast(
    cc: CollectiveContext,
    buffer: Buffer,
    nbytes: int,
    root: int,
    seq: int,
    algorithm: str = "binomial",
) -> None:
    """Broadcast ``nbytes`` from ``root`` into ``buffer``."""
    registry.get("bcast", algorithm)(cc, buffer, nbytes, root, seq)


def reduce(
    cc: CollectiveContext,
    sendbuf: BytesLike,
    recvbuf: Optional[Buffer],
    count: int,
    datatype: Datatype,
    op: Op,
    root: int,
    seq: int,
    algorithm: str = "binomial",
) -> None:
    """Reduce ``count`` elements to ``root``."""
    registry.get("reduce", algorithm)(cc, sendbuf, recvbuf, count, datatype, op, root, seq)


def allreduce(
    cc: CollectiveContext,
    sendbuf: BytesLike,
    recvbuf: Buffer,
    count: int,
    datatype: Datatype,
    op: Op,
    seq: int,
    algorithm: str = "reduce_bcast",
) -> None:
    """Allreduce ``count`` elements into every rank's ``recvbuf``."""
    registry.get("allreduce", algorithm)(cc, sendbuf, recvbuf, count, datatype, op, seq)


def gather(
    cc: CollectiveContext,
    sendbuf: BytesLike,
    recvbuf: Optional[Buffer],
    nbytes_per_rank: int,
    root: int,
    seq: int,
    algorithm: str = "linear",
) -> None:
    """Gather one block per rank to ``root``."""
    registry.get("gather", algorithm)(cc, sendbuf, recvbuf, nbytes_per_rank, root, seq)


def scatter(
    cc: CollectiveContext,
    sendbuf: Optional[BytesLike],
    recvbuf: Buffer,
    nbytes_per_rank: int,
    root: int,
    seq: int,
    algorithm: str = "linear",
) -> None:
    """Scatter one block per rank from ``root``."""
    registry.get("scatter", algorithm)(cc, sendbuf, recvbuf, nbytes_per_rank, root, seq)


def allgather(
    cc: CollectiveContext,
    sendbuf: BytesLike,
    recvbuf: Buffer,
    nbytes_per_rank: int,
    seq: int,
    algorithm: str = "ring",
) -> None:
    """Allgather one block per rank into every rank's ``recvbuf``."""
    registry.get("allgather", algorithm)(cc, sendbuf, recvbuf, nbytes_per_rank, seq)


def alltoall(
    cc: CollectiveContext,
    sendbuf: BytesLike,
    recvbuf: Buffer,
    nbytes_per_rank: int,
    seq: int,
    algorithm: str = "pairwise",
) -> None:
    """Alltoall of one block per peer."""
    registry.get("alltoall", algorithm)(cc, sendbuf, recvbuf, nbytes_per_rank, seq)


# ------------------------------------------------------------------ schedules
#
# Schedule builders for the non-blocking collectives (``MPI_Ibarrier`` and
# friends).  Each returns the *same* schedule the blocking entry point above
# executes for that algorithm -- the runtime's progress engine just advances
# it incrementally instead of running it to completion in one call.


def schedulable_algorithm(collective: str, algorithm: str) -> str:
    """``algorithm`` if it has a schedule builder, else the ported fallback."""
    return schedules.schedulable(collective, algorithm)


def barrier_schedule(algorithm: str, rank: int, size: int, seq: int) -> Schedule:
    """Schedule of one rank's part of a barrier."""
    return schedules.get_builder("barrier", algorithm)(rank, size, seq)


def bcast_schedule(algorithm: str, rank: int, size: int, nbytes: int, root: int, seq: int) -> Schedule:
    """Schedule of one rank's part of a broadcast (buffer name ``"data"``)."""
    return schedules.get_builder("bcast", algorithm)(rank, size, nbytes, root, seq)


def allreduce_schedule(algorithm: str, rank: int, size: int, count: int, esize: int,
                       seq: int) -> Schedule:
    """Schedule of one rank's part of an allreduce (buffer name ``"acc"``)."""
    return schedules.get_builder("allreduce", algorithm)(rank, size, count, esize, seq)


def allgather_schedule(algorithm: str, rank: int, size: int, nbytes_per_rank: int,
                       seq: int) -> Schedule:
    """Schedule of one rank's part of an allgather (``"send"`` -> ``"recv"``)."""
    return schedules.get_builder("allgather", algorithm)(rank, size, nbytes_per_rank, seq)


def alltoall_schedule(algorithm: str, rank: int, size: int, nbytes_per_rank: int,
                      seq: int) -> Schedule:
    """Schedule of one rank's part of an alltoall (``"send"`` -> ``"recv"``)."""
    return schedules.get_builder("alltoall", algorithm)(rank, size, nbytes_per_rank, seq)
