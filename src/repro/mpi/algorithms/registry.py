"""Registry of collective algorithms, keyed by ``(collective, algorithm)``.

Mirrors the structure of Open MPI's ``coll`` framework: each collective
operation has several interchangeable algorithm implementations registered
under short names (``"binomial"``, ``"ring"``, ...), and a decision layer
(:mod:`repro.mpi.algorithms.decision`) picks one per call based on message
size and communicator size -- unless an override forces a specific one.

Every entry is a *schedule builder* (see :mod:`repro.mpi.algorithms.schedule`)
with one signature shared by all collectives::

    build(rank, size, count, esize, root, seq) -> Schedule

``count`` elements of ``esize`` bytes are the per-rank payload (the vector of
a bcast/reduce/allreduce, one block of a gather/scatter/allgather/alltoall);
``root`` is ignored by the unrooted collectives and barriers ignore the
payload too.  :mod:`repro.mpi.collectives` binds the built schedule to the
call's buffers, and the same schedule runs both the blocking and the
non-blocking entry point.

The backing store is the unified registry (:data:`repro.api.registry.ALGORITHMS`,
composite keys ``"<collective>:<algorithm>"``), filled by the one decorator
:func:`register` -- the same function third-party code reaches as
``@repro.api.register_algorithm(collective, name)``.  This module keeps the
collective-specific lookups (tuple-keyed access, per-collective catalogues)
on top of it.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.api.registry import (
    ALGORITHMS,
    UnknownEntryError,
    algorithm_key,
    register_algorithm as register,  # noqa: F401  (the one decorator)
)

#: The collectives the subsystem dispatches.
COLLECTIVES = (
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
)


class UnknownAlgorithmError(KeyError):
    """Raised when a (collective, algorithm) pair is not registered."""


def get(collective: str, name: str) -> Callable:
    """The schedule builder of algorithm ``name`` for ``collective``."""
    try:
        return ALGORITHMS.get(algorithm_key(collective, name))
    except UnknownEntryError:
        known = algorithms_for(collective)
        raise UnknownAlgorithmError(
            f"no algorithm {name!r} for collective {collective!r}; known: {known}"
        ) from None


def algorithms_for(collective: str) -> List[str]:
    """Names of every algorithm registered for ``collective``."""
    prefix = f"{collective}:"
    return sorted(
        key[len(prefix):] for key in ALGORITHMS.names() if key.startswith(prefix)
    )


def is_registered(collective: str, name: str) -> bool:
    """Whether ``(collective, name)`` is a registered algorithm."""
    return ALGORITHMS.contains(algorithm_key(collective, name))


def catalog() -> Dict[str, List[str]]:
    """Snapshot of the full registry: collective -> algorithm names."""
    return {collective: algorithms_for(collective) for collective in COLLECTIVES}

