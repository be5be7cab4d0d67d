"""Per-layer attribution of job wall time, recorded from outside the program.

:func:`install` wraps the public functions at each layer boundary of the
``repro`` package (class attributes for methods; module attributes, rebound
in every loaded ``repro`` module, for functions).  While :attr:`Tracer.active`
is set, every call becomes a span with a layer name, start, end and parent
(the span below it on the calling thread's stack).  A span's self time is
its duration minus its children's; self times are summed per layer, and
counts are taken at the same boundaries, on entry into a layer.

A job is the outermost span on a non-rank thread (``Session.run``, or the
campaign's ``run_job`` in a worker process).  Rank threads are rooted in a
``guest`` span, installed by wrapping every rank target passed to
``SimEngine.spawn``; its self time is the rank program's own work outside
every wrapped layer.  Time a rank thread spends inside ``SimEngine.block`` or
``SimEngine.yield_rank`` is parked time, not self time of any layer: the
engine's handoff time is ``SimEngine.run``'s wall time minus the union of the
intervals in which some rank thread runs outside those two calls.  With rank
threads never overlapping, the layer self times, the handoff time and the
guest self time add up to the job's wall time.

Each finished job becomes one plain-dict record (see :meth:`Tracer.take`).
Inside a forked campaign worker the records are appended, one JSON line per
job, to a file per worker under :attr:`Tracer.sink_dir`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

#: Layer of a rank thread's root span (the rank program itself).
RANK = "guest"
#: Pseudo-layer of the scheduler calls that park a rank thread.
BLOCK = "sim.engine.block"
#: Pseudo-layer of ``SimEngine.run`` (split into handoff and rank running time).
ENGINE_RUN = "sim.engine.run"

Count = Callable[[Dict[str, float], tuple, dict, object], None]


class _Span:
    __slots__ = ("layer", "start", "parent", "root", "children", "blocks")

    def __init__(self, layer: str, parent: Optional["_Span"], start: float):
        self.layer = layer
        self.start = start
        self.parent = parent
        self.root = parent.root if parent is not None else self
        self.children = 0.0
        self.blocks: List[Tuple[float, float]] = []


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Span stacks, per-job accumulators and finished job records."""

    def __init__(self) -> None:
        self.active = False
        #: Directory that forked worker processes append their job records to.
        self.sink_dir: Optional[str] = None
        self._owner_pid = os.getpid()
        self._local = threading.local()
        self._jobs: List[dict] = []
        self._reset()

    def _reset(self) -> None:
        self._self: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, float] = defaultdict(float)
        self._engine_run = 0.0
        self._running: List[Tuple[float, float]] = []

    def _stack(self) -> List[_Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # ------------------------------------------------------------- wrappers

    def wrap(self, layer: str, fn: Callable, count: Optional[Count] = None) -> Callable:
        """``fn`` recording a ``layer`` span per call while the tracer is active."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is None and layer != RANK:
                tracer._reset()
            span = _Span(layer, parent, perf())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer._close(span, end)
            if count is not None and (parent is None or parent.layer != layer):
                count(tracer._counts, args, kwargs, result)
            return result

        return traced

    def wrap_block(self, fn: Callable) -> Callable:
        """``SimEngine.block``/``yield_rank``: parked time plus a turn count.

        A call parks its thread (and ends in a resume: one turn) unless a wake
        is already pending; the engine's record is read for that, before the
        call, while this rank holds the execution token.
        """
        traced = self.wrap(BLOCK, fn)
        tracer = self

        @functools.wraps(fn)
        def block(engine, rank, *args, **kwargs):
            if tracer.active:
                rec = engine._records[rank]  # noqa: SLF001 - read-only peek
                if not (rec.wake_pending or rec.teardown):
                    tracer._counts["sim.engine.turns"] += 1
            return traced(engine, rank, *args, **kwargs)

        return block

    def wrap_spawn(self, fn: Callable) -> Callable:
        """``SimEngine.spawn``: root every rank thread in a ``guest`` span."""
        tracer = self

        def first_turn(counts, args, kwargs, result):
            counts["sim.engine.turns"] += 1

        @functools.wraps(fn)
        def spawn(engine, target, rank=None):
            return fn(engine, tracer.wrap(RANK, target, first_turn), rank)

        return spawn

    def wrap_job(self, fn: Callable) -> Callable:
        """Campaign ``run_job``: a job root that also keeps the job's own
        ``wall_seconds`` and, in a forked worker, ships the record out."""
        traced = self.wrap("harness.campaign", fn)
        tracer = self

        @functools.wraps(fn)
        def run_job(*args, **kwargs):
            outcome = traced(*args, **kwargs)
            if tracer.active and tracer._jobs:
                tracer._jobs[-1]["measured_wall"] = outcome.wall_seconds
                if os.getpid() != tracer._owner_pid and tracer.sink_dir:
                    path = os.path.join(tracer.sink_dir, f"worker-{os.getpid()}.jsonl")
                    with open(path, "a", encoding="utf-8") as sink:
                        for record in tracer.take():
                            sink.write(json.dumps(record) + "\n")
            return outcome

        return run_job

    # ---------------------------------------------------------------- spans

    def _close(self, span: _Span, end: float) -> None:
        duration = end - span.start
        parent = span.parent
        if parent is not None:
            parent.children += duration
        if span.layer == BLOCK:
            if span.root.layer == RANK:
                span.root.blocks.append((span.start, end))
            return
        if span.layer == ENGINE_RUN:
            self._engine_run += duration
            return
        self._self[span.layer] += duration - span.children
        if span.layer == RANK:
            start = span.start
            for block_start, block_end in span.blocks:
                self._running.append((start, block_start))
                start = block_end
            self._running.append((start, end))
        elif parent is None:
            self._jobs.append(self._record(duration))

    def _record(self, wall: float) -> dict:
        running_sum = sum(end - start for start, end in self._running)
        return {
            "wall": wall,
            "self": dict(self._self),
            "counts": dict(self._counts),
            "engine_run": self._engine_run,
            "running_sum": running_sum,
            "running_union": _union_length(self._running),
        }

    def take(self) -> List[dict]:
        """Return and forget the records of every job finished so far."""
        jobs, self._jobs = self._jobs, []
        return jobs


# ---------------------------------------------------------------- counting


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _counter(key: str,
             amount: Optional[Callable[[tuple, dict, object], float]] = None) -> Count:
    def count(counts, args, kwargs, result):
        counts[key] += 1 if amount is None else amount(args, kwargs, result)

    return count


def _cache_lookup(counts, args, kwargs, result) -> None:
    counts["cache.lookups"] += 1
    counts["cache.hits"] += 1 if result[1] else 0


def _message(counts, args, kwargs, result) -> None:
    counts["mpi.pt2pt.messages"] += 1
    counts["mpi.pt2pt.bytes"] += len(_arg(args, kwargs, 6, "data"))


def _ndarray_bytes(args, kwargs, result) -> int:
    import numpy as np

    return int(_arg(args, kwargs, 2, "count")) * np.dtype(_arg(args, kwargs, 3, "dtype")).itemsize


# ------------------------------------------------------------ installation


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer boundary for ``tracer``; returns the undo function."""
    from repro.analysis import ir_verify
    from repro.api.session import Session
    from repro.core.embedder import MPIWasm
    from repro.core.guest_api import GuestAPI
    from repro.core.memory_translation import AddressTranslator
    from repro.harness import campaign
    from repro.mpi.ops import Op
    from repro.mpi.pt2pt import MatchingEngine
    from repro.mpi.runtime import MPIRuntime
    from repro.sim.engine import SimEngine
    from repro.toolchain import wasicc
    from repro.wasm import decoder, validation
    from repro.wasm.compilers.base import CompilerBackend
    from repro.wasm.compilers.cache import FileSystemCache, InMemoryCache, TieredCache
    from repro.wasm.runtime import Instance

    undo: List[Tuple[object, str, object]] = []

    def method(cls, name: str, wrapper: Callable) -> None:
        undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def traced_method(cls, name: str, layer: str, count: Optional[Count] = None) -> None:
        method(cls, name, tracer.wrap(layer, cls.__dict__[name], count))

    def traced_function(module, name: str, wrapper_for: Callable[[Callable], Callable]) -> None:
        original = getattr(module, name)
        wrapper = wrapper_for(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def layer(name: str, count: Optional[Count] = None):
        return lambda fn: tracer.wrap(name, fn, count)

    # sim.engine
    method(SimEngine, "run", tracer.wrap(ENGINE_RUN, SimEngine.__dict__["run"]))
    method(SimEngine, "block", tracer.wrap_block(SimEngine.__dict__["block"]))
    method(SimEngine, "yield_rank", tracer.wrap_block(SimEngine.__dict__["yield_rank"]))
    method(SimEngine, "spawn", tracer.wrap_spawn(SimEngine.__dict__["spawn"]))
    # mpi.pt2pt
    traced_method(MatchingEngine, "post_send", "mpi.pt2pt", _message)
    for name in ("recv", "consume_nowait", "wait_send", "block_for_any"):
        traced_method(MatchingEngine, name, "mpi.pt2pt")
    # mpi.runtime: every public method
    for name, value in list(vars(MPIRuntime).items()):
        if not name.startswith("_") and inspect.isfunction(value):
            traced_method(MPIRuntime, name, "mpi.runtime", _counter("mpi.runtime.calls"))
    # mpi.ops
    traced_method(Op, "apply", "mpi.ops",
                  _counter("mpi.ops.bytes", lambda a, k, r: _arg(a, k, 1, "acc").nbytes))
    traced_method(Op, "reduce_bytes", "mpi.ops", _counter(
        "mpi.ops.bytes",
        lambda a, k, r: int(_arg(a, k, 4, "count")) * _arg(a, k, 3, "datatype").size))
    # core.mpi_imports: the guest -> env.MPI_* boundary
    traced_method(GuestAPI, "_call", "core.mpi_imports", _counter("core.mpi_imports.calls"))
    # core.memory_translation
    translated = "core.memory_translation.bytes"
    traced_method(AddressTranslator, "to_host", "core.memory_translation",
                  _counter(translated, lambda a, k, r: int(_arg(a, k, 2, "nbytes"))))
    traced_method(AddressTranslator, "to_host_ndarray", "core.memory_translation",
                  _counter(translated, _ndarray_bytes))
    traced_method(AddressTranslator, "copy_guest_range", "core.memory_translation",
                  _counter(translated, lambda a, k, r: int(_arg(a, k, 3, "nbytes"))))
    for name in ("from_host", "check_range", "is_zero_copy"):
        traced_method(AddressTranslator, name, "core.memory_translation")
    # core.embedder
    traced_method(MPIWasm, "instantiate", "core.embedder",
                  _counter("core.embedder.instantiations"))
    # wasm.runtime
    traced_method(Instance, "invoke", "wasm.runtime", _counter("wasm.runtime.invokes"))
    # wasm compile pipeline
    traced_function(decoder, "decode_module", layer("wasm.decode"))
    traced_function(validation, "validate_module", layer("wasm.validate"))
    traced_method(CompilerBackend, "compile", "wasm.compile", _counter("wasm.compile.count"))
    traced_function(ir_verify, "verify_artifact", layer("analysis.ir_verify"))
    # wasm.compilers.cache: outermost load_or_compute of any tier is one lookup
    for cls in (FileSystemCache, InMemoryCache, TieredCache):
        traced_method(cls, "load_or_compute", "cache", _cache_lookup)
    # toolchain
    traced_function(wasicc, "compile_guest",
                    layer("toolchain", _counter("toolchain.compile_guest.count")))
    # api.session and harness.campaign job roots
    traced_method(Session, "run", "api.session")
    traced_function(campaign, "run_job", tracer.wrap_job)

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
