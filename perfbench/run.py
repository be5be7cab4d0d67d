"""Whole-job benchmark of the MPIWasm reproduction, timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload allreduce-p256 --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``allreduce-p256``, ``hpcg-p4``, ``bulk-p4``
and ``campaign-sweep``.  Only ``campaign-sweep`` uses the seed (as the
campaign spec's seed); the other three run fixed inputs, and the report says
so.  ``BENCHMARK.json`` gates ``bulk-p4`` and ``campaign-sweep`` only: on a
shared 2-core host the few long jobs of ``allreduce-p256`` (256 rank threads)
and ``hpcg-p4`` (pure interpreter dispatch) swing by more than a 25% bound
from run to run.  Both stay runnable here, traced or untraced, and
``campaign-sweep`` still crosses every layer they load.

``--trace 0`` measures the end-to-end metrics:

* ``job_wall_s`` -- median host wall seconds per job.  A sample is the mean
  job wall of one round (``bulk-p4`` rounds hold an allreduce and a pingpong
  job); for ``campaign-sweep`` a sample is one ``JobOutcome.wall_seconds``;
* ``jobs_per_s`` -- jobs with correct output per second of the timed window
  (for ``campaign-sweep``, the summed ``run_campaign`` calls, pool start-up
  included);
* ``setup_s`` -- median over repeats of a cold set-up: a fresh ``Session``
  compiling every (module, backend) pair of the workload into a fresh
  on-disk cache directory.  The repeats run untimed between rounds, for a
  tenth of each round's window;
* ``peak_rss_mb`` -- peak resident set of this process, plus, for the
  campaign, the largest worker's peak once per worker.

Every job's output is checked (``workloads.py``); failures are reported as
``failed``/``attempted`` and ``fail_ratio`` and make the exit code 1.

``--trace 1`` measures the per-layer metrics instead: a few untraced rounds
give the base job wall, then ``layers.install`` wraps every layer boundary
and the remaining rounds are traced.  Every per-layer metric is a mean per
job.  The report names the top layer, the tracing overhead and how much of
the job wall the layers account for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("allreduce-p256", "hpcg-p4", "bulk-p4", "campaign-sweep")
#: Cold set-ups run after each round for this share of the round's window, so
#: that they sample the host over the whole run like the jobs do; ``setup_s``
#: is their median.
SETUP_SHARE = 0.1
#: Bound on |1 - accounted / measured| job wall in a traced run.
ACCOUNTING_BOUND = 0.05

#: Per-layer metrics of a traced run: (name, unit).
PER_LAYER = (
    ("sim.engine.turns", "count"),
    ("sim.engine.handoff_s", "s"),
    ("sim.engine.handoff_us_per_turn", "us"),
    ("mpi.pt2pt.messages", "count"),
    ("mpi.pt2pt.bytes", "B"),
    ("mpi.pt2pt.self_s", "s"),
    ("mpi.runtime.calls", "count"),
    ("mpi.runtime.self_s", "s"),
    ("mpi.ops.bytes", "B"),
    ("mpi.ops.self_s", "s"),
    ("core.mpi_imports.calls", "count"),
    ("core.mpi_imports.self_s", "s"),
    ("core.mpi_imports.us_per_call", "us"),
    ("core.memory_translation.bytes", "B"),
    ("core.memory_translation.self_s", "s"),
    ("core.embedder.instantiations", "count"),
    ("core.embedder.instantiate_s", "s"),
    ("wasm.runtime.invokes", "count"),
    ("wasm.runtime.invoke_s", "s"),
    ("wasm.decode_s", "s"),
    ("wasm.validate_s", "s"),
    ("wasm.compile.count", "count"),
    ("wasm.compile_s", "s"),
    ("analysis.ir_verify_s", "s"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.self_s", "s"),
    ("toolchain.compile_guest.count", "count"),
    ("toolchain.compile_guest_s", "s"),
    ("api.session.self_s", "s"),
    ("harness.campaign.overhead_s", "s"),
    ("harness.campaign.job_self_s", "s"),
    ("guest.self_s", "s"),
    ("trace.job_wall_s", "s"),
    ("trace.base_job_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_ratio", "ratio"),
)

#: Counts a later change may rest a claim on, if they repeat exactly.
REPEATABLE_COUNTS = (
    "sim.engine.turns",
    "mpi.pt2pt.messages",
    "mpi.pt2pt.bytes",
    "mpi.ops.bytes",
    "core.mpi_imports.calls",
    "wasm.compile.count",
    "cache.lookups",
)

#: Layer self-time metric for each traced layer (the attribution table).
SELF_METRICS = {
    "api.session": "api.session.self_s",
    "harness.campaign": "harness.campaign.job_self_s",
    "mpi.pt2pt": "mpi.pt2pt.self_s",
    "mpi.runtime": "mpi.runtime.self_s",
    "mpi.ops": "mpi.ops.self_s",
    "core.mpi_imports": "core.mpi_imports.self_s",
    "core.memory_translation": "core.memory_translation.self_s",
    "core.embedder": "core.embedder.instantiate_s",
    "wasm.runtime": "wasm.runtime.invoke_s",
    "wasm.decode": "wasm.decode_s",
    "wasm.validate": "wasm.validate_s",
    "wasm.compile": "wasm.compile_s",
    "analysis.ir_verify": "analysis.ir_verify_s",
    "cache": "cache.self_s",
    "toolchain": "toolchain.compile_guest_s",
    "guest": "guest.self_s",
}


@dataclass
class Round:
    """One round of a workload: its share of the timed window and its jobs."""

    window: float
    outcomes: list
    records: List[dict] = field(default_factory=list)


def host_block() -> Dict[str, object]:
    """The host a measurement ran on."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def load_reference(workloads: Dict[str, object]) -> None:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        fingerprints = json.load(handle)["fingerprints"]
    for name, workload in workloads.items():
        workload.reference = dict(fingerprints.get(name, {}))


# ------------------------------------------------------------------ running


def run_rounds(workload, session, seed: int, seconds: float, workdir: str,
               min_rounds: int, tracer=None, after_round=None) -> List[Round]:
    """Run whole rounds until ``seconds`` of rounds have passed (at least
    ``min_rounds``); ``after_round(window)`` runs untimed after each round."""
    rounds: List[Round] = []
    while len(rounds) < min_rounds or sum(r.window for r in rounds) < seconds:
        if workload.workers:
            sink = None
            if tracer is not None:
                sink = tracer.sink_dir = tempfile.mkdtemp(prefix="trace-", dir=workdir)
            window, outcomes = workload.run_round(workdir, seed)
            records = _drain_sink(sink) if sink else []
        else:
            begin = time.perf_counter()
            outcomes = workload.run_round(session)
            window = time.perf_counter() - begin
            records = tracer.take() if tracer is not None else []
        rounds.append(Round(window, outcomes, records))
        if after_round is not None:
            after_round(window)
    return rounds


def _drain_sink(sink: str) -> List[dict]:
    records = []
    for path in sorted(Path(sink).glob("worker-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    shutil.rmtree(sink, ignore_errors=True)
    return records


def job_wall_samples(workload, rounds: Sequence[Round]) -> List[float]:
    if workload.workers:
        return [o.wall for r in rounds for o in r.outcomes if o.ok]
    return [statistics.fmean(o.wall for o in r.outcomes)
            for r in rounds if all(o.ok for o in r.outcomes)]


def peak_rss_mb(workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * children) / 1024.0


def tail_percentile(samples: Sequence[float]):
    """The highest of p90/p99 with at least ten samples beyond it, if any."""
    best = None
    ordered = sorted(samples)
    for pct in (90, 99):
        if len(ordered) * (100 - pct) / 100 >= 10:
            best = (pct, ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))])
    return best


def measure(workload, seed: int, seconds: float, workdir: str):
    """End-to-end metrics: the closed loop, with cold set-ups between rounds."""
    setup_times: List[float] = []

    def cold_setups(window: float) -> None:
        began = time.perf_counter()
        while not setup_times or time.perf_counter() - began < SETUP_SHARE * window:
            cache_dir = tempfile.mkdtemp(prefix="setup-", dir=workdir)
            start = time.perf_counter()
            fresh = workload.setup(cache_dir)
            setup_times.append(time.perf_counter() - start)
            fresh.close()
            shutil.rmtree(cache_dir, ignore_errors=True)

    # The warm session's own set-up pays the one-time imports: not a sample.
    session = workload.setup(tempfile.mkdtemp(prefix="setup-", dir=workdir))
    workload.prepare(session)
    rounds = run_rounds(workload, session, seed, seconds, workdir, min_rounds=1,
                        after_round=cold_setups)
    session.close()

    outcomes = [o for r in rounds for o in r.outcomes]
    ok = sum(1 for o in outcomes if o.ok)
    walls = job_wall_samples(workload, rounds)
    window = sum(r.window for r in rounds)
    # name -> (value, unit, sample count, tail percentile or None)
    metrics = {
        "job_wall_s": (statistics.median(walls) if walls else float("nan"), "s",
                       len(walls), tail_percentile(walls)),
        "jobs_per_s": (ok / window, "1/s", ok, None),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times), None),
        "peak_rss_mb": (peak_rss_mb(workload.workers), "MB", 1, None),
    }
    return outcomes, metrics


def measure_layers(workload, seed: int, seconds: float, workdir: str):
    """Per-layer metrics: untraced base rounds, then traced rounds."""
    import layers

    session = workload.setup(tempfile.mkdtemp(prefix="setup-", dir=workdir))
    workload.prepare(session)
    base = run_rounds(workload, session, seed, seconds / 3, workdir, min_rounds=1)
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    tracer.active = True
    try:
        traced = run_rounds(workload, session, seed, seconds * 2 / 3, workdir,
                            min_rounds=2, tracer=tracer)
    finally:
        tracer.active = False
        uninstall()
    session.close()

    outcomes = [o for r in base + traced for o in r.outcomes]
    jobs = sum(len(r.outcomes) for r in traced)
    records = [rec for r in traced for rec in r.records]
    totals = _sum_records(records)
    if workload.workers:
        measured = sum(rec["measured_wall"] for rec in records)
    else:
        measured = sum(o.wall for r in traced for o in r.outcomes)

    metrics: Dict[str, float] = {}
    counts = totals["counts"]
    self_s = totals["self"]
    handoff = totals["engine_run"] - totals["running_union"]
    turns = counts.get("sim.engine.turns", 0.0)
    metrics["sim.engine.turns"] = turns / jobs
    metrics["sim.engine.handoff_s"] = handoff / jobs
    metrics["sim.engine.handoff_us_per_turn"] = 1e6 * handoff / turns if turns else 0.0
    for key in ("mpi.pt2pt.messages", "mpi.pt2pt.bytes", "mpi.runtime.calls", "mpi.ops.bytes",
                "core.mpi_imports.calls", "core.memory_translation.bytes",
                "core.embedder.instantiations", "wasm.runtime.invokes", "wasm.compile.count",
                "cache.lookups", "toolchain.compile_guest.count"):
        metrics[key] = counts.get(key, 0.0) / jobs
    for layer_name, metric in SELF_METRICS.items():
        metrics[metric] = self_s.get(layer_name, 0.0) / jobs
    calls = counts.get("core.mpi_imports.calls", 0.0)
    metrics["core.mpi_imports.us_per_call"] = (
        1e6 * self_s.get("core.mpi_imports", 0.0) / calls if calls else 0.0)
    lookups = counts.get("cache.lookups", 0.0)
    metrics["cache.hit_ratio"] = counts.get("cache.hits", 0.0) / lookups if lookups else 0.0
    overhead = sum(r.window * workload.workers - sum(o.wall for o in r.outcomes)
                   for r in traced) if workload.workers else 0.0
    metrics["harness.campaign.overhead_s"] = overhead / jobs
    traced_wall = statistics.median(job_wall_samples(workload, traced) or [float("nan")])
    base_wall = statistics.median(job_wall_samples(workload, base) or [float("nan")])
    metrics["trace.job_wall_s"] = traced_wall
    metrics["trace.base_job_wall_s"] = base_wall
    metrics["trace.overhead_ratio"] = (traced_wall - base_wall) / base_wall
    accounted = sum(self_s.values()) + handoff
    metrics["trace.unaccounted_ratio"] = abs(1.0 - accounted / measured)

    report = {
        "jobs": jobs,
        "accounted_s": accounted,
        "measured_s": measured,
        "overlap_s": totals["running_sum"] - totals["running_union"],
        "unrepeated": _unrepeated_counts(traced),
    }
    return outcomes, metrics, report


def _sum_records(records: Sequence[dict]) -> dict:
    totals = {"self": {}, "counts": {}, "engine_run": 0.0, "running_sum": 0.0,
              "running_union": 0.0}
    for rec in records:
        for group in ("self", "counts"):
            for key, value in rec[group].items():
                totals[group][key] = totals[group].get(key, 0.0) + value
        for key in ("engine_run", "running_sum", "running_union"):
            totals[key] += rec[key]
    return totals


def _unrepeated_counts(rounds: Sequence[Round]) -> List[str]:
    """Repeatable counts whose per-round totals differ between rounds."""
    per_round = [_sum_records(r.records)["counts"] for r in rounds]
    return [key for key in REPEATABLE_COUNTS
            if len({counts.get(key, 0.0) for counts in per_round}) > 1]


# ------------------------------------------------------------------ reporting


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_e2e(metrics, outcomes) -> None:
    print(f"{'metric':<14} {'unit':<6} {'value':>12} {'samples':>8}  tail")
    for name, (value, unit, samples, tail) in metrics.items():
        tail_text = f"p{tail[0]}={_fmt(tail[1])}" if tail else "-"
        print(f"{name:<14} {unit:<6} {_fmt(value):>12} {samples:>8}  {tail_text}")
    failed = sum(1 for o in outcomes if not o.ok)
    print(f"{'fail_ratio':<14} {'ratio':<6} {_fmt(failed / max(1, len(outcomes))):>12} "
          f"{len(outcomes):>8}  ({failed} of {len(outcomes)} jobs failed)")


def print_layers(metrics: Dict[str, float], report: dict) -> None:
    wall = metrics["trace.job_wall_s"]
    shares = {"sim.engine (handoff)": metrics["sim.engine.handoff_s"]}
    shares.update({layer: metrics[metric] for layer, metric in SELF_METRICS.items()})
    per_job = report["measured_s"] / report["jobs"]
    print(f"per-layer self time, mean per job ({report['jobs']} traced jobs):")
    for layer, seconds in sorted(shares.items(), key=lambda item: -item[1]):
        if seconds > 0:
            print(f"  {layer:<26} {_fmt(seconds):>12} s  {100 * seconds / per_job:6.2f}%")
    top = max(shares, key=shares.get)
    print(f"top layer: {top} ({100 * shares[top] / per_job:.1f}% of job wall)")
    unaccounted = metrics["trace.unaccounted_ratio"]
    verdict = "within" if unaccounted <= ACCOUNTING_BOUND else "OUTSIDE"
    print(f"accounted {_fmt(report['accounted_s'])} s of {_fmt(report['measured_s'])} s "
          f"measured job wall: |1 - ratio| = {unaccounted:.4f}, {verdict} the "
          f"{ACCOUNTING_BOUND:.0%} bound (rank-thread overlap {_fmt(report['overlap_s'])} s)")
    print(f"tracing overhead: {metrics['trace.overhead_ratio']:+.3f} of base job wall "
          f"{_fmt(metrics['trace.base_job_wall_s'])} s (traced {_fmt(wall)} s)")
    if report["unrepeated"]:
        print("counts that did not repeat between rounds (not usable for claims): "
              + ", ".join(report["unrepeated"]))
    else:
        print("every repeatable count repeated exactly between traced rounds")
    for name, unit in PER_LAYER:
        print(f"  {name:<34} {_fmt(metrics[name]):>14} {unit}")


# ----------------------------------------------------------------------- main


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import build_workloads

    workloads = build_workloads()
    load_reference(workloads)
    workload = workloads[args.workload]

    seed_note = "campaign spec seed" if workload.seeded else "fixed inputs; seed not used"
    print(f"perfbench: workload={args.workload} seed={args.seed} ({seed_note}) "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + json.dumps(host_block(), sort_keys=True))

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work")
    try:
        if args.trace:
            outcomes, values, report = measure_layers(workload, args.seed, args.seconds, workdir)
            print_layers(values, report)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        else:
            outcomes, e2e = measure(workload, args.seed, args.seconds, workdir)
            print_e2e(e2e, outcomes)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit, _, _) in e2e.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    failures = [o.detail for o in outcomes if not o.ok]
    for detail in sorted(set(failures))[:20]:
        print(f"FAILED {detail}")
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
