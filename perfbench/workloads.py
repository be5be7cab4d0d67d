"""The benchmark's four workloads: what each round runs and how it is checked.

Every job enters through the public front door: ``Session.run`` for the three
closed-loop workloads, ``run_campaign`` for ``campaign-sweep``.  A round is
the unit the measuring loop repeats: one job for ``allreduce-p256`` and
``hpcg-p4``, an allreduce job then a pingpong job for ``bulk-p4``, and one
whole 132-job campaign for ``campaign-sweep``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.api import Session
from repro.benchmarks_suite import registry
from repro.benchmarks_suite.hpcg import make_hpcg_program
from repro.benchmarks_suite.imb import make_imb_program
from repro.harness.campaign import CampaignSpec, run_campaign
from repro.toolchain.guest import GuestProgram
from repro.toolchain.wasicc import compile_guest

MACHINE = "supermuc-ng"
BACKENDS = ("singlepass", "cranelift", "llvm")
MIB = 1 << 20


@dataclass(frozen=True)
class Job:
    """One ``Session.run`` call of a closed-loop workload."""

    key: str                    # name of its reference fingerprint
    program: GuestProgram
    nranks: int
    backend: str = "cranelift"


@dataclass
class JobOutcome:
    """Wall time and verdict of one job, as the benchmark saw it."""

    wall: float
    ok: bool
    detail: str = ""


def result_fingerprint(job) -> str:
    """Digest of a job's simulated results: makespan, exit codes and every
    rank's return value.  A change that only makes the program faster must
    leave it unchanged."""
    payload = json.dumps(
        {"makespan": job.makespan, "exit_codes": job.exit_codes(),
         "return_values": job.return_values()},
        sort_keys=True, default=repr,
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def _session(cache_dir: str) -> Session:
    return Session(machine=MACHINE, backend="cranelift", cache_dir=cache_dir,
                   trace=False, config_file=None)


class SessionWorkload:
    """A closed loop of ``Session.run`` jobs from one client on a warm session."""

    seeded = False
    #: Worker processes the jobs run in (0: in the benchmark's own process).
    workers = 0

    def __init__(self, name: str, jobs: Sequence[Job]):
        self.name = name
        self.jobs = tuple(jobs)
        self.reference: Dict[str, str] = {}

    def setup(self, cache_dir: str) -> Session:
        """Cold set-up: a fresh session compiling every (module, backend) pair."""
        session = _session(cache_dir)
        for job in self.jobs:
            session.compile(job.program, backend=job.backend)
        return session

    def prepare(self, session: Session) -> None:
        """Untimed warm-up: one tiny job loads the run path's lazy imports."""
        session.run(WARMUP_PROGRAM, 2, backend="cranelift")

    def run_job(self, session: Session, job: Job) -> Tuple[JobOutcome, object]:
        start = time.perf_counter()
        result = session.run(job.program, job.nranks, backend=job.backend)
        wall = time.perf_counter() - start
        return JobOutcome(wall, *self.check(job, result)), result

    def check(self, job: Job, result) -> Tuple[bool, str]:
        if any(code != 0 for code in result.exit_codes()):
            return False, f"{job.key}: exit codes {result.exit_codes()}"
        got = result_fingerprint(result)
        want = self.reference.get(job.key)
        if got != want:
            return False, f"{job.key}: fingerprint {got} != reference {want}"
        return True, ""

    def run_round(self, session: Session) -> List[JobOutcome]:
        outcomes = []
        for job in self.jobs:
            try:
                outcome, _ = self.run_job(session, job)
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                outcome = JobOutcome(0.0, False, f"{job.key}: {type(exc).__name__}: {exc}")
            outcomes.append(outcome)
        return outcomes


class HpcgWorkload(SessionWorkload):
    """HPCG with Wasm ``hpcg_ddot`` kernels, checked against a native run."""

    RTOL = 1e-9

    def prepare(self, session: Session) -> None:
        super().prepare(session)
        job = self.jobs[0]
        native = session.run(job.program, job.nranks, mode="native")
        self.native = [value["residual_final"] for value in native.return_values()]

    def check(self, job: Job, result) -> Tuple[bool, str]:
        if any(code != 0 for code in result.exit_codes()):
            return False, f"{job.key}: exit codes {result.exit_codes()}"
        for rank, (value, native) in enumerate(zip(result.return_values(), self.native)):
            if not value["converging"]:
                return False, f"{job.key}: rank {rank} did not converge"
            if abs(value["residual_final"] - native) > self.RTOL * abs(native):
                return False, (f"{job.key}: rank {rank} residual {value['residual_final']!r} "
                               f"!= native {native!r}")
        return True, ""


def campaign_benchmarks() -> List[str]:
    """Every registered benchmark except the ``algosweep-*`` sweeps."""
    return [name for name in registry.names() if not name.startswith("algosweep-")]


class CampaignWorkload:
    """Cold ``run_campaign`` sweeps, one after another, on a 2-worker pool."""

    seeded = True
    workers = 2                 # nproc of the host the bounds were set on
    name = "campaign-sweep"

    def __init__(self):
        self.benchmarks = campaign_benchmarks()
        self.reference: Dict[str, str] = {}

    def spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec.from_mapping({
            "name": self.name,
            "seed": seed,
            "benchmarks": [{"benchmark": self.benchmarks, "backend": list(BACKENDS),
                            "nranks": [2, 4], "machine": MACHINE}],
        })

    def setup(self, cache_dir: str) -> Session:
        session = _session(cache_dir)
        for name in self.benchmarks:
            for backend in BACKENDS:
                session.compile(name, backend=backend)
        return session

    def prepare(self, session: Session) -> None:
        """Counts the distinct (module, backend) pairs the campaign compiles."""
        modules = {hashlib.blake2b(compile_guest(registry.get_program(name)).wasm_bytes)
                   .hexdigest() for name in self.benchmarks}
        self.distinct_pairs = len(modules) * len(BACKENDS)

    def run_round(self, workdir: str, seed: int) -> Tuple[float, list]:
        """One cold campaign; returns its wall time and the job outcomes."""
        scratch = tempfile.mkdtemp(prefix="campaign-", dir=workdir)
        try:
            start = time.perf_counter()
            result = run_campaign(self.spec(seed), workers=self.workers,
                                  cache_dir=os.path.join(scratch, "cache"),
                                  journal_dir=os.path.join(scratch, "journal"))
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        failed = self.check(result)
        return wall, [JobOutcome(o.wall_seconds, o.job_id not in failed, failed.get(o.job_id, ""))
                      for o in result.outcomes]

    def check(self, result) -> Dict[str, str]:
        """Failure detail per failed job id (empty when every job passed)."""
        failed: Dict[str, str] = {}
        fingerprints = result.fingerprints()
        for outcome in result.outcomes:
            if not outcome.ok:
                failed[outcome.job_id] = f"{outcome.job_id}: {(outcome.error or {}).get('type')}"
            elif fingerprints[outcome.job_id] != self.reference.get(outcome.job_id):
                failed[outcome.job_id] = f"{outcome.job_id}: fingerprint differs from reference"
        # The job set and compile-once are properties of the whole campaign:
        # when one fails, every job fails with it.
        campaign_failure = ""
        compiles = result.cache_stats.get("compiles")
        if set(fingerprints) != set(self.reference):
            campaign_failure = "campaign job set differs from the reference"
        elif compiles != self.distinct_pairs:
            campaign_failure = f"campaign compiled {compiles} times, expected {self.distinct_pairs}"
        if campaign_failure:
            for outcome in result.outcomes:
                failed.setdefault(outcome.job_id, campaign_failure)
        return failed


WARMUP_PROGRAM = make_imb_program("allreduce", message_sizes=(8,), iterations=1)


def build_workloads() -> Dict[str, object]:
    """Fresh workload objects by name (programs are built once per process)."""
    return {
        "allreduce-p256": SessionWorkload("allreduce-p256", [
            Job("allreduce-8B-x8-np256",
                make_imb_program("allreduce", message_sizes=(8,), iterations=8), 256),
        ]),
        "hpcg-p4": HpcgWorkload("hpcg-p4", [
            Job("hpcg-16x16x8-it30-np4",
                make_hpcg_program(dims=(16, 16, 8), iterations=30), 4),
        ]),
        "bulk-p4": SessionWorkload("bulk-p4", [
            Job("allreduce-4MiB-x16-np4",
                make_imb_program("allreduce", message_sizes=(4 * MIB,), iterations=16), 4),
            Job("pingpong-4MiB-x256-np2",
                make_imb_program("pingpong", message_sizes=(4 * MIB,), iterations=256), 2),
        ]),
        "campaign-sweep": CampaignWorkload(),
    }
