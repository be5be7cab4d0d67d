"""Tests of the benchmark itself: attribution, output checks and the CLI contract."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import layers
import run
from repro.api import Session
from repro.benchmarks_suite.imb import make_imb_program
from repro.mpi.pt2pt import MatchingEngine
from repro.sim.engine import SimEngine
from workloads import build_workloads


@pytest.fixture
def session():
    with Session(machine="supermuc-ng", backend="cranelift", cache_dir=None,
                 config_file=None) as warm:
        yield warm


def _traced_jobs(session, program, nranks, jobs=2):
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    walls = []
    try:
        tracer.active = True
        for _ in range(jobs):
            start = time.perf_counter()
            session.run(program, nranks)
            walls.append(time.perf_counter() - start)
    finally:
        tracer.active = False
        uninstall()
    return tracer.take(), walls


def test_layers_account_for_job_wall_and_counts_repeat(session):
    program = make_imb_program("allreduce", message_sizes=(8, 4096), iterations=2)
    session.run(program, 8)                                  # warm the session
    records, walls = _traced_jobs(session, program, 8)
    assert len(records) == 2
    for record, wall in zip(records, walls):
        accounted = sum(record["self"].values()) + record["engine_run"] - record["running_union"]
        assert abs(1 - accounted / wall) < run.ACCOUNTING_BOUND
        assert record["running_sum"] == pytest.approx(record["running_union"], abs=1e-6)
        assert record["counts"]["sim.engine.turns"] >= 8
        assert record["counts"]["mpi.pt2pt.messages"] > 0
        assert record["counts"]["core.embedder.instantiations"] == 8
    first, second = (record["counts"] for record in records)
    for key in run.REPEATABLE_COUNTS:
        assert first.get(key, 0) == second.get(key, 0), key


def test_uninstall_restores_every_wrapped_function():
    import repro.api.session as session_module
    from repro.wasm import validation

    originals = (SimEngine.block, MatchingEngine.post_send, session_module.decode_module,
                 validation.validate_module)
    uninstall = layers.install(layers.Tracer())
    assert MatchingEngine.post_send is not originals[1]
    uninstall()
    assert (SimEngine.block, MatchingEngine.post_send, session_module.decode_module,
            validation.validate_module) == originals


def test_bulk_jobs_match_reference_fingerprints(tmp_path):
    workloads = build_workloads()
    run.load_reference(workloads)
    bulk = workloads["bulk-p4"]
    with bulk.setup(str(tmp_path)) as warm:
        outcomes = bulk.run_round(warm)
    assert [o.detail for o in outcomes] == ["", ""]
    assert all(o.ok for o in outcomes)


def test_changed_results_fail_the_check(tmp_path):
    workloads = build_workloads()
    run.load_reference(workloads)
    bulk = workloads["bulk-p4"]
    bulk.reference = {key: "0" * 32 for key in bulk.reference}
    with bulk.setup(str(tmp_path)) as warm:
        outcomes = bulk.run_round(warm)
    assert not any(o.ok for o in outcomes)
    assert "fingerprint" in outcomes[0].detail


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "bulk-p4", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert {name for name, _ in run.PER_LAYER} == {m["name"] for m in bench["per_layer"]}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hpcg-p4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
