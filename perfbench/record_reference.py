"""Record ``reference.json``: the fingerprints the output checks compare against.

Usage (from the repository root)::

    python3 perfbench/record_reference.py

Runs every job of ``allreduce-p256`` and ``bulk-p4`` once and one
``campaign-sweep`` campaign, and writes their result fingerprints with the
host block.  Fingerprints cover simulated results only (virtual time and
return values), so they do not depend on the host; re-record them only when a
change is meant to alter simulated results.  ``hpcg-p4`` has no stored
reference: each run checks it against a native run of the same program.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import HERE, ROOT, host_block


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import build_workloads, result_fingerprint

    workloads = build_workloads()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".perfbench_work")
    fingerprints = {}
    try:
        for name in ("allreduce-p256", "bulk-p4"):
            workload = workloads[name]
            session = workload.setup(tempfile.mkdtemp(dir=scratch))
            fingerprints[name] = {
                job.key: result_fingerprint(workload.run_job(session, job)[1])
                for job in workload.jobs
            }
            session.close()
        from repro.harness.campaign import run_campaign

        campaign = workloads["campaign-sweep"]
        result = run_campaign(campaign.spec(0), workers=campaign.workers,
                              cache_dir=f"{scratch}/cache")
        if not result.ok:
            raise SystemExit(f"campaign failed: {[o.job_id for o in result.errors]}")
        fingerprints["campaign-sweep"] = dict(sorted(result.fingerprints().items()))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference = {
        "host": host_block(),
        "recorded_with": "python3 perfbench/record_reference.py",
        "fingerprints": fingerprints,
    }
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
