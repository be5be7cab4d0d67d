"""Known program defects the benchmark's workloads are sized around.

Each test runs a job the benchmark would like to include and is a strict
expected failure: when the defect is fixed the test passes, the strict mark
turns that into a failure, and the mark (and the workload restriction it
explains) can be removed.
"""

import pytest

from repro.api import Session
from repro.benchmarks_suite.imb import make_imb_program
from repro.sim.engine import RankFailedError


@pytest.mark.xfail(
    strict=True,
    raises=RankFailedError,
    reason=(
        "LinearMemory.grow cannot resize the bytearray while the guest's NumPy "
        "views pin it (BufferError: Existing exports of data); imb.py's memory "
        "page estimate is too small for alltoall/allgather/gather/scatter at "
        "1 MiB, so bulk-p4 runs only allreduce and pingpong"
    ),
)
def test_imb_alltoall_1mib_on_4_ranks_completes():
    with Session(machine="supermuc-ng", backend="cranelift", cache_dir=None,
                 config_file=None) as session:
        job = session.run(make_imb_program("alltoall", message_sizes=(1 << 20,),
                                           iterations=1), 4)
    assert job.exit_codes() == [0, 0, 0, 0]
