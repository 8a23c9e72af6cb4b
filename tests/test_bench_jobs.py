"""Document set 0 of each benchmark workload passes the benchmark's own
correctness check: every job is made, run and checked by ``bench/rbsbench``
(``make_jobs``, ``run_job``, ``check_job``) against its recorded
``expected.json``, so a change that breaks a benchmark job fails here."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from rbsbench import harness, workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_jobs_pass_their_recorded_checks(workload, tmp_path, monkeypatch):
    # the benchmark removes RBS_DIM_CAP and passes --cap to every job
    monkeypatch.delenv("RBS_DIM_CAP", raising=False)
    expected = harness.load_expected()["workloads"][workload]
    jobs = workloads.make_jobs(workload, 0, 0, str(tmp_path))
    failures = []
    for job in jobs:
        code, out, _start, _end = harness.run_job(job)
        reason = harness.check_job(job, code, out, expected)
        if reason is not None:
            failures.append(reason)
    assert jobs
    assert failures == []
