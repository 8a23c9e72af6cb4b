"""Document set 0 of each benchmark workload passes the benchmark's own
correctness check: every job is made, run and checked by ``bench/rbsbench``
(``make_jobs``, ``run_job``, ``check_job``) against its recorded
``expected.json``, so a change that breaks a benchmark job fails here.

The same runs replay the golden outputs of ``tests/golden.py``: every job's
exit code and stdout, as the benchmark runs it (``--json``) and as text,
must be byte-equal to ``tests/data/golden.json.gz``, the work directory
masked."""

import pytest

import golden
from golden import harness, workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_jobs_pass_their_recorded_checks(workload, tmp_path, monkeypatch):
    # the benchmark removes RBS_DIM_CAP and passes --cap to every job
    monkeypatch.delenv("RBS_DIM_CAP", raising=False)
    expected = harness.load_expected()["workloads"][workload]
    failures, outputs = [], {}
    for job, code, out, both in golden.runs(workload, str(tmp_path)):
        reason = harness.check_job(job, code, out, expected)
        if reason is not None:
            failures.append(reason)
        outputs[job.key] = both
    assert outputs
    assert failures == []
    difference = golden.first_difference(outputs, golden.load()[workload])
    assert difference is None, difference
