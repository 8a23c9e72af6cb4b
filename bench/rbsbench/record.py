"""Record every job's exit code and scramble-invariant report.

Run once, on the commit that defines the benchmark, with

    python3 bench/run.py --record

Each workload's first document set is run once, untimed, and the result is
written to ``expected.json``.  Every prime-field rank that ``rank_ladder``
reports is cross-checked against sympy's ``DomainMatrix``, which shares no
code with ``rbsys.linalg``; a mismatch aborts the recording.
"""

from __future__ import annotations

import json
import os
import shutil

from rbsys import rbs_d
from rbsys import documents as docs

from . import workloads
from .harness import EXPECTED_PATH, check_job, invariant, run_job


def _sympy_rank(mat):
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(mat.field.p)
    rows = [[field(int(x)) for x in row] for row in mat.a.tolist()]
    if mat.rows == 0 or mat.cols == 0:
        return 0
    return DomainMatrix(rows, mat.shape, field).rank()


def cross_check_ranks(job, report):
    """Compare each reported slice rank with sympy's rank of the same slice."""
    sys_path, mod_path = job.argv[1], job.argv[2]
    sys_doc = docs.load(sys_path)
    sys = docs.parse_system(sys_doc)
    if not sys.field.is_prime_field:
        return 0
    mod = docs.parse_bimodule(docs.load(mod_path), sys)
    for row in report["rows"]:
        slice_n = rbs_d(row["n"], sys, mod, workloads.CAP).matrix
        theirs = _sympy_rank(slice_n)
        if theirs != row["rank"]:
            raise AssertionError(f"{job.key}: rank {row['rank']} at n={row['n']}, sympy says {theirs}")
    return len(report["rows"])


def record(root, seed=0, log=print):
    out = {"recorded_with_seed": seed, "workloads": {}}
    workdir = os.path.join(root, ".bench_work", f"record-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.make_jobs(workload, seed, 0, os.path.join(workdir, workload))
            table = {}
            checked = 0
            for job in jobs:
                code, stdout, start, end = run_job(job)
                if not isinstance(code, int):
                    raise RuntimeError(f"{job.key}: {code}")
                report = json.loads(stdout)
                table[job.key] = {"exit": code, "report": invariant(report)}
                reason = check_job(job, code, stdout, table)
                if reason is not None or code != 0:
                    raise RuntimeError(f"{job.key}: {reason or f'exit {code}'}")
                if workload == "rank_ladder":
                    checked += cross_check_ranks(job, report)
                log(f"{workload} {job.key}: exit {code} in {end - start:.3f} s")
            if workload == "rank_ladder":
                log(f"rank_ladder: {checked} prime-field slice ranks agree with sympy")
            out["workloads"][workload] = table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return out
