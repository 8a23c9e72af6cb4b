"""Golden outputs: the exit code and stdout of every job of document set 0
(seed 0) of the three benchmark workloads, as the benchmark runs it (with
``--json``) and as text (without it), with the work directory masked.

``tests/test_bench_jobs.py`` replays them on every run.  Re-record only
when an output is meant to change, and state each changed output and why
in ``CHANGES.md``:

    PYTHONPATH=src python3 tests/golden.py
"""

import gzip
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from rbsbench import harness, workloads  # noqa: E402

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden.json.gz"
MODES = ("json", "text")
WORKDIR_MASK = "<workdir>"


def runs(workload, workdir):
    """Each job of document set 0 (seed 0) of the workload, written under
    workdir, with its results: (job, code, stdout, outputs), where code and
    stdout are those of the benchmark's own run and outputs maps each mode
    to [exit code, stdout with workdir masked]."""
    for job in workloads.make_jobs(workload, 0, 0, workdir):
        outputs = {}
        for mode in MODES:
            argv = job.argv if mode == "json" else [a for a in job.argv if a != "--json"]
            code, out, _start, _end = harness.run_job(workloads.Job(job.key, argv, job.field, job.cocycle))
            if mode == "json":
                first = code, out
            outputs[mode] = [code, out.replace(workdir, WORKDIR_MASK)]
        yield (job, *first, outputs)


def load():
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def first_difference(got, want):
    """None when the two {job key: {mode: [code, stdout]}} tables are equal,
    else a message naming the first differing output and its first
    differing line."""
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            return f"{key}: {'not run' if key in want else 'not recorded'}"
        for mode in MODES:
            (code, out), (want_code, want_out) = got[key][mode], want[key][mode]
            if code != want_code:
                return f"{key} ({mode}): exit {code!r}, recorded {want_code!r}"
            if out == want_out:
                continue
            lines, want_lines = out.splitlines(), want_out.splitlines()
            for i in range(max(len(lines), len(want_lines))):
                line = lines[i] if i < len(lines) else "<end of output>"
                want_line = want_lines[i] if i < len(want_lines) else "<end of output>"
                if line != want_line:
                    return f"{key} ({mode}) line {i + 1}: {line!r}, recorded {want_line!r}"
            return f"{key} ({mode}): differs in line endings"
    return None


def record():
    """Run every workload's jobs and write GOLDEN_PATH (gzip with no
    timestamp, so equal outputs give equal bytes)."""
    os.environ.pop("RBS_DIM_CAP", None)  # the benchmark passes --cap instead
    table = {}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            table[workload] = {job.key: outputs for job, _code, _out, outputs in runs(workload, workdir)}
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    with open(GOLDEN_PATH, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    return table


if __name__ == "__main__":
    outputs = record()
    count = sum(len(jobs) for jobs in outputs.values()) * len(MODES)
    print(f"{GOLDEN_PATH}: {count} outputs")
