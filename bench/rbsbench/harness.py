"""Closed-loop runs of a workload through ``rbsys.cli.main``, in process.

One client: the next job starts when the previous one returns.  Each job is
timed from the call into ``cli.main`` to its return; its exit code and JSON
report are checked afterwards, outside the timed interval.  A pass runs a
document set's whole job list; passes cycle over the document sets, and each
set is scrambled separately, so a later pass never repeats the prime-field
inputs of the one before it.

The number of passes is the time budget divided by the workload's nominal
pass time, the pass time measured when the benchmark was defined.  Every run
with the same budget therefore does the same work, whatever the speed of a
shared machine at the moment, and a faster program simply finishes sooner.
Untraced passes and set-ups run under a ``SpeedProbe``, and their times are
reported normalized to the machine's nominal speed (see ``speed.py``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import time
import traceback
from statistics import median

from rbsys import cli

from . import workloads
from .speed import SpeedProbe
from .stats import BACKENDS, backend_of_field, tail_percentile
from .tracer import Tracer, layer_metrics

SETS = 5
NOMINAL_PASS_S = {"rank_ladder": 30.0, "les_sweep": 10.0, "deform_extend": 10.0}

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected.json")

# report fields that depend on the scramble; only their size is checked
# against the recording, the content is checked by the rules in check_job
SCRAMBLE_DEPENDENT = ("coordinates", "gauge", "stuck_class")


def invariant(report):
    """The part of a report that no scramble can change."""
    out = {}
    for key, value in report.items():
        if key in SCRAMBLE_DEPENDENT:
            out[f"{key}_len"] = len(value)
        elif key == "document":
            out["document_kind"] = value.get("kind")
        else:
            out[key] = value
    return out


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_job(job):
    """(exit code, stdout, start, end) of one in-process rbs invocation;
    start and end are perf_counter readings."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    except Exception:  # a traceback is a failed job, not a failed run
        code = "exception: " + traceback.format_exc(limit=3)
    return code, buf.getvalue(), start, time.perf_counter()


def check_job(job, code, out, expected):
    """None when the job behaved as recorded, else the reason it did not."""
    if not isinstance(code, int):
        return f"{job.key}: {code}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return f"{job.key}: report is not JSON"
    want = expected.get(job.key)
    if want is None:
        return f"{job.key}: no recorded expectation"
    if code != want["exit"]:
        return f"{job.key}: exit {code}, expected {want['exit']}"
    if invariant(report) != want["report"]:
        return f"{job.key}: report differs from the recording"
    cmd = job.command
    if cmd == "les" and report.get("ok") is not True:
        return f"{job.key}: les not ok"
    if cmd == "deform rigidify" and report.get("success") is not True:
        return f"{job.key}: rigidify did not succeed"
    if cmd == "extend build":
        with open(job.argv[job.argv.index("-o") + 1], encoding="utf-8") as fh:
            if json.load(fh) != report.get("document"):
                return f"{job.key}: written extension differs from the report"
    if cmd == "extend extract":
        got = report.get("document", {})
        if any(got.get(k) != job.cocycle[k] for k in ("Psi", "chiR", "chiS")):
            return f"{job.key}: extracted cocycle differs from the one built"
    return None


class Run:
    """Set-up, timed passes and metrics of one workload in one process."""

    def __init__(self, workload, seed, root, import_times):
        self.workload = workload
        self.seed = seed
        self.workdir = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")
        self.expected = load_expected()["workloads"][workload]
        self.import_times = import_times
        self.sets = []
        self.setup_times = []
        self.setup_wall_times = []
        self.probes = []
        self.failures = []
        self.attempted = 0

    def setup(self):
        spans = []
        with SpeedProbe() as probe:
            for k in range(SETS):
                start = time.perf_counter()
                setdir = os.path.join(self.workdir, f"set{k}")
                jobs = workloads.make_jobs(self.workload, self.seed, k, setdir)
                warm = workloads.warmup_job(setdir)
                code, _out, _start, _end = run_job(warm)
                if code != 0:
                    self.failures.append(f"warm-up job of set {k}: {code!r}")
                spans.append((start, time.perf_counter()))
                self.sets.append(jobs)
        self.setup_times = [probe.normalize(a, b) for a, b in spans]
        self.setup_wall_times = [b - a for a, b in spans]

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.workdir))

    def passes(self, budget, tracer=None):
        """Run the budget's number of whole passes (at least one).

        Untraced, a SpeedProbe runs throughout, and each record carries the
        job's normalized seconds and its wall seconds; traced, both are the
        wall seconds (the probe's interruptions would land in the spans).
        """
        done = []
        probe = SpeedProbe() if tracer is None else None
        with probe or contextlib.nullcontext():
            for index in range(max(1, int(budget // NOMINAL_PASS_S[self.workload]))):
                set_index = index % len(self.sets)
                records = []
                for job in self.sets[set_index]:
                    gc.collect()
                    if tracer is not None:
                        tracer.job = f"{index}:{job.key}"
                    code, out, start, end = run_job(job)
                    self.attempted += 1
                    reason = check_job(job, code, out, self.expected)
                    if reason is not None:
                        self.failures.append(reason)
                    records.append((set_index, job, code, out, start, end))
                done.append(records)
        if probe is not None:
            self.probes.append(probe.summary())
        return [
            [
                (s, job, code, out, probe.normalize(a, b) if probe else b - a, b - a)
                for s, job, code, out, a, b in records
            ]
            for records in done
        ]

    def end_to_end(self, passes):
        """A job's latency is the median of its normalized times over the
        passes (see speed.py); wall times sum these latencies over the job
        list, and percentiles are taken over them."""
        per_job, walls, raw_walls = {}, [], []
        for records in passes:
            walls.append(sum(r[4] for r in records))
            raw_walls.append(sum(r[5] for r in records))
            for _set, job, _code, _out, seconds, _raw in records:
                per_job.setdefault(job.key, (job, []))[1].append(seconds)
        sums = dict.fromkeys(BACKENDS, 0.0)
        latencies = []
        for job, times in per_job.values():
            sums[backend_of_field(job.field)] += median(times)
            latencies.append(median(times))
        pct, tail = tail_percentile(latencies)
        metrics = {
            "wall_s": (sum(sums.values()), "s"),
            "wall_qq_s": (sums["qq"], "s"),
            "wall_gf_small_s": (sums["gf_small"], "s"),
            "wall_gf_large_s": (sums["gf_large"], "s"),
            "job_p50_ms": (median(latencies) * 1000, "ms"),
            "job_p90_ms": (tail * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (median([t[0] for t in self.import_times]) + median(self.setup_times), "s"),
        }
        samples = {
            "passes": len(passes),
            "jobs_per_pass": [len(r) for r in passes],
            "pass_walls_s": walls,
            "pass_raw_walls_s": raw_walls,
            "speed_probes": self.probes,
            "jobs": len(latencies),
            "job_p90_percentile": pct,
            "job_p90_samples_beyond": sum(1 for x in latencies if x > tail),
            "setup_samples": len(self.setup_times),
            "setup_times_s": self.setup_times,
            "setup_wall_times_s": self.setup_wall_times,
            "import_times_s": self.import_times,
        }
        return metrics, samples

    def traced(self, seconds, trace_path=None):
        """Untraced passes, then the same document sets traced.

        Per-layer figures are per traced pass; the traced pass reports must
        equal the untraced ones job for job.
        """
        plain = self.passes(seconds / 2)
        tracer = Tracer()
        with tracer:
            traced = self.passes(seconds / 2, tracer)
        reports = {(s, job.key): (c, o) for r in plain for s, job, c, o, *_ in r}
        compared = 0
        for records in traced:
            for set_index, job, code, out, _seconds, _raw in records:
                base = reports.get((set_index, job.key))
                if base is None:
                    continue
                compared += 1
                if base != (code, out):
                    self.failures.append(f"{job.key}: traced report differs from the untraced one")
        per_layer = layer_metrics(tracer, len(traced))
        plain_walls = [sum(r[5] for r in p) for p in plain]
        traced_walls = [sum(r[5] for r in p) for p in traced]
        per_layer["trace.overhead_s"] = (median(traced_walls) - median(plain_walls), "s")
        if trace_path:
            tracer.dump(trace_path)
        samples = {
            "untraced_pass_walls_s": plain_walls,
            "traced_pass_walls_s": traced_walls,
            "traced_jobs_compared": compared,
            "spans": len(tracer.spans),
        }
        return per_layer, samples
