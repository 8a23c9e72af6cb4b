#!/usr/bin/env python3
"""The rbsys benchmark: closed-loop workloads of ``rbs`` jobs, run in process.

    python3 bench/run.py --workload rank_ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 20     # every workload
    python3 bench/run.py --record                        # re-record expected.json

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the last line of
standard output is one JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The line
before it records the machine, the source, the seed and the sample counts.
Jobs run in process because interpreter start-up and ``import rbsys`` cost
more than a small job; import time is part of ``setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rank_ladder", "les_sweep", "deform_extend")

# pinned before numpy can be imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RBS_DIM_CAP", None)


def _source_info():
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rbsys").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def _machine_info():
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


IMPORTS = 3
# the speed probe imports nothing that rbsys would import (see rbsbench/speed.py)
_TIME_IMPORT = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; from rbsbench.speed import SpeedProbe\n"
    "with SpeedProbe() as probe:\n"
    "    t = time.perf_counter(); import rbsys.cli; e = time.perf_counter()\n"
    "print(probe.normalize(t, e), e - t)"
)


def _import_package():
    """Import rbsys from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "rbsys" / "__init__.py").is_file():
        print(f"error: no rbsys package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import rbsys
    import rbsys.cli  # noqa: F401

    if Path(rbsys.__file__).resolve().parent != (src / "rbsys").resolve():
        print(f"error: rbsys was imported from {rbsys.__file__}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "bench"))


def _import_times():
    """(normalized, wall) seconds to import rbsys.cli in a fresh
    interpreter, several times: the import cost a user pays once per
    command."""
    times = []
    for _ in range(IMPORTS):
        proc = subprocess.run(
            [sys.executable, "-c", _TIME_IMPORT, str(ROOT / "src"), str(ROOT / "bench")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(tuple(float(x) for x in proc.stdout.split()))
    return times


def run_one(workload, seed, seconds, trace):
    _import_package()
    from rbsbench.harness import Run

    run = Run(workload, seed, str(ROOT), _import_times())
    try:
        run.setup()
        if trace:
            outdir = ROOT / ".bench_out"
            outdir.mkdir(exist_ok=True)
            metrics, samples = run.traced(seconds, str(outdir / f"trace-{workload}-seed{seed}.jsonl.gz"))
        else:
            metrics, samples = run.end_to_end(run.passes(seconds))
    finally:
        run.cleanup()
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "clients": 1,
        "loop": "closed",
        **_source_info(),
        **_machine_info(),
        "samples": samples,
        "jobs_attempted": run.attempted,
        "jobs_failed": len(run.failures),
        "failed_frac": len(run.failures) / max(run.attempted, 1),
        "failures": run.failures[:20],
    }
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]]
    info["other_metrics"] = {name: value for name, (value, _unit) in metrics.items() if name not in declared}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in declared},
    }
    return info, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true", help="re-record expected.json (seed 0)")
    args = parser.parse_args(argv)

    if args.record:
        _import_package()
        from rbsbench.record import record

        record(str(ROOT), log=lambda line: print(line, flush=True))
        return 0
    if args.all:  # each workload in a fresh interpreter, as in a single-workload run
        for workload in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:32s} {metric['value']:14.6f} {metric['unit']}")
        return 0
    if args.workload is None:
        parser.error("--workload, --all or --record is required")
    info, result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
