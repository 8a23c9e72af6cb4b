"""Unit tests for the benchmark's own code (not for rbsys itself)."""

from __future__ import annotations

import math
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import rbsys  # noqa: E402
from rbsys import GF, Matrix, cli, cohomology, deformation, linalg  # noqa: E402
from rbsbench import harness, speed, stats, workloads  # noqa: E402
from rbsbench.tracer import Tracer, layer_metrics, layer_of  # noqa: E402


# -- percentile rule -----------------------------------------------------------


def test_p90_when_ten_samples_lie_beyond_it():
    xs = list(range(1, 101))
    assert stats.tail_percentile(xs) == (90, 90)
    assert sum(1 for x in xs if x > 90) == 10


def test_percentile_drops_until_ten_samples_lie_beyond_it():
    xs = list(range(1, 49))
    pct, value = stats.tail_percentile(xs)
    assert pct == 79
    assert sum(1 for x in xs if x > value) == 10
    # the next percentile up, p80, is rank 39 of 48: only nine beyond it
    assert 48 - math.ceil(0.80 * 48) == 9


def test_percentile_never_below_the_median():
    assert stats.tail_percentile(range(1, 21)) == (50, 10)
    assert stats.tail_percentile([5.0, 1.0, 3.0]) == (50, 3.0)


# -- self time -----------------------------------------------------------------


def _tracer_with(spans):
    tracer = Tracer()
    tracer.names = [name for name, *_ in spans]
    tracer.spans = [[i, start, end, parent, "job"] for i, (_n, start, end, parent) in enumerate(spans)]
    return tracer


def test_self_time_subtracts_nested_and_sibling_children():
    tracer = _tracer_with(
        [
            ("cli.main", 0.0, 10.0, -1),
            ("cohomology.betti", 1.0, 4.0, 0),  # child of main
            ("linalg.Matrix.rank", 2.0, 3.0, 1),  # grandchild, nested in betti
            ("cohomology.phi", 5.0, 7.0, 0),  # sibling of betti
        ]
    )
    assert tracer.self_times() == [5.0, 2.0, 1.0, 2.0]


def test_layer_metrics_charge_self_time_to_layers():
    tracer = _tracer_with(
        [
            ("cli.main", 0.0, 10.0, -1),
            ("cohomology.betti", 1.0, 4.0, 0),
            ("linalg.Matrix.rank", 2.0, 3.0, 1),
            ("cohomology.phi", 5.0, 7.0, 0),
        ]
    )
    tracer.notes = {2: ("gf_small",), 3: (1, (4, 2))}
    metrics = layer_metrics(tracer, passes=1)
    assert metrics["cli.self_s"][0] == 5.0
    assert metrics["cohomology.analysis_s"][0] == 2.0
    assert metrics["linalg.elim_gf_small_s"][0] == 1.0
    assert metrics["cohomology.assembly_s"][0] == 2.0
    assert metrics["cohomology.slice_builds"][0] == 1


def test_layers_are_named_after_modules():
    assert layer_of("linalg._rref_array") == "linalg.elim"
    assert layer_of("linalg.Matrix.kron") == "linalg.product"
    assert layer_of("documents.parse_system") == "documents.parse"
    assert layer_of("documents.dump") == "documents.serialize"
    assert layer_of("deformation.rigidify") == "deformation"


# -- tracer patching -----------------------------------------------------------


def _bindings():
    return {
        "cli.betti": cli.betti,
        "cli.les_check": cli.les_check,
        "cli.rigidify": cli.rigidify,
        "cohomology.betti": cohomology.betti,
        "rbsys.betti": rbsys.betti,
        "deformation.phi": deformation.phi,
        "deformation.hochschild_slice": deformation.hochschild_slice,
        "cohomology.phi": cohomology.phi,
        "linalg._rref_array": linalg._rref_array,
        "Matrix.rank": Matrix.__dict__["rank"],
        "Matrix.__matmul__": Matrix.__dict__["__matmul__"],
    }


def test_tracer_patches_every_binding_and_restores_the_originals():
    before = _bindings()
    with Tracer() as tracer:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        # one wrapper per function, whichever module the name is read from
        assert during["cli.betti"] is during["cohomology.betti"] is during["rbsys.betti"]
        assert during["deformation.phi"] is during["cohomology.phi"]
        tracer.job = "j"
        rank = Matrix.from_rows(GF(5), [[1, 2], [2, 4]]).rank()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert rank == 1
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names == ["linalg.Matrix.rank", "linalg.Matrix.rref", "linalg._rref_array"]
    assert all(s[4] == "j" for s in tracer.spans)


def test_traced_job_reports_equal_untraced_ones(tmp_path):
    job = workloads.warmup_job(str(tmp_path))
    plain = harness.run_job(job)
    with Tracer() as tracer:
        traced = harness.run_job(job)
    assert plain[0] == traced[0] == 0
    assert plain[1] == traced[1]
    assert tracer.spans


# -- speed normalization -------------------------------------------------------


def _probe_with(samples):
    probe = speed.SpeedProbe()
    probe.starts = [start for start, _ in samples]
    probe.durations = [seconds for _, seconds in samples]
    return probe


def test_normalize_scales_by_the_probe_time_and_leaves_probes_out():
    nominal = speed.NOMINAL_PROBE_S
    # the machine at half speed throughout: probes take twice the nominal time
    probe = _probe_with([(float(t), 2 * nominal) for t in range(10)])
    assert math.isclose(probe.normalize(0.5, 0.9), 0.2)
    # [2.5, 4.5) holds the probes at 3 and 4; their time is not the job's
    expected = (2.0 - 2 * 2 * nominal) / 2
    assert math.isclose(probe.normalize(2.5, 4.5), expected)


def test_normalize_follows_a_change_of_speed():
    nominal = speed.NOMINAL_PROBE_S
    samples = [(float(t), nominal if t < 10 else 3 * nominal) for t in range(20)]
    probe = _probe_with(samples)
    assert math.isclose(probe.normalize(2.2, 2.7), 0.5)
    assert math.isclose(probe.normalize(15.2, 15.8), 0.2)
    # one disturbed probe is outvoted by its neighbours
    samples[5] = (5.0, 10 * nominal)
    assert math.isclose(_probe_with(samples).normalize(4.7, 4.9), 0.2)


def test_probe_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(period=0.01) as probe:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.starts) == len(probe.durations) >= 3
    assert probe.normalize(probe.starts[0], probe.starts[-1]) > 0


# -- backend classification ----------------------------------------------------


def test_backend_classification():
    assert stats.backend_of_field("Q") == "qq"
    assert stats.backend_of_field({"Fp": 2}) == "gf_small"
    assert stats.backend_of_field({"Fp": 32749}) == "gf_small"  # largest prime below 2^15
    assert stats.backend_of_field({"Fp": 32771}) == "gf_large"  # smallest prime above 2^15
    assert stats.backend_of_field({"Fp": 40009}) == "gf_large"


def test_backend_split_ignores_the_package_int64_limit(monkeypatch):
    monkeypatch.setattr(linalg, "_INT64_PRIME_LIMIT", 1 << 31)
    assert stats.backend_of_prime(40009) == "gf_large"
    assert stats.backend_of_prime(None) == "qq"
