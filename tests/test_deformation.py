import random
from fractions import Fraction

import pytest

from rbsys import (
    GF,
    QQ,
    Algebra,
    Complexes,
    DeformationData,
    GaugeSeries,
    Matrix,
    MultiMap,
    RBS,
    RBSO,
    RotaBaxterSystem,
    apply_gauge,
    compose_gauges,
    constant_deformation,
    gauge_inverse,
    hstack,
    identity_gauge,
    infinitesimal,
    multimap_vector,
    regular_bimodule,
    rigidify,
    verify_deformation,
    vstack,
    zero_algebra,
)

from instances import (
    f2_zero_instance,
    instance_set,
    line_system,
    operator_deformation,
    random_gauge,
    random_matrix,
    triangular_system,
)
from oracles import (
    series,
    series_apply_gauge,
    series_gauge_inverse,
    series_operator_residuals,
    series_residuals,
    slice_of,
)
from spies import count_calls


def _random_order1_kernel_deformation(sys, rng):
    """Sample the order-t coefficient from the degree-2 cocycle space."""
    mod = regular_bimodule(sys)
    kernel = slice_of(Complexes(sys, mod), RBS, 2).kernel_basis()
    if kernel.cols == 0:
        return None
    coeffs = random_matrix(sys.field, kernel.cols, 1, rng)
    vec = kernel @ coeffs
    d = sys.dim
    fa = d * d * d
    mu1 = Matrix(sys.field, vec.take_rows(0, fa).a.reshape(d, d * d).copy())
    r1 = Matrix(sys.field, vec.take_rows(fa, fa + d * d).a.reshape(d, d).copy())
    s1 = Matrix(sys.field, vec.take_rows(fa + d * d, fa + 2 * d * d).a.reshape(d, d).copy())
    return DeformationData(1, [sys.alg.mult_matrix(), mu1], [sys.R, r1], [sys.S, s1])


def test_constant_deformation_verifies():
    for sys, _ in instance_set(6, seed=301):
        for order in (0, 1, 3):
            assert verify_deformation(sys, constant_deformation(sys, order)).ok


def test_zero_structure_order1_always_valid():
    rng = random.Random(1)
    field = GF(2)
    z = Matrix.zeros(field, 2, 2)
    sys = RotaBaxterSystem(zero_algebra(field, 2), z, z)
    for _ in range(5):
        defn = DeformationData(
            1,
            [sys.alg.mult_matrix(), random_matrix(field, 2, 4, rng)],
            [sys.R, random_matrix(field, 2, 2, rng)],
            [sys.S, random_matrix(field, 2, 2, rng)],
        )
        assert verify_deformation(sys, defn).ok


def test_nonassociative_square_fails_at_order_two():
    # mu1 with a non-associative square on a zero-multiplication algebra:
    # the order-2 residual is mu1(mu1 x Id) - mu1(Id x mu1) != 0
    field = QQ
    z = Matrix.zeros(field, 2, 2)
    sys = RotaBaxterSystem(zero_algebra(field, 2), z, z)
    bad = Algebra(field, 2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])  # e0e0=e1, e1e0=e0
    mu1 = bad.mult_matrix()
    zero_mu = Matrix.zeros(field, 2, 4)
    defn = DeformationData(2, [sys.alg.mult_matrix(), mu1, zero_mu], [sys.R, z, z], [sys.S, z, z])
    report = verify_deformation(sys, defn)
    assert report.ok_through(1)
    assert not report.ok
    assert report.first_failure() == 2


def test_normalisation_enforced():
    sys = line_system(QQ, 1, 0)
    one = Matrix.identity(QQ, 1)
    bad = DeformationData(1, [one.scale(2) @ sys.alg.mult_matrix(), Matrix.zeros(QQ, 1, 1)],
                          [sys.R, Matrix.zeros(QQ, 1, 1)], [sys.S, Matrix.zeros(QQ, 1, 1)])
    with pytest.raises(ValueError):
        verify_deformation(sys, bad)


def test_coefficients_of_a_family_share_one_shape():
    # a family is stored as one stacked matrix, so a coefficient of another
    # width would shift every later order
    sys = line_system(QQ, 1, 0)
    z = Matrix.zeros(QQ, 1, 1)
    with pytest.raises(ValueError, match="share one shape"):
        DeformationData(1, [sys.alg.mult_matrix(), z], [sys.R, Matrix.zeros(QQ, 1, 2)], [sys.S, z])
    with pytest.raises(ValueError, match="share one shape"):
        GaugeSeries(1, [Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 2)])


def test_infinitesimal_examples():
    sys = triangular_system(QQ, 1, 1)
    cochain = infinitesimal(sys, constant_deformation(sys, 2))
    assert Complexes(sys, regular_bimodule(sys)).is_cocycle(cochain) and cochain.vector.is_zero()

    rng = random.Random(2)
    field = GF(5)
    z = Matrix.zeros(field, 2, 2)
    zsys = RotaBaxterSystem(zero_algebra(field, 2), z, z)
    defn = DeformationData(
        1,
        [zsys.alg.mult_matrix(), random_matrix(field, 2, 4, rng)],
        [zsys.R, random_matrix(field, 2, 2, rng)],
        [zsys.S, random_matrix(field, 2, 2, rng)],
    )
    assert Complexes(zsys, regular_bimodule(zsys)).is_cocycle(infinitesimal(zsys, defn))


def test_infinitesimal_random_kernel_samples():
    rng = random.Random(3)
    count = 0
    for sys, _ in instance_set(10, seed=331):
        defn = _random_order1_kernel_deformation(sys, rng)
        if defn is None:
            continue
        assert verify_deformation(sys, defn).ok_through(1)
        assert Complexes(sys, regular_bimodule(sys)).is_cocycle(infinitesimal(sys, defn))
        count += 1
    assert count >= 5


def test_gauge_inverse_examples():
    field = QQ
    g = identity_gauge(field, 2, 3)
    assert gauge_inverse(g) == g

    rng = random.Random(4)
    psi1 = random_matrix(field, 2, 2, rng)
    zero = Matrix.zeros(field, 2, 2)
    g = GaugeSeries(3, [Matrix.identity(field, 2), -psi1, zero, zero])
    inv = gauge_inverse(g)
    # geometric series: Id + psi1 t + psi1^2 t^2 + psi1^3 t^3
    assert inv.psis[1] == psi1
    assert inv.psis[2] == psi1 @ psi1
    assert inv.psis[3] == psi1 @ psi1 @ psi1
    assert compose_gauges(g, inv) == identity_gauge(field, 2, 3)
    assert compose_gauges(inv, g) == identity_gauge(field, 2, 3)


def test_apply_gauge_identity_and_order1_formula():
    rng = random.Random(5)
    sys = triangular_system(QQ, 1, 2)
    defn = constant_deformation(sys, 2)
    assert apply_gauge(defn, identity_gauge(QQ, 3, 2)) == defn

    g = random_gauge(sys, 2, rng)
    out = apply_gauge(defn, g)
    psi1 = g.psis[1]
    # R'_1 = R_1 + R psi1 - psi1 R (with R_1 = 0 here)
    assert out.Rs[1] == sys.R @ psi1 - psi1 @ sys.R
    assert out.Ss[1] == sys.S @ psi1 - psi1 @ sys.S


def test_apply_gauge_congruence():
    rng = random.Random(6)
    for sys, _ in instance_set(4, seed=361):
        defn = constant_deformation(sys, 3)
        g = random_gauge(sys, 3, rng)
        h = random_gauge(sys, 3, rng)
        assert apply_gauge(apply_gauge(defn, g), h) == apply_gauge(defn, compose_gauges(g, h))


def test_gauged_deformation_verifies_and_infinitesimals_cohomologous():
    rng = random.Random(7)
    for sys, _ in instance_set(6, seed=391):
        mod = regular_bimodule(sys)
        cx = Complexes(sys, mod)
        defn = _random_order1_kernel_deformation(sys, rng)
        if defn is None:
            defn = constant_deformation(sys, 1)
        g = random_gauge(sys, 1, rng)
        gauged = apply_gauge(defn, g)
        assert verify_deformation(sys, gauged).ok_through(1)
        c1, c2 = infinitesimal(sys, defn), infinitesimal(sys, gauged)
        assert cx.is_cocycle(c1) and cx.is_cocycle(c2)
        diff = c1 - c2
        pre = cx.coboundary_preimage(diff)
        assert pre is not None
        assert slice_of(cx, RBS, 1) @ pre.vector == diff.vector


def test_trivialize_step_examples():
    # one gauge step of rigidify (_gauge_step) on verified deformations
    from rbsys.deformation import _gauge_step

    sys = triangular_system(QQ, 2, 1)
    cx = Complexes(sys, regular_bimodule(sys))
    const = constant_deformation(sys, 2)
    step = _gauge_step(cx, const, 0)
    assert step is not None
    gauge, out = step
    assert gauge == identity_gauge(QQ, 3, 2)
    assert out == const

    # coefficient built as d1 of a gauge shape is killed exactly
    rng = random.Random(8)
    mod = regular_bimodule(sys)
    psi = random_matrix(QQ, 3, 3, rng)
    vec = slice_of(Complexes(sys, mod), RBS, 1) @ vstack(
        [
            multimap_vector(MultiMap(sys.alg, 1, psi)),
            Matrix.zeros(QQ, 3, 1),
            Matrix.zeros(QQ, 3, 1),
        ]
    )
    d = 3
    fa = d**3
    mu1 = Matrix(QQ, vec.take_rows(0, fa).a.reshape(d, d * d).copy())
    r1 = Matrix(QQ, vec.take_rows(fa, fa + d * d).a.reshape(d, d).copy())
    s1 = Matrix(QQ, vec.take_rows(fa + d * d, fa + 2 * d * d).a.reshape(d, d).copy())
    defn = DeformationData(1, [sys.alg.mult_matrix(), mu1], [sys.R, r1], [sys.S, s1])
    assert verify_deformation(sys, defn).ok
    step = _gauge_step(cx, defn, 0)
    assert step is not None
    gauge, out = step
    assert out.coefficients_vanish(1, 1)
    # rigidify, the checked entry point, takes the same single step
    report = rigidify(sys, defn)
    assert report.success and report.gauge == gauge and report.result == out


def test_trivialize_step_stuck_on_zero_structure():
    from rbsys.deformation import _gauge_step

    sys, _ = f2_zero_instance()
    field = sys.field
    one = Matrix.identity(field, 1)
    defn = DeformationData(
        1, [sys.alg.mult_matrix(), one], [sys.R, Matrix.zeros(field, 1, 1)],
        [sys.S, Matrix.zeros(field, 1, 1)],
    )
    assert verify_deformation(sys, defn).ok
    assert _gauge_step(Complexes(sys, regular_bimodule(sys)), defn, 0) is None
    report = rigidify(sys, defn)
    assert not report.success and report.stuck_order == 1


def test_rigidify_round_trip_random():
    rng = random.Random(9)
    for sys, _ in instance_set(6, seed=421):
        for order in (2, 3):
            g = random_gauge(sys, order, rng)
            defn = apply_gauge(constant_deformation(sys, order), g)
            report = rigidify(sys, defn)
            assert report.success
            final = apply_gauge(defn, report.gauge)
            assert final.coefficients_vanish(1, order)


def test_rigidify_stuck_report():
    sys, _ = f2_zero_instance()
    field = sys.field
    one = Matrix.identity(field, 1)
    z = Matrix.zeros(field, 1, 1)
    defn = DeformationData(2, [sys.alg.mult_matrix(), one, z], [sys.R, z, z], [sys.S, z, z])
    report = rigidify(sys, defn)
    assert not report.success
    assert report.stuck_order == 1
    assert not report.stuck_class.vector.is_zero()


def test_operator_deformation_examples():
    # an operator deformation is a deformation whose mu series is constant
    sys = triangular_system(QQ, 1, 1)
    zero = Matrix.zeros(QQ, 3, 3)
    od = operator_deformation(sys, [sys.R, zero, zero], [sys.S, zero, zero])
    assert od == constant_deformation(sys, 2)
    assert verify_deformation(sys, od).ok

    rng = random.Random(10)
    field = GF(5)
    zsys = RotaBaxterSystem(
        zero_algebra(field, 2), random_matrix(field, 2, 2, rng), random_matrix(field, 2, 2, rng)
    )
    od = operator_deformation(
        zsys,
        [zsys.R] + [random_matrix(field, 2, 2, rng) for _ in range(2)],
        [zsys.S] + [random_matrix(field, 2, 2, rng) for _ in range(2)],
    )
    assert verify_deformation(zsys, od).ok

    # order-0 residual of the verifier agrees with the axiom residual
    bad_sys = line_system(QQ, 1, 1)
    od0 = operator_deformation(bad_sys, [bad_sys.R], [bad_sys.S])
    assert not verify_deformation(bad_sys, od0).ok


def test_operator_infinitesimal_random():
    # (R_1, S_1) in ker partial_1 gives a valid order-1 deformation whose
    # infinitesimal is the total 2-cocycle (0, (R_1, S_1))
    from rbsys.cohomology import Cochain

    rng = random.Random(11)
    checked = 0
    for sys, _ in instance_set(10, seed=451):
        mod = regular_bimodule(sys)
        kernel = slice_of(Complexes(sys, mod), RBSO, 1).kernel_basis()
        if kernel.cols == 0:
            continue
        vec = kernel @ random_matrix(sys.field, kernel.cols, 1, rng)
        d = sys.dim
        r1 = Matrix(sys.field, vec.take_rows(0, d * d).a.reshape(d, d).copy())
        s1 = Matrix(sys.field, vec.take_rows(d * d, 2 * d * d).a.reshape(d, d).copy())
        od = operator_deformation(sys, [sys.R, r1], [sys.S, s1])
        assert verify_deformation(sys, od).ok_through(1)
        cochain = infinitesimal(sys, od)
        assert Complexes(sys, mod).is_cocycle(cochain)
        assert cochain.vector == vstack([Matrix.zeros(sys.field, d**3, 1), vec])
        assert Complexes(sys, mod).is_cocycle(Cochain(RBSO, 1, vec))
        checked += 1
    assert checked >= 5


def test_operator_infinitesimal_guard():
    sys = triangular_system(QQ, 1, 1)
    one = Matrix.identity(QQ, 3)
    od = operator_deformation(sys, [sys.R, one], [sys.S, one])
    if not verify_deformation(sys, od).ok_through(1):
        with pytest.raises(ValueError):
            infinitesimal(sys, od)


def test_order0_residuals_match_axioms():
    # a non-system pair: residuals at order 0 are exactly the axiom defects
    sys_bad = line_system(QQ, 1, 1)
    defn = constant_deformation(sys_bad, 0)
    report = verify_deformation(sys_bad, defn)
    assert not report.ok
    assert report.first_failure() == 0


def _stuck_after_one_step(sys):
    """An order-2 deformation whose order-1 coefficient a gauge step kills
    and whose order-2 coefficient is then a nonzero class: an H^2 class of
    the census at order 2, carried along a gauge Id + Psi_1 t."""
    from rbsys import h2_extension_census

    field, d = sys.field, sys.dim
    c = h2_extension_census(sys, regular_bimodule(sys))[1][0]
    zmu, zop = Matrix.zeros(field, d, d * d), Matrix.zeros(field, d, d)
    defn = DeformationData(
        2,
        [sys.alg.mult_matrix(), zmu, c.psi.mat],
        [sys.R, zop, c.chi_r.mat],
        [sys.S, zop, c.chi_s.mat],
    )
    psi = random_matrix(field, d, d, random.Random(4))
    return apply_gauge(defn, GaugeSeries(2, [Matrix.identity(field, d), psi, zop]))


def test_rigidify_checks_each_object_once(monkeypatch):
    # one system check per distinct system object; the input and the
    # deformation returned are verified once each, and none in between (a
    # gauge keeps a deformation valid): over a three-step rigidification,
    # and over one stuck after a step
    from collections import Counter

    from rbsys import bimodules, deformation, systems

    system_checks = Counter()
    verified = Counter()
    check_rbs, verify = systems.check_rbs, deformation.verify_deformation

    def counting_check(sys):
        system_checks[id(sys)] += 1
        return check_rbs(sys)

    def counting_verify(sys, defn):
        verified[id(defn)] += 1
        return verify(sys, defn)

    for module in (systems, bimodules):
        monkeypatch.setattr(module, "check_rbs", counting_check)
    monkeypatch.setattr(deformation, "verify_deformation", counting_verify)
    sys = triangular_system(GF(5), 1, 2)
    defn = apply_gauge(constant_deformation(sys, 3), random_gauge(sys, 3, random.Random(3)))
    report = rigidify(sys, defn)
    assert report.success
    assert set(system_checks.values()) == {1}
    assert verified == Counter({id(defn): 1, id(report.result): 1})

    stuck = _stuck_after_one_step(sys)
    verified.clear()
    report = rigidify(sys, stuck)
    assert not report.success and report.stuck_order == 2 and report.result is not stuck
    assert verified == Counter({id(stuck): 1, id(report.result): 1})


def test_rigidify_verifies_the_deformation_it_returns(monkeypatch):
    # a gauge step that breaks the deformation is a bug, caught in the
    # result: on success and when stuck
    from rbsys import deformation

    step = deformation._gauge_step

    def breaking_step(cx, defn, n):
        out = step(cx, defn, n)
        if out is None:
            return None
        gauge, transformed = out
        # one more unit in the last entry of the top-order mu
        mu, R, S = transformed.series
        bump = Matrix.from_rows(mu.field, [[0] * (mu.cols - 1) + [int(i == 0)] for i in range(mu.rows)])
        return gauge, DeformationData.from_series(transformed.order, mu + bump, R, S)

    monkeypatch.setattr(deformation, "_gauge_step", breaking_step)
    sys = triangular_system(GF(5), 1, 2)
    defn = apply_gauge(constant_deformation(sys, 2), random_gauge(sys, 2, random.Random(3)))
    for case in (defn, _stuck_after_one_step(sys)):
        with pytest.raises(AssertionError, match="fails its equations"):
            rigidify(sys, case)


def test_rigidify_builds_only_the_first_block_column(monkeypatch):
    # a gauge step reads [delta_1; -phi_1] alone: the leading coefficient of
    # a verified deformation is a cocycle, so no block of rbs_2, no D(M)
    # and no application of a differential
    from rbsys import cohomology

    names = ("hochschild_slice", "phi", "_d_module_unchecked")
    calls = count_calls(monkeypatch, cohomology, names)
    count_calls(monkeypatch, Complexes, ["apply"], calls)
    sys = triangular_system(GF(5), 1, 2)
    defn = apply_gauge(constant_deformation(sys, 3), random_gauge(sys, 3, random.Random(3)))
    assert rigidify(sys, defn).success
    assert [calls[name] for name in names + ("apply",)] == [1, 1, 0, 0]


def test_every_gauge_step_target_is_a_cocycle(monkeypatch):
    # the cocycle test that _gauge_step no longer runs: every target it is
    # given, the order n + 1 coefficient of a verified deformation whose
    # orders 1..n vanish, is a 2-cocycle of the total complex
    from rbsys import deformation

    step, targets = deformation._gauge_step, []

    def checked_step(cx, defn, n):
        target = deformation._order_cochain(cx.sys, defn, n + 1)
        assert Complexes(cx.sys, regular_bimodule(cx.sys)).is_cocycle(target)
        targets.append(target)
        return step(cx, defn, n)

    monkeypatch.setattr(deformation, "_gauge_step", checked_step)
    rng = random.Random(9)
    systems = [sys for sys, _ in instance_set(6, seed=421)] + [triangular_system(QQ, 2, 1)]
    for sys in systems:
        for order in (2, 3):
            defn = apply_gauge(constant_deformation(sys, order), random_gauge(sys, order, rng))
            assert rigidify(sys, defn).success
    assert len(targets) >= 2 * len(systems)


SERIES_FIELDS = [QQ, GF(2), GF(5), GF(40009), GF(2**31 - 1)]


def _scalar(field, rng):
    """Small rationals, with one entry in four a numerator past 2^62 (the
    object path); residues near p over the large primes, where one product
    of two is near 2^62 and a sum of two unreduced ones wraps int64."""
    if field.p is None:
        if rng.random() < 0.25:
            return Fraction(rng.choice([-1, 1]) * (2**62 + rng.randrange(2**64)), rng.randrange(1, 7))
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    if field.p > 1000 and rng.random() < 0.75:
        return field.p - 1 - rng.randrange(3)
    return rng.randrange(field.p)


def _matrix(field, rows, cols, rng):
    return Matrix.from_rows(field, [[_scalar(field, rng) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("field", SERIES_FIELDS, ids=repr)
def test_stacked_cauchy_products_match_the_per_order_series(field):
    from rbsys.deformation import _cauchy, _kron_factors, _split

    rng = random.Random(12)
    d = 2
    for count in range(1, 6):
        for shorter in sorted({1, count}):
            # r x k blocks times k x s blocks, a with only `shorter` coefficients
            a = [_matrix(field, 2, 3, rng) for _ in range(shorter)]
            b = [_matrix(field, 3, 4, rng) for _ in range(count)]
            got = _cauchy(hstack(a), hstack(b), count)
            assert _split(got, count) == series(a, b)
            # Kronecker: square d x d blocks a_i, d x q blocks b_j
            a = [_matrix(field, d, d, rng) for _ in range(shorter)]
            b = [_matrix(field, d, 3, rng) for _ in range(count)]
            a_id, _ = _kron_factors(hstack(a), shorter)
            _, id_b = _kron_factors(hstack(b), count)
            got = _cauchy(a_id, id_b, count)
            assert _split(got, count) == series(a, b, Matrix.kron)


@pytest.mark.parametrize("field", SERIES_FIELDS, ids=repr)
def test_stacked_deformation_series_match_the_per_order_series(field):
    from rbsys.algebra import matrix_tensor

    rng = random.Random(13)
    d = 2
    for order in range(6):
        alg = Algebra(field, d, matrix_tensor(_matrix(field, d, d * d, rng), d, d))
        sys = RotaBaxterSystem(alg, _matrix(field, d, d, rng), _matrix(field, d, d, rng))
        mus = [alg.mult_matrix()] + [_matrix(field, d, d * d, rng) for _ in range(order)]
        Rs = [sys.R] + [_matrix(field, d, d, rng) for _ in range(order)]
        Ss = [sys.S] + [_matrix(field, d, d, rng) for _ in range(order)]
        g, h = (
            GaugeSeries(order, [Matrix.identity(field, d)] + [_matrix(field, d, d, rng) for _ in range(order)])
            for _ in range(2)
        )
        assert gauge_inverse(g).psis == series_gauge_inverse(g.psis)
        assert compose_gauges(g, h).psis == series(g.psis, h.psis)
        defn = DeformationData(order, mus, Rs, Ss)
        gauged = apply_gauge(defn, g)
        assert (gauged.mus, gauged.Rs, gauged.Ss) == series_apply_gauge(mus, Rs, Ss, g.psis)
        for x in (defn, gauged):
            assert verify_deformation(sys, x).residuals == series_residuals(x.mus, x.Rs, x.Ss)
        # mu held fixed: the operator residuals are those of the operator
        # families under mu alone
        residuals = verify_deformation(sys, operator_deformation(sys, Rs, Ss)).residuals
        assert [res[1:] for res in residuals] == series_operator_residuals([alg.mult_matrix()], Rs, Ss)
        assert residuals == series_residuals(operator_deformation(sys, Rs, Ss).mus, Rs, Ss)


def test_verify_deformation_products_do_not_grow_with_the_order(monkeypatch):
    # one product per Cauchy product of series, whatever the order: assoc,
    # inner, R (x) R, S (x) S, and mu and R or S applied to each of the two
    # operator residuals; two krons for each of mu, R and S
    calls = []
    matmul, kron = Matrix.__matmul__, Matrix.kron

    def counted(op):
        def wrapper(self, other):
            calls.append(op.__name__)
            return op(self, other)

        return wrapper

    monkeypatch.setattr(Matrix, "__matmul__", counted(matmul))
    monkeypatch.setattr(Matrix, "kron", counted(kron))
    sys = triangular_system(GF(5), 1, 2)
    made = {}
    for order in (1, 2, 4):
        defn = apply_gauge(constant_deformation(sys, order), random_gauge(sys, order, random.Random(order)))
        calls.clear()
        assert verify_deformation(sys, defn).ok
        made[order] = (calls.count("__matmul__"), calls.count("kron"))
    assert made == {1: (8, 6), 2: (8, 6), 4: (8, 6)}


@pytest.mark.parametrize("field", SERIES_FIELDS, ids=repr)
def test_failing_report_lists_the_per_order_failures(field):
    # the report keeps the residual series and answers its verdicts by
    # order ranges; they must agree with the per-order residuals of the
    # oracle, and residuals must still split into per-order tuples
    from rbsys.deformation import DeformationReport

    rng = random.Random(14)
    sys = triangular_system(field, 1, 2)
    seen = set()
    for order in (1, 2, 3):
        valid = apply_gauge(constant_deformation(sys, order), random_gauge(sys, order, rng))
        for broken in range(order + 1):
            # broken = 0 leaves the deformation valid
            mus, Rs, Ss = valid.mus, valid.Rs, valid.Ss
            if broken:
                family = rng.choice([mus, Rs, Ss])
                family[broken] = family[broken] + _matrix(field, *family[broken].shape, rng)
            defn = DeformationData(order, mus, Rs, Ss)
            od = operator_deformation(sys, Rs, Ss)
            assert [res[1:] for res in verify_deformation(sys, od).residuals] == series_operator_residuals(
                mus[:1], Rs, Ss
            )
            for report, expected in (
                (verify_deformation(sys, defn), series_residuals(mus, Rs, Ss)),
                (verify_deformation(sys, od), series_residuals(od.mus, Rs, Ss)),
            ):
                assert isinstance(report, DeformationReport)
                failing = [n for n, res in enumerate(expected) if not all(r.is_zero() for r in res)]
                assert report.residuals == expected and isinstance(report.residuals[0], tuple)
                assert report.failing_orders() == failing
                assert report.ok is (not failing)
                assert report.first_failure() == (failing[0] if failing else None)
                for through in range(-1, order + 2):
                    assert report.ok_through(through) is all(n > through for n in failing)
                seen.add(tuple(failing))
    assert {(), (1,), (2, 3)} <= seen
