import random

import pytest

from rbsys import (
    GF,
    QQ,
    Algebra,
    Matrix,
    RotaBaxterSystem,
    check_associative,
    check_morphism,
    check_rb_operator,
    check_rbs,
    conjugate_system,
    d_module,
    from_rb_operator,
    orthogonality_criterion,
    regular_bimodule,
    star_algebra,
    star_rbs_if_commuting,
    zero_algebra,
)

from instances import (
    diagonal_algebra,
    idempotent_rb_operator,
    instance_set,
    line_system,
    random_invertible,
    random_matrix,
    triangular_system,
    unital_line,
    zero_mult_system,
)
from spies import count_calls


def test_check_rbs_examples():
    rng = random.Random(0)
    sys = zero_mult_system(QQ, 2, rng)
    zero = Matrix.zeros(QQ, 2, 2)
    assert check_rbs(RotaBaxterSystem(sys.alg, zero, zero))

    assert check_rbs(line_system(QQ, 1, 0))

    verdict = check_rbs(line_system(QQ, 1, 1))
    assert not verdict
    assert verdict.tag == "eqR"
    assert verdict.witness == (0, 0)
    assert verdict.lhs == [[1]]
    assert verdict.rhs == [[2]]


def test_check_rbs_requires_associative():
    bad = Algebra(QQ, 2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    z = Matrix.zeros(QQ, 2, 2)
    with pytest.raises(ValueError):
        check_rbs(RotaBaxterSystem(bad, z, z))


def test_from_rb_operator_examples():
    line = unital_line(QQ)
    zero = Matrix.zeros(QQ, 1, 1)
    one = Matrix.identity(QQ, 1)

    s1, s2 = from_rb_operator(line, zero, 3)
    assert s1.R == zero and s1.S == one.scale(3)
    assert s2.R == one.scale(3) and s2.S == zero
    assert check_rbs(s1) and check_rbs(s2)

    s1, s2 = from_rb_operator(line, zero, 0)
    assert s1 == s2 == RotaBaxterSystem(line, zero, zero)

    s1, s2 = from_rb_operator(line, -one, 1)
    assert s1.R == -one and s1.S == zero
    assert s2.R == zero and s2.S == -one

    with pytest.raises(ValueError):
        from_rb_operator(line, one, 1)


def test_rb_operator_idempotent_family():
    for field in (QQ, GF(5)):
        alg = diagonal_algebra(field, 3)
        for lam in (0, 1, 2):
            R = idempotent_rb_operator(field, 3, [0, 2], lam)
            assert check_rb_operator(alg, R, lam)
            s1, s2 = from_rb_operator(alg, R, lam)
            assert check_rbs(s1) and check_rbs(s2)


def test_orthogonality_examples():
    line = unital_line(QQ)
    zero = Matrix.zeros(QQ, 1, 1)
    one = Matrix.identity(QQ, 1)

    rep = orthogonality_criterion(line, zero, zero)
    assert rep.criterion_holds and rep.rbs_verdict

    rng = random.Random(1)
    za = zero_algebra(QQ, 2)
    rep = orthogonality_criterion(za, random_matrix(QQ, 2, 2, rng), random_matrix(QQ, 2, 2, rng))
    assert rep.r_left_linear and rep.s_right_linear
    assert rep.criterion_holds and rep.rbs_verdict

    rep = orthogonality_criterion(line, one, one)
    assert rep.r_left_linear and rep.s_right_linear
    assert not rep.criterion_holds and not rep.rbs_verdict
    assert rep.nondegenerate and not rep.operators_orthogonal


def test_orthogonality_equivalence_random():
    # for module-linear pairs the criterion agrees with the axiom check
    rng = random.Random(2)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(20):
            a = rng.randint(-2, 2) if field is QQ else rng.randrange(field.p)
            b = rng.randint(-2, 2) if field is QQ else rng.randrange(field.p)
            sys = triangular_system(field, a, b)
            rep = orthogonality_criterion(sys.alg, sys.R, sys.S)
            assert rep.r_left_linear and rep.s_right_linear
            assert rep.criterion_holds == bool(rep.rbs_verdict)
            if rep.nondegenerate:
                assert rep.operators_orthogonal == bool(rep.rbs_verdict)


def test_star_examples():
    rng = random.Random(3)
    sys = zero_mult_system(QQ, 2, rng)
    zero2 = Matrix.zeros(QQ, 2, 2)
    st = star_algebra(RotaBaxterSystem(sys.alg, zero2, zero2))
    assert st == zero_algebra(QQ, 2)

    line_sys = line_system(QQ, 1, 0)
    assert star_algebra(line_sys) == unital_line(QQ)

    lam_sys = line_system(QQ, 0, 4)
    assert star_algebra(lam_sys).constant(0, 0, 0) == 4

    with pytest.raises(ValueError):
        star_algebra(line_system(QQ, 1, 1))


def test_star_product_is_made_once_per_system(monkeypatch):
    # the check of the operator equations and every star algebra read the
    # one product mu (R (x) Id + Id (x) S) that the system keeps: its sum of
    # two products is formed once, and the star algebra of the doubled
    # module holds the same matrix
    for field in (QQ, GF(5)):
        sys = triangular_system(field, 1, 2)
        mu, idd = sys.alg.mult_matrix(), Matrix.identity(field, sys.dim)
        want = mu @ sys.R.kron(idd) + mu @ idd.kron(sys.S)
        with monkeypatch.context() as patch:
            sums = count_calls(patch, Matrix, ["__add__"])
            stars = [star_algebra(sys), star_algebra(sys)]
            assert check_rbs(sys)
        assert sums["__add__"] == 1
        assert all(star.mult_matrix() == want for star in stars)
        assert d_module(regular_bimodule(sys)).star.mult_matrix() is stars[0].mult_matrix()


def test_star_rbs_if_commuting():
    z1 = Matrix.zeros(QQ, 1, 1)
    assert star_rbs_if_commuting(RotaBaxterSystem(zero_algebra(QQ, 1), z1, z1)) is not None

    lam_sys = line_system(QQ, 0, 2)
    st = star_rbs_if_commuting(lam_sys)
    assert st is not None
    assert st.alg.constant(0, 0, 0) == 2

    rng = random.Random(4)
    while True:
        sys = zero_mult_system(QQ, 2, rng)
        if sys.R @ sys.S != sys.S @ sys.R:
            break
    assert star_rbs_if_commuting(sys) is None


def test_check_morphism_examples():
    sys = triangular_system(QQ)
    idd = Matrix.identity(QQ, 3)
    assert check_morphism(idd, sys, sys)
    assert check_morphism(Matrix.zeros(QQ, 3, 3), sys, sys)

    line_sys = line_system(QQ, 1, 0)
    verdict = check_morphism(Matrix.identity(QQ, 1).scale(2), line_sys, line_sys)
    assert not verdict
    assert verdict.tag == "multiplicative"
    assert verdict.lhs == [[2]] and verdict.rhs == [[4]]


def test_check_rbs_base_change_invariance():
    rng = random.Random(5)
    for field in (QQ, GF(5)):
        sys = triangular_system(field, 1, 1)
        assert check_rbs(sys)
        for _ in range(5):
            p = random_invertible(field, 3, rng)
            assert check_rbs(conjugate_system(sys, p))


def test_random_instances_pass_axioms():
    for sys, mod in instance_set(20, seed=77):
        assert check_rbs(sys)
        assert check_associative(sys.alg)
