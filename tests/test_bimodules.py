import random
from collections import Counter
from fractions import Fraction

import pytest

from rbsys import (
    GF,
    QQ,
    Algebra,
    BimoduleActions,
    Matrix,
    RBSBimodule,
    RotaBaxterSystem,
    check_associative,
    check_bimodule,
    check_morphism,
    check_rbs,
    check_rbs_bimodule,
    conjugate_bimodule,
    conjugate_system,
    d_module,
    d_module_rbs,
    regular_bimodule,
    semidirect_extract,
    semidirect_maps,
    semidirect_product,
    zero_algebra,
)

from instances import (
    instance_set,
    line_system,
    random_matrix,
    random_system_bimodule,
    rational_base_change,
    triangular_system,
    zero_action_bimodule,
    zero_mult_system,
)
from oracles import (
    associativity_by_products,
    bimodule_by_products,
    operator_equations_by_products,
    rbs_bimodule_by_products,
)

from rbsys.bimodules import _rbs_bimodule_verdict


def test_regular_bimodule_examples():
    z1 = Matrix.zeros(QQ, 1, 1)
    sys = RotaBaxterSystem(zero_algebra(QQ, 1), z1, z1)
    assert check_rbs_bimodule(regular_bimodule(sys))

    assert check_rbs_bimodule(regular_bimodule(line_system(QQ, 1, 0)))
    assert check_rbs_bimodule(regular_bimodule(line_system(QQ, 0, 3)))
    assert check_rbs_bimodule(regular_bimodule(triangular_system(QQ)))


def test_zero_operator_bimodule():
    rng = random.Random(0)
    sys = zero_mult_system(QQ, 2, rng)
    zero2 = Matrix.zeros(QQ, 2, 2)
    base = RotaBaxterSystem(sys.alg, zero2, zero2)
    mod = zero_action_bimodule(base, 3, rng)
    assert check_rbs_bimodule(mod)


def test_perturbed_regular_fails_with_witness():
    # unital line, R = id, S = 0; replace R_M by R + id
    sys = line_system(QQ, 1, 0)
    mod = regular_bimodule(sys)
    bad = RBSBimodule(sys, mod.actions, Matrix.identity(QQ, 1).scale(2), mod.SM)
    verdict = check_rbs_bimodule(bad)
    assert not verdict
    # exact evaluation: equation 2 fails first, with sides 2 and 4
    assert verdict.tag == "eq2"
    assert verdict.witness == (0, 0)
    assert verdict.lhs == [[2]]
    assert verdict.rhs == [[4]]


def test_semidirect_examples():
    z1 = Matrix.zeros(QQ, 1, 1)
    zero_sys = RotaBaxterSystem(zero_algebra(QQ, 1), z1, z1)
    sd = semidirect_product(regular_bimodule(zero_sys))
    assert sd.dim == 2
    assert sd.R.is_zero() and sd.S.is_zero()

    sys = line_system(QQ, 1, 0)
    sd = semidirect_product(regular_bimodule(sys))
    assert check_rbs(sd)
    iota, pi = semidirect_maps(QQ, 1, 1)
    assert check_morphism(iota, sys, sd)
    assert check_morphism(pi, sd, sys)


def test_semidirect_round_trip_random():
    for sys, mod in instance_set(12, seed=31):
        sd = semidirect_product(mod)
        assert check_rbs(sd)
        iota, pi = semidirect_maps(sys.field, sys.dim, mod.dim)
        assert check_morphism(iota, sys, sd)
        assert check_morphism(pi, sd, sys)
        back = semidirect_extract(sys, mod.actions, sd.R, sd.S)
        assert back == mod


def test_semidirect_extract_rejects_leaky_operators():
    sys = line_system(QQ, 1, 0)
    mod = regular_bimodule(sys)
    bad = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        semidirect_extract(sys, mod.actions, bad, Matrix.zeros(QQ, 2, 2))


def test_d_module_zero_case():
    z1 = Matrix.zeros(QQ, 1, 1)
    sys = RotaBaxterSystem(zero_algebra(QQ, 1), z1, z1)
    dm = d_module(regular_bimodule(sys))
    assert dm.actions.left_matrix().is_zero()
    assert dm.actions.right_matrix().is_zero()


def test_d_module_axioms_random():
    for sys, mod in instance_set(12, seed=59):
        dm = d_module(mod)
        assert check_bimodule(dm.star, dm.actions)
        assert check_associative(dm.star)


def test_d_module_compatibilities():
    # (a |> x) <| b = a |> (x <| b) and (a*b) |> x = a |> (b |> x)
    rng = random.Random(6)
    sys = triangular_system(GF(5), 2, 3)
    mod = regular_bimodule(sys)
    dm = d_module(mod)
    field = sys.field
    for _ in range(10):
        a = random_matrix(field, 3, 1, rng)
        b = random_matrix(field, 3, 1, rng)
        x = random_matrix(field, 6, 1, rng)
        lhs = dm.actions.act_right(dm.actions.act_left(a, x), b)
        rhs = dm.actions.act_left(a, dm.actions.act_right(x, b))
        assert lhs == rhs
        star_ab = dm.star.multiply(a, b)
        assert dm.actions.act_left(star_ab, x) == dm.actions.act_left(
            a, dm.actions.act_left(b, x)
        )


def test_d_module_rbs_cases():
    z1 = Matrix.zeros(QQ, 1, 1)
    sys = RotaBaxterSystem(zero_algebra(QQ, 1), z1, z1)
    out = d_module_rbs(regular_bimodule(sys))
    assert out is not None and check_rbs_bimodule(out)

    lam_sys = line_system(QQ, 0, 2)
    out = d_module_rbs(regular_bimodule(lam_sys))
    assert out is not None and check_rbs_bimodule(out)

    tri = triangular_system(GF(5), 1, 2)
    out = d_module_rbs(regular_bimodule(tri))
    assert out is not None and check_rbs_bimodule(out)

    rng = random.Random(8)
    while True:
        sys = zero_mult_system(QQ, 2, rng)
        if sys.R @ sys.S != sys.S @ sys.R:
            break
    assert d_module_rbs(regular_bimodule(sys)) is None


def _pair(d, mu, R, S, lam, rho, RM, SM):
    sys = RotaBaxterSystem(Algebra.from_matrix(mu), R, S)
    return sys, RBSBimodule(sys, BimoduleActions.from_matrices(d, lam, rho), RM, SM)


def _bumped(mat, rng):
    """mat with one entry, drawn by rng, moved by 1 (by 1/3 over Q)."""
    step = 1 if mat.field.p else Fraction(1, 3)
    i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
    rows = [[step if (r, c) == (i, j) else 0 for c in range(mat.cols)] for r in range(mat.rows)]
    return mat + Matrix.from_rows(mat.field, rows)


def _variants(sys, mod, rng):
    """The pair, then the pair with one entry of one structure matrix moved,
    for each of the seven, as new objects that no check has seen."""
    parts = {
        "mu": sys.alg.mult_matrix(),
        "R": sys.R,
        "S": sys.S,
        "lam": mod.actions.left_matrix(),
        "rho": mod.actions.right_matrix(),
        "RM": mod.RM,
        "SM": mod.SM,
    }
    yield _pair(sys.dim, **parts)
    for name, mat in parts.items():
        yield _pair(sys.dim, **{**parts, name: _bumped(mat, rng)})


def _read(verdict):
    return verdict.ok, verdict.tag, verdict.witness, verdict.lhs, verdict.rhs


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(40009), GF(4294967311), QQ], ids=repr)
def test_axiom_checks_match_their_matrix_product_statements(field):
    # the checks multiply the stored arrays through reshapes and build
    # matrices only for a witness; the oracles form every Kronecker factor
    # and multiply matrices.  Verdict, tag, witness and both sides' columns
    # agree on valid pairs and on each pair with one entry moved; over Q
    # the pairs are transported along base changes with denominators 2, 3
    # and 7 and numerators past 2^62
    rng = random.Random(41)
    failed = Counter()
    for _ in range(6):
        sys, mod = random_system_bimodule(rng, field, big=True)
        if field.p is None:
            P, Q = rational_base_change(sys.dim, rng), rational_base_change(mod.dim, rng)
            sys, mod = conjugate_system(sys, P), conjugate_bimodule(mod, P, Q)
        for sys, mod in _variants(sys, mod, rng):
            verdicts = [
                (check_associative(sys.alg), associativity_by_products(sys.alg)),
                (check_bimodule(sys.alg, mod.actions), bimodule_by_products(sys.alg, mod.actions)),
            ]
            if verdicts[0][0]:
                verdicts.append((check_rbs(sys), operator_equations_by_products(sys)))
                if verdicts[-1][0]:
                    verdicts.append((_rbs_bimodule_verdict(mod), rbs_bimodule_by_products(mod)))
            for got, want in verdicts:
                assert _read(got) == _read(want)
                failed[got.tag] += not got
    # every check failed somewhere, so witnesses were compared too
    assert {"associativity", "eqR"} <= set(failed)
    assert set(failed) & {"left_action", "right_action", "middle_action"}
    assert set(failed) & {"eq1", "eq2", "eq3", "eq4"}
