import random

import numpy as np

import pytest

from rbsys import (
    GF,
    QQ,
    Algebra,
    Matrix,
    MultiMap,
    check_associative,
    check_nondegenerate,
    decode_tuple,
    encode_tuple,
    regular_actions,
    zero_algebra,
)

from instances import (
    random_invertible,
    random_matrix,
    triangular_algebra,
    unital_line,
)


def test_associativity_examples():
    assert check_associative(unital_line(QQ))
    assert check_associative(zero_algebra(QQ, 3))
    # e0 e0 = e1, e1 e0 = e0: (e0 e0) e0 = e0 but e0 (e0 e0) = 0
    bad = Algebra(QQ, 2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    verdict = check_associative(bad)
    assert not verdict
    assert verdict.witness == (0, 0, 0)


def test_nondegenerate_examples():
    assert check_nondegenerate(unital_line(QQ))
    assert not check_nondegenerate(zero_algebra(QQ, 2))
    # e0 e0 = e0 only: e1 annihilates on both sides
    alg = Algebra(QQ, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    verdict = check_nondegenerate(alg)
    assert not verdict
    assert verdict.witness == [[0], [1]]


def test_tuple_encoding_bijection():
    for d in (1, 2, 3):
        for n in (0, 1, 2, 3):
            seen = set()
            count = d**n
            for col in range(count):
                tup = decode_tuple(d, n, col)
                assert encode_tuple(d, tup) == col
                seen.add(tup)
            assert len(seen) == count


def test_compose_with_mult_examples():
    line = unital_line(QQ)
    f = MultiMap(line, 1, Matrix.identity(QQ, 1))
    g = f.compose_with_mult(1)
    assert g.arity == 2
    assert g.mat.entries() == [[1]]

    z = MultiMap.zero(line, 2, 1).compose_with_mult(2)
    assert z.mat.is_zero()

    za = zero_algebra(QQ, 2)
    f = MultiMap(za, 1, Matrix.from_rows(QQ, [[1, 2], [3, 4]]))
    assert f.compose_with_mult(1).mat.is_zero()

    with pytest.raises(ValueError):
        f.compose_with_mult(2)


def test_precompose_examples():
    tri = triangular_algebra(QQ)
    rng = random.Random(0)
    f = MultiMap(tri, 2, random_matrix(QQ, 3, 9, rng))
    idd = Matrix.identity(QQ, 3)
    assert f.precompose_operators([idd, idd]) == f
    zero = Matrix.zeros(QQ, 3, 3)
    assert f.precompose_operators([zero, idd]).mat.is_zero()
    r = random_matrix(QQ, 3, 3, rng)
    g = MultiMap(tri, 1, random_matrix(QQ, 2, 3, rng))
    assert g.precompose_operators([r]).mat == g.mat @ r


def test_precompose_tensor_functoriality():
    # (f o R^(x)n) o S^(x)n = f o (RS)^(x)n
    rng = random.Random(1)
    tri = triangular_algebra(GF(5))
    f = MultiMap(tri, 2, random_matrix(GF(5), 3, 9, rng))
    r = random_matrix(GF(5), 3, 3, rng)
    s = random_matrix(GF(5), 3, 3, rng)
    lhs = f.precompose_operators([r, r]).precompose_operators([s, s])
    rhs = f.precompose_operators([r @ s, r @ s])
    assert lhs == rhs


def test_associativity_stable_under_base_change():
    from rbsys import RotaBaxterSystem, conjugate_system

    rng = random.Random(2)
    alg = triangular_algebra(QQ)
    z = Matrix.zeros(QQ, 3, 3)
    sys = RotaBaxterSystem(alg, z, z)
    for _ in range(5):
        p = random_invertible(QQ, 3, rng)
        assert check_associative(conjugate_system(sys, p).alg)


def test_multimap_apply_matches_columns():
    rng = random.Random(3)
    tri = triangular_algebra(QQ)
    f = MultiMap(tri, 2, random_matrix(QQ, 3, 9, rng))
    for i in range(3):
        for j in range(3):
            got = f.apply([Matrix.unit_column(QQ, 3, i), Matrix.unit_column(QQ, 3, j)])
            assert got == f.mat.col(encode_tuple(3, (i, j)))


def test_regular_actions_match_multiplication():
    tri = triangular_algebra(QQ)
    acts = regular_actions(tri)
    a = Matrix.column(QQ, [1, 2, 0])
    b = Matrix.column(QQ, [0, 1, 3])
    assert acts.act_left(a, b) == tri.multiply(a, b)
    assert acts.act_right(a, b) == tri.multiply(a, b)


def test_action_matrices_are_built_once():
    # the actions are immutable, so their matrices are built on first use
    # and every later call returns the same object
    acts = regular_actions(triangular_algebra(QQ))
    assert acts.left_matrix() is acts.left_matrix()
    assert acts.right_matrix() is acts.right_matrix()
    assert acts.right_slices() is acts.right_slices()
    assert np.shares_memory(acts.stacked_left().num, acts.left_matrix().num)
    d = acts.adim
    for j, cj in enumerate(acts.right_slices()):
        assert cj.entries() == [[acts.right[u, j, v] for u in range(d)] for v in range(d)]
