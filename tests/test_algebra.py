import random
from fractions import Fraction

import numpy as np

import pytest

from rbsys import (
    GF,
    QQ,
    Algebra,
    Matrix,
    MultiMap,
    Verdict,
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


def test_require_returns_a_pass_and_raises_a_failure_with_its_context():
    ok = Verdict(True)
    assert ok.require("unused") is ok
    bad = Verdict(False, tag="t", witness=(0, 1), lhs=[Fraction(1, 2)], rhs=[0])
    for error in (ValueError, AssertionError):
        with pytest.raises(error) as raised:
            bad.require("context", *([] if error is ValueError else [error]))
        assert type(raised.value) is error
        assert str(raised.value) == "context: fail [t] at (0, 1): lhs=[1/2] rhs=[0]"


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


def _coerced(field, data):
    """The structure tensor coerced one entry at a time."""
    return [[[field.coerce(x) for x in row] for row in plane] for plane in data]


@pytest.mark.parametrize("p", [2, 5, 40009, 2**31 - 1])
def test_int64_tensor_is_reduced_like_coerce(p):
    # matrix_tensor returns int64 residues; any int64 array, with negative
    # entries and entries past p, is reduced as coerce reduces each entry
    rng = np.random.default_rng(p)
    data = rng.integers(-(2**62), 2**62, size=(2, 2, 2), dtype=np.int64)
    data[0, 0, :] = [-1, p]
    alg = Algebra(GF(p), 2, data)
    assert alg.mult.dtype == np.int64 and not alg.mult.flags.writeable
    assert alg.mult.tolist() == _coerced(GF(p), data.tolist())


@pytest.mark.parametrize(
    "field, data",
    [
        (QQ, [[[1, "1/2"], [Fraction(-3, 4), 0]], [["7", -2], [2**70, "-5/3"]]]),
        (QQ, np.arange(-4, 4, dtype=np.int64).reshape(2, 2, 2)),
        (GF(5), [[[7, -1], ["3", Fraction(10, 1)]], [[0, 4], [5, 2**64]]]),
        (GF(5), np.arange(-4, 4, dtype=np.int32).reshape(2, 2, 2)),
        (GF(2147483659), np.arange(-4, 4, dtype=np.int64).reshape(2, 2, 2)),
    ],
    ids=["Q-lists", "Q-int64", "GF5-lists", "GF5-int32", "GF-large-int64"],
)
def test_other_tensors_are_coerced_entry_for_entry(field, data):
    alg = Algebra(field, 2, data)
    assert alg.mult.dtype == field.dtype
    want = _coerced(field, np.asarray(data, dtype=object).tolist())
    assert alg.mult.tolist() == want
    assert [type(x) for x in alg.mult.ravel().tolist()] == [type(x) for x in np.ravel(want).tolist()]


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2147483659)], ids=repr)
@pytest.mark.parametrize(
    "data",
    [
        np.zeros((2, 2, 2)),
        np.zeros((2, 2, 2), dtype=bool),
        [[[0, 0], [0, 0]], [[0, 0], [0, 1.0]]],
        [[[0, 0], [0, 0]], [[0, 0], [0, True]]],
    ],
    ids=["float-array", "bool-array", "float-entry", "bool-entry"],
)
def test_float_and_bool_tensors_are_refused(field, data):
    with pytest.raises(TypeError):
        Algebra(field, 2, data)
