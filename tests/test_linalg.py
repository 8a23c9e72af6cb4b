import random

from fractions import Fraction

import pytest

from rbsys import GF, QQ, Matrix
from rbsys.linalg import Field, hstack

from instances import random_matrix


def test_rank_examples():
    assert Matrix.identity(QQ, 2).rank() == 2
    assert Matrix.zeros(QQ, 3, 4).rank() == 0
    assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1


def test_kernel_examples():
    assert Matrix.identity(QQ, 3).kernel_basis().cols == 0
    z = Matrix.zeros(QQ, 2, 3).kernel_basis()
    assert z == Matrix.identity(QQ, 3)
    k = Matrix.from_rows(GF(2), [[1, 1]]).kernel_basis()
    assert k.entries() == [[1], [1]]


def test_solve_examples():
    b = Matrix.column(QQ, [2, 5])
    assert Matrix.identity(QQ, 2).solve(b) == b
    assert Matrix.zeros(QQ, 2, 2).solve(Matrix.column(QQ, [1, 0])) is None
    x = Matrix.from_rows(QQ, [[2]]).solve(Matrix.column(QQ, [3]))
    assert x.entries() == [[Fraction(3, 2)]]


def test_solve_shape_mismatch():
    with pytest.raises(ValueError):
        Matrix.identity(QQ, 2).solve(Matrix.column(QQ, [1, 2, 3]))


def test_rank_nullity_random():
    rng = random.Random(5)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(30):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(field, rows, cols, rng)
            ker = m.kernel_basis()
            assert m.rank() + ker.cols == cols
            if ker.cols:
                assert (m @ ker).is_zero()


def test_solve_consistency_iff_rank(some_seed=11):
    rng = random.Random(some_seed)
    for field in (QQ, GF(5)):
        for _ in range(30):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(field, rows, cols, rng)
            b = random_matrix(field, rows, 1, rng)
            x = m.solve(b)
            consistent = hstack([m, b]).rank() == m.rank()
            assert (x is not None) == consistent
            if x is not None:
                assert m @ x == b


def test_determinism():
    rng1, rng2 = random.Random(3), random.Random(3)
    a = random_matrix(QQ, 5, 7, rng1)
    b = random_matrix(QQ, 5, 7, rng2)
    assert a == b
    assert a.rref()[0] == b.rref()[0]
    assert a.kernel_basis() == b.kernel_basis()


def test_inverse_round_trip():
    rng = random.Random(9)
    for field in (QQ, GF(2), GF(5)):
        for _ in range(10):
            n = rng.randint(1, 4)
            m = random_matrix(field, n, n, rng)
            inv = m.inverse()
            if inv is not None:
                assert m @ inv == Matrix.identity(field, n)
                assert inv @ m == Matrix.identity(field, n)


def test_gf_canonical_residues():
    m = Matrix.from_rows(GF(5), [[7, -1], [10, 3]])
    assert m.entries() == [[2, 4], [0, 3]]


def test_floats_rejected():
    with pytest.raises(TypeError):
        Matrix.from_rows(QQ, [[0.5]])
    with pytest.raises(TypeError):
        QQ.coerce(1.0)


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4)
    assert GF(2) == GF(2)
    assert GF(2) != GF(3)
    assert QQ != GF(2)


def test_fraction_parsing():
    m = Matrix.from_rows(QQ, [["3/2", 1], ["-1/3", 0]])
    assert m[0, 0] == Fraction(3, 2)
    assert m[1, 0] == Fraction(-1, 3)


def test_kron_mixed():
    a = Matrix.from_rows(QQ, [[1, 2]])
    b = Matrix.from_rows(QQ, [[3], [4]])
    assert a.kron(b).entries() == [[3, 6], [4, 8]]


def test_large_prime_moduli_are_decided_quickly():
    import time

    start = time.perf_counter()
    assert Field(2**61 - 1).p == 2**61 - 1  # a Mersenne prime
    with pytest.raises(ValueError):
        Field(2**61 + 1)  # divisible by 3
    with pytest.raises(ValueError):
        Field(3825123056546413051)  # strong pseudoprime to the bases 2..23
    with pytest.raises(ValueError, match="too large"):
        Field(2**89 - 1)  # prime, above the deterministic Miller-Rabin range
    assert time.perf_counter() - start < 1.0


def test_is_prime_matches_trial_division():
    from rbsys.linalg import _is_prime

    def trial(n):
        return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
