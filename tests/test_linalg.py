import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsys import GF, QQ, Matrix, rbs_d, regular_bimodule
from rbsys.linalg import Field, _prime, block_diag, hstack, kron_all, vstack

from instances import random_matrix, rational_base_change, triangular_system
from oracles import eager_gauss_jordan, reconstruct_list, scatter_identity_kron_sum, sympy_rref


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


# -- the elimination kernel against an independent oracle ---------------------

P1 = _prime(0)  # the first prime the multimodular RREF over Q tries
# 2^31 - 1 is the largest prime stored in int64
ORACLE_FIELDS = [QQ, GF(2), GF(5), GF(40009), GF(2**31 - 1), GF(2147483659)]


def _kernel_from_rref(rref, pivots, p, cols):
    """Canonical kernel basis (columns) read off an RREF over Q or GF(p)."""
    free = [c for c in range(cols) if c not in pivots]
    basis = [[0] * len(free) for _ in range(cols)]
    for k, f in enumerate(free):
        basis[f][k] = 1
        for i, pc in enumerate(pivots):
            basis[pc][k] = -rref[i][f] if p is None else -rref[i][f] % p
    return basis


def _assert_matches_oracle(m, b):
    """rref, pivots, kernel_basis and solve of m against sympy."""
    rref, pivots = sympy_rref(m)
    ours, our_pivots = m.rref()
    assert ours.entries() == rref and our_pivots == pivots
    assert m.kernel_basis().entries() == _kernel_from_rref(rref, pivots, m.field.p, m.cols)
    aug_rref, aug_pivots = sympy_rref(hstack([m, b]))
    x = m.solve(b)
    if any(pc >= m.cols for pc in aug_pivots):
        assert x is None
    else:
        expected = [[0] * b.cols for _ in range(m.cols)]
        for i, pc in enumerate(aug_pivots):
            expected[pc] = aug_rref[i][m.cols :]
        assert x.entries() == expected


@st.composite
def _matrix_pair(draw, field):
    """A matrix of bounded rank (a product a @ b) and a right-hand side."""
    if field.p is None:
        scalar = st.one_of(
            st.just(0), st.integers(-3, 3), st.fractions(-10**6, 10**6, max_denominator=10**4)
        )
    else:
        scalar = st.one_of(st.just(0), st.integers(0, field.p - 1))

    def matrix(rows, cols):
        if rows == 0 or cols == 0:
            return Matrix.zeros(field, rows, cols)
        entries = st.lists(st.lists(scalar, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        return Matrix.from_rows(field, draw(entries))

    rows, inner, cols = (draw(st.integers(0, 6)) for _ in range(3))
    m = matrix(rows, inner) @ matrix(inner, cols)
    if draw(st.booleans()):
        m = m + matrix(rows, cols)
    return m, matrix(rows, draw(st.integers(1, 2)))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
# raised inside hypothesis' own failure report, which it would turn into an
# internal error that hides the falsifying example
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(data=st.data())
def test_elimination_matches_sympy(field, data):
    _assert_matches_oracle(*data.draw(_matrix_pair(field)))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_elimination_above_the_whole_update_size_matches_sympy(field):
    # past _WHOLE_UPDATE_SIZE entries a pivot step updates only the rows
    # with a nonzero entry in the pivot column; sparse factors of rank 8
    # leave most rows out of most steps
    from rbsys.linalg import _WHOLE_UPDATE_SIZE

    rng = random.Random(8)

    def sparse(rows, cols):
        draw = [[0 if rng.random() < 0.7 else rng.randint(1, 9) for _ in range(cols)] for _ in range(rows)]
        return Matrix.from_rows(field, draw)

    m = sparse(20, 8) @ sparse(8, 30)
    assert m.rows * m.cols > _WHOLE_UPDATE_SIZE
    _assert_matches_oracle(m, sparse(20, 2))


def _tall_cases(field, block):
    """Matrices of at least two row blocks, each with a right-hand side."""
    rng = random.Random(block)

    def low_rank(rows, cols, rank):
        return random_matrix(field, rows, rank, rng) @ random_matrix(field, rank, cols, rng)

    # rows of pivots 1, 2, 3 and nonzero entries right of them
    basis = hstack([Matrix.identity(field, 3), Matrix.from_rows(field, [[1, 2, 1, 1, 3, 1]] * 3)])
    spanned = random_matrix(field, 3 * block, 3, rng) @ basis
    zero_first = hstack([Matrix.zeros(field, 3 * block, 1), spanned])
    cases = {
        # rank block + 7, so the second block adds pivots, and a last block
        # of 7 rows
        "ragged": low_rank(2 * block + 7, block + 12, block + 7),
        # column 0 is zero and column 4 off the pivots until the last block,
        # whose rows take both as pivots; R must be cleared on column 4 and
        # its rows put back in pivot order
        "late_pivot": vstack([zero_first, random_matrix(field, 5, 10, rng)]),
        "zero_block": vstack(
            [low_rank(block, 10, 4), Matrix.zeros(field, block, 10), low_rank(block + 3, 10, 6)]
        ),
        # full column rank in the first block; the rows after it are left over
        "full_rank_early": vstack(
            [random_matrix(field, block, 9, rng), low_rank(2 * block + 1, 9, 5)]
        ),
    }
    return {name: (m, random_matrix(field, m.rows, 2, rng)) for name, m in cases.items()}


def _kernel_calls(monkeypatch, name):
    """(rows of the input, number of pivots) of every call of the mod-p
    kernel linalg.<name>, recorded from now on."""
    from rbsys import linalg

    calls = []
    kernel = getattr(linalg, name)

    def spy(a, *args):
        rows = a.shape[0]
        r, pivots = kernel(a, *args)
        calls.append((rows, len(pivots)))
        return r, pivots

    monkeypatch.setattr(linalg, name, spy)
    return calls


@pytest.mark.parametrize("case", ["ragged", "late_pivot", "zero_block", "full_rank_early"])
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_blocked_elimination_matches_sympy(monkeypatch, field, case):
    # a matrix of two or more blocks of _block_rows(cols) rows is reduced
    # block by block, and no Gauss-Jordan step sees more than one block; over
    # Q each prime of the multimodular RREF takes the blocked path; over GF(2)
    # the bit kernel takes the whole matrix, and Gauss-Jordan never runs
    from rbsys import linalg

    steps = _kernel_calls(monkeypatch, "_gauss_jordan")
    packed = _kernel_calls(monkeypatch, "_rref_gf2")
    block = linalg._block_rows(64)  # no case has more columns
    m, b = _tall_cases(field, block)[case]
    assert linalg._block_rows(m.cols) == block
    assert m.rows >= 2 * block and m.rows % block
    _assert_matches_oracle(m, b)
    if field == GF(2):
        assert packed and not steps and all(rows == m.rows for rows, _ in packed)
    else:
        assert steps and max(rows for rows, _ in steps) <= block and not packed
    if case == "late_pivot":
        assert m.take_rows(0, 3 * block).rref()[1] == (1, 2, 3)
        assert m.rref()[1][:5] == (0, 1, 2, 3, 4)
    if case == "ragged":
        assert m.rank() == block + 7
    if case == "full_rank_early":
        assert m.rank() == m.cols


# -- delayed reduction in Gauss-Jordan -------------------------------------------

# 1518500213 ~ 2^30.5: (2^62 - p) / (p - 1)^2 = 2, so the periodic reduction
# of _gauss_jordan runs every 2 steps; at 2^31 - 1 it runs every step
P_HALF = 1518500213


def _dense(field, rows, cols, rng):
    """A dense matrix with every entry drawn from the whole field."""
    p = field.p
    return Matrix.from_rows(field, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("p, period", [(P_HALF, 2), (2**31 - 1, 1)])
def test_delayed_reduction_near_the_int64_bound_matches_sympy(p, period):
    # dense residues near the bound: a few unreduced steps wrap int64, and at
    # 2^30.5 so does scaling a pivot row that is not reduced first
    from rbsys import linalg

    assert linalg._unreduced_steps(p) == period
    field, rng = GF(p), random.Random(p)
    m = _dense(field, 40, 60, rng)
    assert m.rows * m.cols > linalg._WHOLE_UPDATE_SIZE and m.rows < 2 * linalg._block_rows(m.cols)
    _assert_matches_oracle(m, _dense(field, 40, 2, rng))
    assert m.rank() == 40


@pytest.mark.parametrize("p", [2, 5, 40009])
def test_delayed_reduction_over_many_pivot_steps_matches_sympy(monkeypatch, p):
    # more than 100 pivot steps in one Gauss-Jordan call (the row blocks of
    # _rref_mod are raised past the matrix), with no periodic reduction in
    # between; the columns right of the last pivot are read only at the end.
    # Over GF(2) the bit kernel finds as many pivots in one call instead
    from rbsys import linalg

    steps = _kernel_calls(monkeypatch, "_gauss_jordan")
    packed = _kernel_calls(monkeypatch, "_rref_gf2")
    monkeypatch.setattr(linalg, "_block_rows", lambda cols: 64)
    field, rng = GF(p), random.Random(p)
    m = _dense(field, 110, 130, rng)
    _assert_matches_oracle(m, _dense(field, 110, 2, rng))
    ran, idle = (packed, steps) if p == 2 else (steps, packed)
    assert ran and not idle and min(found for _, found in ran) > 100
    assert linalg._unreduced_steps(p) > 10**9


KERNEL_FIELDS = [GF(2), GF(5), GF(P1), GF(P_HALF), GF(2**31 - 1), GF(4294967311)]


def _eager_kernel_cases(field):
    """Dense, sparse, low-rank, wide, tall and small inputs over field."""
    p, rng = field.p, random.Random(field.p)
    sparse = [[rng.randrange(p) if rng.random() < 0.1 else 0 for _ in range(70)] for _ in range(45)]
    return [
        _dense(field, 90, 100, rng),
        _dense(field, 40, 60, rng),
        _dense(field, 60, 20, rng),
        random_matrix(field, 30, 4, rng) @ random_matrix(field, 4, 50, rng),
        Matrix.from_rows(field, sparse),
        _dense(field, 6, 7, rng),
    ]


def _assert_matches_the_eager_kernel(kernel, a, p):
    """kernel(a) against eager_gauss_jordan: residues, dtype and pivots."""
    got, got_pivots = kernel(a)
    want, want_pivots = eager_gauss_jordan(a.copy(), p)
    assert got_pivots == want_pivots
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_gauss_jordan_matches_the_eager_kernel(field):
    # the same residues, dtype and pivots as reducing every update mod p; at
    # P1 the 90 pivot steps of the first case cross a periodic reduction
    # (every 64 steps)
    from rbsys.linalg import _gauss_jordan

    p = field.p
    for m in _eager_kernel_cases(field):
        _assert_matches_the_eager_kernel(lambda a: _gauss_jordan(a.copy(), p), m.num, p)


def _streamed(a, heights):
    """a as a stream of row blocks whose heights cycle through heights."""
    from rbsys.linalg import _Rows

    blocks, start, i = [], 0, 0
    while start < a.shape[0]:
        blocks.append(a[start : start + heights[i % len(heights)]])
        start, i = start + len(blocks[-1]), i + 1
    return _Rows(a.shape, iter(blocks))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=repr)
def test_every_mod_p_path_reads_its_rows_only_in_any_blocks(field):
    # the bit kernel (GF(2)), Gauss-Jordan (under two blocks), the blocked
    # path (taller) and the object path (above 2^31) take a read-only array
    # and leave it unchanged, and give the eager kernel's pivots, and its
    # residues and dtype on the free columns (the block of the RREF),
    # whether the rows come whole or in blocks of any heights
    from rbsys.linalg import _block_rows, _free_mask, _rref_mod

    p, rng = field.p, random.Random(field.p)
    tall = [
        random_matrix(field, 260, 30, rng) @ random_matrix(field, 30, 70, rng),
        vstack([random_matrix(field, 100, 20, rng), Matrix.zeros(field, 50, 20), _dense(field, 110, 20, rng)]),
    ]
    arrays = [m.num for m in _eager_kernel_cases(field) + tall]
    assert any(len(a) < 2 * _block_rows(a.shape[1]) for a in arrays)
    assert any(len(a) >= 2 * _block_rows(a.shape[1]) for a in arrays)
    for a in arrays:
        before = a.copy()
        assert not a.flags.writeable
        want, want_pivots = eager_gauss_jordan(a.copy(), p)
        want = want[:, _free_mask(a.shape[1], want_pivots)]
        for rows in [a] + [_streamed(a, heights) for heights in ([1], [47], [48], [49], [200], [1, 47, 48, 49, 200])]:
            got, got_pivots = _rref_mod(rows, p)
            assert got_pivots == want_pivots
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(a, before)


def test_the_q_prime_loop_reads_its_input_only():
    # each prime reduces its own residues of the numerators, which stay as
    # they were, int64 or past it; the result is sympy's RREF on its free
    # columns (the block)
    from rbsys import linalg

    rng = random.Random(37)
    for scalars in ([0, 1, -3, 7], [0, 1, 2**62 + 7, -(2**61) + 3]):
        m = Matrix.from_rows(QQ, [[rng.choice(scalars) for _ in range(12)] for _ in range(110)])
        before = m.num.copy()
        assert not m.num.flags.writeable
        r, den, pivots = linalg._rref_array(m.num, QQ)
        assert np.array_equal(m.num, before) and m.num.dtype == before.dtype
        want, want_pivots = sympy_rref(m)
        assert pivots == list(want_pivots)
        free = linalg._free_mask(m.cols, pivots)
        assert [[Fraction(int(x), den) for x in row] for row in r.tolist()] == [
            [x for x, f in zip(row, free) if f] for row in want
        ]


def test_bit_kernel_matches_the_eager_kernel():
    # the cases of Gauss-Jordan above, a wide and a tall sparse matrix, zero
    # rows and columns, empty shapes and one input small enough for the
    # whole-array update of the eager kernel; the bit kernel only reads its
    # input, which is read-only here
    from rbsys.linalg import _WHOLE_UPDATE_SIZE, _rref_gf2

    field, rng = GF(2), random.Random(600)
    holes = _dense(field, 30, 20, rng).num.copy()
    holes[[0, 7, 29]] = 0
    holes[:, [0, 5, 19]] = 0
    small = _dense(field, 12, 20, rng)
    assert small.rows * small.cols <= _WHOLE_UPDATE_SIZE
    arrays = [m.num for m in _eager_kernel_cases(field)] + [
        _dense(field, 40, 600, rng).num,
        Matrix.from_rows(field, [[int(rng.random() < 0.05) for _ in range(40)] for _ in range(600)]).num,
        holes,
        np.zeros((0, 7), dtype=np.int64),
        np.zeros((5, 0), dtype=np.int64),
        np.zeros((4, 9), dtype=np.int64),
        small.num,
    ]
    for a in arrays:
        a.setflags(write=False)
        _assert_matches_the_eager_kernel(_rref_gf2, a, 2)


def test_bit_kernel_matches_the_eager_kernel_on_every_gf2_slice():
    # every slice of degree 0 to 3 (delta, partial, phi, rbs) of the GF(2)
    # instances of the acceptance set and of the zero instance, as it is
    # and transposed, as the LES eliminates its spans
    from rbsys import RBS, Complexes
    from rbsys.linalg import _rref_gf2

    from instances import f2_zero_instance, instance_set
    from oracles import slice_of

    pairs = [pair for pair in instance_set(52) if pair[0].field == GF(2)] + [f2_zero_instance()]
    assert len(pairs) > 10
    for sys, mod in pairs:
        cx = Complexes(sys, mod)
        for n in range(4):
            for m in (cx.delta(n), cx.partial(n), cx.phi(n), slice_of(cx, RBS, n)):
                for a in (m.num, m.num.T):
                    _assert_matches_the_eager_kernel(_rref_gf2, a, 2)


def test_rational_rref_with_the_eager_kernel_is_unchanged(monkeypatch):
    # the multimodular RREF over Q, whose primes below 2^28 reduce every 64
    # steps, on mixed denominators and numerators past int64
    from rbsys import linalg

    rng = random.Random(31)
    scalars = [0, 1, -3, 2**62 + 7, -(2**61) + 3, Fraction(2**61 + 5, 3), Fraction(5, 2**35), Fraction(-7, 9)]
    m = Matrix.from_rows(QQ, [[rng.choice(scalars) for _ in range(24)] for _ in range(14)])
    m = vstack([m, m.take_rows(0, 4) + m.take_rows(4, 8)])
    _multimodular(monkeypatch)
    got, got_pivots = m.rref()
    monkeypatch.setattr(linalg, "_gauss_jordan", eager_gauss_jordan)
    want, want_pivots = Matrix(QQ, m.a).rref()
    assert got_pivots == want_pivots and len(got_pivots) == 14
    assert got.den == want.den and got.num.dtype == want.num.dtype and np.array_equal(got.num, want.num)


# -- assembly of Kronecker sums through strided views --------------------------


def _kron_terms(field, rng, scalars):
    """Terms (x, p, q, sign, stride, offset) that fit a 48 x 24 output, with
    strides and offsets, and a 48 x 24 base."""

    def mat(rows, cols):
        return Matrix.from_rows(field, [[rng.choice(scalars) for _ in range(cols)] for _ in range(rows)])

    terms = [
        (mat(12, 3), 1, 4, -1, 1, 0),  # as the stacked left action
        (mat(4, 2), 3, 4, 1, 1, 0),  # as mu^T inside I_3 (x) . (x) I_4
        (mat(2, 6), 2, 2, -1, 3, 2),  # p, q, stride and offset all past 1
        (mat(6, 6), 1, 4, 1, 2, 1),  # as a right-action slice
        (mat(0, 3), 1, 4, 1, 1, 0),
    ]
    return terms, mat(48, 24)


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(2**31 - 1), GF(4294967311), QQ], ids=repr)
def test_identity_kron_sum_matches_the_index_scatter(field):
    # entries, denominator and dtype, without and with a base; over Q with
    # mixed denominators and numerators past int64
    rng = random.Random(repr(field))
    if field.p is None:
        cases = [[0, 1, -2, Fraction(3, 4)], [0, 1, 2**62 + 9, Fraction(2**61 + 5, 3), Fraction(-1, 2**35)]]
    else:
        cases = [[0, 1, field.p - 1, rng.randrange(field.p)]]
    for scalars in cases:
        terms, base = _kron_terms(field, rng, scalars)
        # over GF(p) also a base stored column-major, whose copy keeps that order
        other = base.scale(Fraction(1, 6)) if field.p is None else Matrix(field, np.asfortranarray(base.num))
        for b in (None, base, other):
            got = Matrix.identity_kron_sum(field, (48, 24), terms, base=b)
            want = scatter_identity_kron_sum(field, (48, 24), terms, base=b)
            assert got.den == want.den and got.num.dtype == want.num.dtype
            assert np.array_equal(got.num, want.num) and got == want
            assert not got.is_zero()
            # a range of rows, with the base's rows in it: those rows
            for start, stop in [(0, 1), (5, 6), (3, 29), (17, 48), (1, 47), (0, 48)]:
                part = None if b is None else b.take_rows(start, stop)
                got = Matrix.identity_kron_sum(field, (48, 24), terms, base=part, rows=(start, stop))
                assert got == want.take_rows(start, stop)
    if field.p is None:
        assert any(x.num.dtype == object for x, *_ in terms)


def test_identity_kron_sum_refuses_a_term_that_does_not_fit():
    x = Matrix.identity(GF(5), 2)
    with pytest.raises(ValueError, match="does not fit"):
        Matrix.identity_kron_sum(GF(5), (8, 4), [(x, 1, 2, 1, 2, 2)])  # reaches row 8
    with pytest.raises(ValueError, match="does not fit"):
        Matrix.identity_kron_sum(GF(5), (8, 4), [(x, 3, 1, 1, 1, 0)])  # 6 columns
    fits = Matrix.identity_kron_sum(GF(5), (8, 4), [(x, 1, 2, 1, 2, 1)])  # the last row is 7
    assert fits == scatter_identity_kron_sum(GF(5), (8, 4), [(x, 1, 2, 1, 2, 1)])


def _multimodular(monkeypatch):
    """Send every Q elimination to the multimodular route, small ones too."""
    from rbsys import linalg

    monkeypatch.setattr(linalg, "_FRACTION_FREE_SIZE", 0)


def _primes_tried(monkeypatch, multimodular=True):
    """Record (prime, pivots) of every mod-p elimination; if multimodular,
    every Q input takes the multimodular route."""
    from rbsys import linalg

    if multimodular:
        _multimodular(monkeypatch)
    seen = []
    rref_mod = linalg._rref_mod

    def spy(a, p):
        r, pivots = rref_mod(a, p)
        seen.append((p, tuple(pivots)))
        return r, pivots

    monkeypatch.setattr(linalg, "_rref_mod", spy)
    return seen


def test_unlucky_prime_that_drops_the_rank(monkeypatch):
    seen = _primes_tried(monkeypatch)
    m = Matrix.from_rows(QQ, [[P1, 0, 3], [0, 1, 2], [2 * P1, 1, 9]])
    _assert_matches_oracle(m, Matrix.column(QQ, [1, 2, 3]))
    assert seen[0] == (P1, (1, 2))  # the first prime loses column 0
    assert (0, 1, 2) in [pivots for _, pivots in seen]
    assert m.rank() == 3


def test_unlucky_prime_that_shifts_a_pivot(monkeypatch):
    seen = _primes_tried(monkeypatch)
    m = Matrix.from_rows(QQ, [[P1, 1], [0, 0]])
    assert m.rref()[0].entries() == [[1, Fraction(1, P1)]]
    assert m.rref()[1] == (0,)
    assert seen[0] == (P1, (1,))
    _assert_matches_oracle(m, Matrix.column(QQ, [1, 0]))


def test_a_prime_with_later_pivots_is_skipped(monkeypatch):
    # 130 entries, past _FRACTION_FREE_SIZE: the multimodular route.  The
    # second prime q divides b[1, 1], so mod q column 2 takes the pivot of
    # column 1: pivots (0, 2), of full rank but lexicographically after the
    # (0, 1) of the first prime, so that prime is neither kept nor combined
    from rbsys import linalg

    q = _prime(1)
    b = np.zeros((2, 65), dtype=np.int64)
    b[0, 0], b[0, 2], b[1, 1], b[1, 2] = 1, 3, q, 5
    seen = _primes_tried(monkeypatch, multimodular=False)
    block, den, pivots = linalg._rref_rational(b)
    assert seen == [(_prime(0), (0, 1)), (q, (0, 2)), (_prime(2), (0, 1)), (_prime(3), (0, 1))]
    assert pivots == [0, 1] and den == q
    exact, exact_den, exact_pivots = linalg._fraction_free(b)
    assert np.array_equal(block, exact) and (den, pivots) == (exact_den, exact_pivots)
    rref, sympy_pivots = sympy_rref(Matrix.from_rows(QQ, b.tolist()))
    assert sympy_pivots == (0, 1)
    assert [[Fraction(int(x), den) for x in row] for row in block] == [row[2:] for row in rref]


def test_a_wrong_mod_p_kernel_fails_within_the_prime_budget(monkeypatch):
    # a kernel whose RREF is off by one in an entry never certifies; the
    # multimodular RREF gives up, as a kernel bug, after the primes that a
    # correct kernel needs at most, instead of trying primes forever.  The
    # larger matrix has r = 3 and bmax = 2^40, so bits = 3 * bitlen(3 * 2^80)
    # = 246 and the budget is ceil(246 / 54) + ceil(247 / 27) = 5 + 10 = 15
    from rbsys import linalg

    _multimodular(monkeypatch)
    seen = []
    rref_mod = linalg._rref_mod

    def wrong(a, p):
        r, pivots = rref_mod(a, p)
        r[0, -1] = (r[0, -1] + 1) % p
        seen.append(p)
        return r, pivots

    monkeypatch.setattr(linalg, "_rref_mod", wrong)
    for rows in ([[1, 2, 3], [4, 5, 6]], [[P1, 1, 0, 7], [0, 2, 3, 1], [5, 0, 1, 2**40]]):
        seen.clear()
        m = Matrix.from_rows(QQ, rows)
        with pytest.raises(AssertionError, match="prime budget"):
            m.rref()
        assert len(seen) == linalg._prime_budget(m.shape, linalg._mag(m.num)) <= 15


def test_entries_that_need_several_primes(monkeypatch):
    seen = _primes_tried(monkeypatch)
    big = Fraction(10**40, 3**25)
    m = Matrix.from_rows(QQ, [[big, 1, 2], [1, Fraction(3, 7), 5]])
    r, _ = m.rref()
    assert r.entries()[1][2] == Fraction(
        349999999999999999999999999988137959467798, 29999999999999999999999999994068979733899
    )
    assert len({p for p, _ in seen}) > 3
    _assert_matches_oracle(m, Matrix.column(QQ, [big, -1]))


def test_a_denominator_between_the_reach_of_one_small_and_one_large_prime(monkeypatch):
    # the RREF has L = 14999 and |n| <= 448: one prime below 2^31 reconstructs
    # it (|n|, L <= sqrt((2^31 - 1) / 2) = 32767), but one below 2^28 does not
    # (sqrt(P1 / 2) = 11585), so at least two primes are kept
    seen = _primes_tried(monkeypatch)
    m = Matrix.from_rows(QQ, [[150, 1, 2], [1, 100, 3]])
    r, pivots = m.rref()
    assert r.den == 14999 and math.isqrt(P1 // 2) < r.den < 2**15
    assert len([p for p, piv in seen if piv == pivots]) >= 2
    _assert_matches_oracle(m, Matrix.column(QQ, [1, Fraction(1, 3)]))


def test_reconstruction_on_int64_arrays_equals_it_on_python_ints():
    # one prime's residues, lifted as one column, give the numerators and
    # denominator of the list reconstruction, or fail where it finds none,
    # as an int64 array and as Python ints: integers, denominators that grow
    # the common one, one past sqrt(P1 / 2), an integer that the grown
    # denominator pushes past the bound, residues of no small rational
    from rbsys import linalg

    rng = random.Random(41)

    def residues(values):
        return [Fraction(v).numerator * pow(Fraction(v).denominator, -1, P1) % P1 for v in values]

    cases = [
        residues(Fraction(rng.randint(-50, 50), rng.choice(dens)) for _ in range(40))
        for dens in ([1], [1, 2, 3], [7, 11, 13], [1, 11587])
    ]
    cases += [residues([Fraction(1, 2), 10000]), [rng.randrange(P1) for _ in range(40)], []]
    for x in cases:
        want = reconstruct_list(x, P1)
        for dtype in (np.int64, object):
            num, dens, failed = linalg._lift(np.array(x, dtype=dtype).reshape(len(x), 1), P1)
            assert num.dtype == np.int64 and num.shape == (len(x), 1)
            if want is None:
                assert failed == [0] and dens.tolist() == [0] and not num.any()
            else:
                assert failed == [] and dens.tolist() == [want[1]] and num[:, 0].tolist() == want[0]
    assert [reconstruct_list(x, P1) is None for x in cases] == [False, False, False, True, True, True, False]


@pytest.mark.parametrize("primes", [1, 2])
def test_lift_matches_the_list_reconstruction_column_by_column(primes):
    # columns of residues mod one prime (int64 arithmetic) and mod the
    # product of two (Python ints), given as int64 and as Python ints: each
    # column lifts with its own denominator exactly as the list
    # reconstruction lifts it alone, and the columns it cannot lift fail
    from rbsys import linalg

    m = math.prod(_prime(i) for i in range(primes))
    rng = random.Random(primes)
    bound = math.isqrt(m // 2)

    def column(values):
        return [Fraction(v).numerator * pow(Fraction(v).denominator, -1, m) % m for v in values]

    def draw(dens, top):
        return column(Fraction(rng.randint(-top, top), rng.choice(dens)) for _ in range(12))

    # integers; denominators whose lcm, 21 or 495, stays within the bound;
    # 1/q and 1/(q + 1), whose lcm passes it; residues of no small rational;
    # halves; zeros
    q = bound // 2
    cols = [draw([1], bound), draw([1, 3, 7], bound // 21), draw([5, 9, 11], bound // 495)]
    cols += [column([Fraction(1, q), Fraction(1, q + 1)] + [0] * 10), [rng.randrange(m) for _ in range(12)]]
    cols += [draw([2], bound // 2), [0] * 12]
    # 1/2 and 1/r with bound < 2 r <= 2 bound: the lcm passes the bound by
    # less than a factor of 2
    r = (q + 1) | 1
    cols.append(column([Fraction(1, 2), Fraction(1, r)] + [0] * 10))
    wants = [reconstruct_list(c, m) for c in cols]
    assert [w is None for w in wants] == [False, False, False, True, True, False, False, True]
    for dtype in (np.int64, object):
        x = np.array(cols, dtype=dtype).T
        num, dens, failed = linalg._lift(x, m)
        assert num.dtype == (np.int64 if primes == 1 else object)
        assert sorted(failed) == [j for j, w in enumerate(wants) if w is None]
        for j, want in enumerate(wants):
            if want is None:
                assert dens[j] == 0 and not num[:, j].any()
            else:
                assert (num[:, j].tolist(), dens[j]) == want


# -- the fraction-free route over Q -------------------------------------------


def _fraction_free_cases():
    """Q matrices of at most _FRACTION_FREE_SIZE entries: 1 x n and n x 1 up
    to the cut-over, zero rows and columns, rank-deficient products, entries
    past 2^62 and denominators past 2^31."""
    from rbsys.linalg import _FRACTION_FREE_SIZE

    rng = random.Random(127)
    small = [0, 0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-7, 3)]
    huge = small + [2**62 + 7, -(2**63) + 1, Fraction(2**70 + 1, 3), Fraction(5, 2**31 + 11), Fraction(-1, 2**40)]

    def mat(rows, cols, scalars):
        return Matrix.from_rows(QQ, [[rng.choice(scalars) for _ in range(cols)] for _ in range(rows)])

    cases = []
    for scalars in (small, huge):
        for rows, cols in ((1, _FRACTION_FREE_SIZE), (_FRACTION_FREE_SIZE, 1), (1, 1), (1, 7), (7, 1), (8, 16), (16, 8)):
            cases.append(mat(rows, cols, scalars))
        for rows, inner, cols in ((6, 2, 9), (9, 3, 6), (11, 1, 11), (4, 4, 4), (3, 5, 8)):
            cases.append(mat(rows, inner, scalars) @ mat(inner, cols, scalars))
        holes = mat(10, 12, scalars).num.copy()
        holes[[0, 4, 9]] = 0
        holes[:, [0, 5, 11]] = 0
        cases.append(Matrix.rational(holes.ravel().tolist(), 1, holes.shape))
    cases += [Matrix.zeros(QQ, 4, 6), Matrix.zeros(QQ, 0, 5), Matrix.zeros(QQ, 5, 0)]
    assert all(m.rows * m.cols <= _FRACTION_FREE_SIZE for m in cases)
    assert any(m.num.dtype == object for m in cases) and any(m.den > 2**31 for m in cases)
    return cases


def test_fraction_free_route_matches_sympy(monkeypatch):
    # no prime is tried for the RREF up to the cut-over, and the RREF,
    # pivots, kernel and solve are sympy's (solve eliminates [m | b], which
    # may lie past the cut-over)
    seen = _primes_tried(monkeypatch, multimodular=False)
    rng = random.Random(128)
    for m in _fraction_free_cases():
        m.rref()
        assert seen == []
        b = Matrix.column(QQ, [rng.choice([0, 1, -2, Fraction(3, 5)]) for _ in range(m.rows)])
        _assert_matches_oracle(m, b)
        seen.clear()


def test_fraction_free_route_is_byte_equal_to_the_multimodular_route(monkeypatch):
    from rbsys import linalg

    cases = _fraction_free_cases()
    got = [linalg._rref_array(m.num, QQ) for m in cases]
    _multimodular(monkeypatch)
    for m, (r, den, pivots) in zip(cases, got):
        want, want_den, want_pivots = linalg._rref_array(m.num, QQ)
        assert (den, pivots) == (want_den, want_pivots) and type(den) is int
        assert r.dtype == want.dtype and r.shape == want.shape and np.array_equal(r, want)
        assert [type(x) for x in r.ravel().tolist()] == [type(x) for x in want.ravel().tolist()]


def test_the_cut_over_sends_the_next_size_to_the_primes(monkeypatch):
    # at the cut-over no prime is tried; one entry more and one prime
    # reconstructs and certifies
    from rbsys.linalg import _FRACTION_FREE_SIZE

    seen = _primes_tried(monkeypatch, multimodular=False)
    rng = random.Random(129)
    for cols, primes in ((_FRACTION_FREE_SIZE, []), (_FRACTION_FREE_SIZE + 1, [P1])):
        seen.clear()
        m = Matrix.from_rows(QQ, [[rng.choice([0, 1, -2, 3]) for _ in range(cols)]])
        assert m.rref()[0].entries() == sympy_rref(m)[0]
        assert [p for p, _ in seen] == primes


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(data=st.data())
def test_multimodular_route_matches_sympy_on_small_matrices(data):
    # the oracle cases of test_elimination_matches_sympy over Q, which the
    # fraction-free route takes, on the multimodular route
    from rbsys import linalg

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_FRACTION_FREE_SIZE", 0)
        _assert_matches_oracle(*data.draw(_matrix_pair(QQ)))


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_zero_empty_and_zero_row_matrices(field):
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        zero = Matrix.zeros(field, rows, cols)
        r, pivots = zero.rref()
        assert r == Matrix.zeros(field, 0, cols) and pivots == ()
        assert zero.kernel_basis() == Matrix.identity(field, cols)
    m = Matrix.from_rows(field, [[0, 0, 0], [0, 1, 2], [0, 0, 0], [0, 2, 4]])
    _assert_matches_oracle(m, Matrix.column(field, [0, 1, 0, 2]))


def owns_its_storage(a):
    """Whether the array a is no view of a larger buffer."""
    root = a
    while root.base is not None:
        root = root.base
    return root.nbytes == a.nbytes


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(2**31 - 1), QQ], ids=repr)
def test_an_rref_holds_its_rank_rows_in_storage_of_its_own(field):
    # a tall matrix (the blocked path), a short one (Gauss-Jordan) and a
    # zero one: R has one row per pivot, and R's array is no view of the
    # elimination's scratch array, which has a row per row of the matrix
    from rbsys import linalg

    rng = random.Random(repr(field))
    tall, short = 2 * linalg._block_rows(30) + 5, 10
    for m in (
        random_matrix(field, tall, 6, rng) @ random_matrix(field, 6, 30, rng),
        random_matrix(field, short, 4, rng) @ random_matrix(field, 4, 12, rng),
        Matrix.zeros(field, short, 12),
    ):
        r, pivots = m.rref()
        assert r.rows == len(pivots) == m.rank() < m.rows and r.cols == m.cols
        assert owns_its_storage(r.num)


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(4294967311), QQ], ids=repr)
def test_row_blocks_tile_the_rows(field):
    # the ranges tile [0, rows) in order; over Q and below 2^18 entries
    # they are one range, the whole matrix, and otherwise each is at most
    # the block height of elimination.  Only ranges are computed
    from rbsys.linalg import _block_rows, row_blocks

    shapes = [(0, 4096), (1, 4096), (1, 2**18 - 1), (2**18 - 1, 1), (1, 2**18), (512, 512), (2**18, 1), (16384, 4096)]
    for rows, cols in shapes:
        ranges = row_blocks(field, (rows, cols))
        assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
        assert ranges[-1][1] == rows
        if field == QQ or rows * cols < 2**18:
            assert ranges == [(0, rows)]
        else:
            height = _block_rows(cols)
            assert all(0 < stop - start <= height for start, stop in ranges)
            assert len(ranges) == -(-rows // height)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_rref_rows_takes_one_block_as_the_matrix(field):
    # a block that covers the matrix gives its canonical kernel basis and
    # pivots and leaves no RREF on it; over GF(p), rows in several blocks
    # give the same basis, dtype included, read off the streamed echelon
    from rbsys.linalg import rref_rows

    rng = random.Random(43)
    for rows, inner in ((9, 6), (9, 1), (3, 7), (12, 7)):
        m = random_matrix(field, rows, inner, rng) @ random_matrix(field, inner, 7, rng)
        whole = rref_rows(field, m.shape, iter([m]))
        kernel, pivots = whole.kernel(), whole.pivots
        assert m._rref is None
        assert kernel == m.kernel_basis() and pivots == m.rref()[1]
        if field != QQ:
            blocks = (m.take_rows(s, s + 4) for s in range(0, m.rows, 4))
            streamed = rref_rows(field, m.shape, blocks)
            streamed, streamed_pivots = streamed.kernel(), streamed.pivots
            assert streamed_pivots == pivots and streamed == kernel
            assert streamed.num.dtype == kernel.num.dtype


def test_rational_rref_is_all_fractions():
    r, pivots = Matrix.from_rows(QQ, [[2, 4, 1], [1, 2, 0]]).rref()
    assert pivots == (0, 2)
    assert r.entries() == [[1, 2, 0], [0, 0, 1]]
    assert all(type(x) is Fraction for row in r.entries() for x in row)


def test_rank_ladder_rational_slice_matches_sympy():
    # the unscrambled pair of the rl_q_tri_deg3 rung of the benchmark:
    # its degree-3 slice is 405 x 135
    sys = triangular_system(QQ, -1, 1)
    m = rbs_d(3, sys, regular_bimodule(sys)).matrix
    assert m.shape == (405, 135)
    r, pivots = m.rref()
    assert (r.entries(), pivots) == sympy_rref(m)
    assert len(pivots) == 70


@pytest.mark.parametrize(
    "rows, low, high, dtype",
    [
        ([[1, 2, 3, 4], [Fraction(1, 2), 1, 7, Fraction(2, 3)], [0, 5, 1, 1]], 0, 2**63, np.int64),
        ([[Fraction(10**40, 3**25), 1, 2], [1, Fraction(3, 7), 5]], 2**63, math.inf, object),
    ],
    ids=["int64-check", "python-int-check"],
)
def test_certificate_rejects_a_wrong_candidate(monkeypatch, rows, low, high, dtype):
    # the bound h of the wrong candidate's check picks the path of its one
    # product: int64 below 2^63, Python ints above
    from rbsys import linalg

    lift, certified = linalg._lift, linalg._certified
    candidates, checks = [], []

    def wrong_once(x, m):
        num, dens, failed = lift(x, m)
        if not failed:
            candidates.append((num, dens))
            if len(candidates) == 1:
                num = num.copy()
                num[0, 0] += 1
        return num, dens, failed

    def spy(b, h, *args):
        start = len(products)
        ok = certified(b, h, *args)
        checks.append((h, ok, [dtype for _, _, dtype in products[start:]]))
        return ok

    _multimodular(monkeypatch)
    products = _products(monkeypatch)
    monkeypatch.setattr(linalg, "_lift", wrong_once)
    monkeypatch.setattr(linalg, "_certified", spy)
    m = Matrix.from_rows(QQ, rows)
    assert m.rref() == (Matrix.from_rows(QQ, sympy_rref(m)[0]), sympy_rref(m)[1])
    assert len(candidates) >= 2
    assert checks[0][1] is False and low <= checks[0][0] < high and checks[0][2] == [dtype]


def test_certificate_of_int64_entries_past_2_63():
    # int64 entries of about 2^30 whose RREF has the denominator L of a 2 x 2
    # minor, about 2^56: both sides of b[:, F] L = b[:, P] (L R) pass 2^63,
    # so neither may be taken in int64
    from rbsys import linalg

    m = Matrix.from_rows(QQ, [[2**30 + 3, 2**30 - 5, 2**30 + 7], [2**29 + 11, 2**30 + 13, 2**30 + 1]])
    entries, pivots = sympy_rref(m)
    den = math.lcm(*(Fraction(row[2]).denominator for row in entries))
    num = np.array([[int(Fraction(row[2]) * den)] for row in entries], dtype=object)
    free = np.array([False, False, True])
    h = 2**31 * (den + 2 * max(abs(x) for x in num.ravel().tolist()))
    assert m.num.dtype == np.int64 and 2**56 < den < 2**62 and 2**63 <= h
    assert linalg._certified(m.num, h, list(pivots), free, num, den)
    num[0, 0] += 1
    assert not linalg._certified(m.num, h, list(pivots), free, num, den)


# -- integer products over Q -----------------------------------------------


def _fractions(m):
    """The entries of a Q Matrix as an object array of Fractions."""
    return np.array([Fraction(x) for row in m.entries() for x in row], dtype=object).reshape(m.shape)


def _assert_exact(got, want):
    """A Q Matrix equals an object array, entry for entry, in Python scalars."""
    assert got.shape == want.shape
    assert got.entries() == want.tolist()
    assert all(type(x) in (int, Fraction) for row in got.entries() for x in row)


@st.composite
def _rational_factors(draw):
    """Factors for a @ b: small, huge (about 2^62) and non-integral entries,
    empty shapes, and now and then a zero factor."""
    huge = st.integers(2**62 - 2, 2**62 + 2)
    scalar = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.fractions(-(10**6), 10**6, max_denominator=10**4),
        st.fractions(-(2**70), 2**70, max_denominator=2**40),
        huge,
        huge.map(operator.neg),
    )

    def factor(rows, cols):
        if rows == 0 or cols == 0 or draw(st.integers(0, 3)) == 0:
            return Matrix.zeros(QQ, rows, cols)
        return Matrix.from_rows(QQ, [[draw(scalar) for _ in range(cols)] for _ in range(rows)])

    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    return factor(rows, inner), factor(inner, cols)


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(factors=_rational_factors())
def test_rational_products_match_fraction_arithmetic(factors):
    a, b = factors
    fa, fb = _fractions(a), _fractions(b)
    _assert_exact(a @ b, np.dot(fa, fb))
    _assert_exact(a.kron(b), np.kron(fa, fb))
    _assert_exact(b.kron(a), np.kron(fb, fa))


def test_rational_product_of_a_zero_factor_and_huge_entries():
    # a zero factor must not let the other, unbounded one into int64
    huge = Matrix.from_rows(QQ, [[2**70, Fraction(1, 3)], [-(2**65), 5]])
    zero = Matrix.zeros(QQ, 2, 2)
    for a, b in ((zero, huge), (huge, zero)):
        _assert_exact(a @ b, np.dot(_fractions(a), _fractions(b)))
        _assert_exact(a.kron(b), np.kron(_fractions(a), _fractions(b)))
    empty = Matrix.zeros(QQ, 0, 2) @ huge
    assert empty.shape == (0, 2)
    assert (huge @ Matrix.zeros(QQ, 2, 0)).shape == (2, 0)


def _products(monkeypatch):
    """Record every exact integer product (linalg._dot) as (inner size,
    bound, dtype of the result)."""
    from rbsys import linalg

    seen, dot = [], linalg._dot

    def spy(x, y, bound, floats=None):
        out = dot(x, y, bound, floats)
        seen.append((x.shape[1], bound, out.dtype))
        return out

    monkeypatch.setattr(linalg, "_dot", spy)
    return seen


def test_rational_product_measures_factors_whose_bound_is_loose(monkeypatch):
    # c a - c a + a carries the bound 2 c max|a| + max|a| however small its
    # entries; the product measures the factors before it leaves int64
    rng = random.Random(7)
    a, y = random_matrix(QQ, 6, 300, rng), random_matrix(QQ, 300, 5, rng)
    loose = a.scale(2**58) - a.scale(2**58) + a
    assert loose == a and loose._mag * max(y._mag, 1) * 300 >= 2**63
    products = _products(monkeypatch)
    product = loose @ y
    assert len(products) == 1 and products[0][1] < 2**62 and products[0][2] == np.int64
    assert product == a @ y


@pytest.mark.parametrize(
    "entry, inner, dtype",
    [
        (2**30 - 1, 1, np.int64),
        (2**30, 1, object),
        (2**30, 2, object),
        (2**30, 3, object),
        (2**30, 4, object),
        (2**31 - 1, 1, object),
        (2**31, 2, object),
    ],
)
def test_rational_product_either_side_of_the_int64_bound(monkeypatch, entry, inner, dtype):
    # over the denominator 2 an entry n is stored as 2n, so the product's
    # bound is max|x| max|y| k = (2 entry)^2 inner: the product runs in int64
    # below 2^63 and on Python ints from there, where a sum of (2^31)^2 +
    # (2^31)^2 = 2^63 would wrap; the result is stored as int64 below 2^62
    # and as Python ints from there, so (2^30 - 1, 1) is the last product
    # stored as int64 and (2^30, 1) runs in int64 but is stored as Python ints
    products = _products(monkeypatch)
    half = Fraction(1, 2)  # keeps both factors off the all-int path
    a = Matrix.from_rows(QQ, [[entry] * inner, [half] * inner])
    b = Matrix.from_rows(QQ, [[entry, half]] * inner)
    c = a @ b
    _assert_exact(c, np.dot(_fractions(a), _fractions(b)))
    assert c.num.dtype == dtype
    assert products == [(inner, (2 * entry) ** 2 * inner, np.int64 if (2 * entry) ** 2 * inner < 2**63 else object)]


@pytest.mark.parametrize("p", [2, 5, 40009, 2**31 - 1, 4294967311])
def test_prime_field_kron_matches_numpy(p):
    # one outer product, as np.kron, on the int64 and the object dtypes;
    # also every range of its rows
    field = GF(p)
    rng = random.Random(p)
    for (r, c), (s, t) in [((2, 3), (3, 2)), ((1, 4), (4, 1)), ((0, 2), (2, 3)), ((2, 0), (3, 3)), ((3, 2), (4, 3))]:
        a, b = random_matrix(field, r, c, rng), random_matrix(field, s, t, rng)
        want = np.kron(a.a, b.a) % p
        got = a.kron(b)
        assert got.shape == want.shape
        assert got.entries() == want.tolist()
        assert got.a.dtype == field.dtype
        for start, stop in itertools.combinations(range(r * s + 1), 2):
            part = a.kron(b, (start, stop))
            assert part.entries() == want[start:stop].tolist() and part.a.dtype == field.dtype


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(40009), GF(4294967311), QQ], ids=repr)
def test_times_is_the_product_by_the_identity_kronecker_factors(field):
    # y.times(x, p, q) = y @ (I_p (x) x (x) I_q), canonical; over Q the
    # entries are products of base changes, with denominators 1, 2, 3 and
    # 7 mixed and numerators past 2^62
    rng = random.Random(41)
    k, b = 3, 2

    def matrix(rows, cols):
        if field.p is not None:
            return random_matrix(field, rows, cols, rng)
        n = max(rows, cols)
        return (rational_base_change(n, rng) @ rational_base_change(n, rng)).take(0, rows, 0, cols)

    dens, dtypes = set(), set()
    for p, q in [(1, 1), (1, k), (k, 1), (2, 3)]:
        x = matrix(k, b)
        for rows in (1, 2):
            y = matrix(rows, p * k * q)
            ids = [Matrix.identity(field, p), x, Matrix.identity(field, q)]
            assert y.times(x, p, q) == y @ kron_all(field, ids)
            dens |= {x.den, y.den}
            dtypes |= {x.num.dtype, y.num.dtype}
    if field.p is None:
        assert len(dens) > 1 and np.dtype(object) in dtypes
    with pytest.raises(ValueError):
        matrix(2, 5).times(matrix(k, b), 1, 2)
    with pytest.raises(ValueError):
        matrix(2, k).times(Matrix.zeros(GF(3) if field == QQ else QQ, k, b))


# -- integer storage: numerators over one denominator, int64 residues ---------


def test_column_of_no_entries_is_one_column_wide():
    for field in (QQ, GF(5), GF(2147483659)):
        assert Matrix.column(field, []).shape == (0, 1)
        assert Matrix.column(field, [1, 2]).shape == (2, 1)


def _assert_canonical(m):
    """A Q Matrix stores num / den with den > 0 and gcd(num, den) = 1, and
    int64 numerators exactly while every |n| < 2^62."""
    assert m.den > 0
    assert math.gcd(int(np.gcd.reduce(m.num, axis=None)), m.den) == 1
    small = all(abs(x) < 2**62 for row in m.num.tolist() for x in row)
    assert m.num.dtype == (np.int64 if small else object)


@st.composite
def _rational_operands(draw):
    """Factors a, b of _rational_factors, and c of a's shape whose entries
    are those of a second draw, cycled."""
    a, b = draw(_rational_factors())
    pool = [x for m in draw(_rational_factors()) for row in m.entries() for x in row] or [0]
    cycled = [[pool[(i * a.cols + j) % len(pool)] for j in range(a.cols)] for i in range(a.rows)]
    return a, b, (Matrix.from_rows(QQ, cycled) if a.rows else Matrix.zeros(QQ, 0, a.cols))


def _block_diag_fractions(x, y):
    out = np.full((x.shape[0] + y.shape[0], x.shape[1] + y.shape[1]), Fraction(0), dtype=object)
    out[: x.shape[0], : x.shape[1]] = x
    out[x.shape[0] :, x.shape[1] :] = y
    return out


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(operands=_rational_operands())
def test_rational_arithmetic_matches_fraction_arithmetic(operands):
    a, b, c = operands
    fa, fb, fc = _fractions(a), _fractions(b), _fractions(c)
    results = [
        (a + c, fa + fc),
        (a - c, fa - fc),
        (-a, -fa),
        (a.transpose(), fa.T),
        (hstack([a, c]), np.concatenate([fa, fc], axis=1)),
        (vstack([a, c]), np.concatenate([fa, fc], axis=0)),
        (block_diag([a, b]), _block_diag_fractions(fa, fb)),
        (a @ b, np.dot(fa, fb)),
        (a.kron(b), np.kron(fa, fb)),
    ]
    for s in (0, -1, Fraction(3, 7), 2**62 + 1, Fraction(-(2**40), 3)):
        results.append((a.scale(s), fa * s))
    # a denominator past int64 over numerators that may still be int64
    t = Fraction(1, 3**41)
    tiny, ft = a.scale(t), fa * t
    results += [
        (tiny - tiny, ft - ft),
        (tiny.scale(0), ft * 0),
        (tiny @ b, np.dot(ft, fb)),
        (tiny.kron(b), np.kron(ft, fb)),
        (b.kron(tiny), np.kron(fb, ft)),
        (hstack([c, tiny]), np.concatenate([fc, ft], axis=1)),
    ]
    for got, want in results:
        _assert_exact(got, want)
        _assert_canonical(got)
    assert (a + c) - c == a
    assert (a - a).is_zero() and (a - a).den == 1
    if a.rows and a.cols:
        _assert_matches_oracle(a, c)
        x = a.solve(a @ b)
        assert x is not None and a @ x == a @ b
        _assert_canonical(x)


def test_int64_numerators_over_a_denominator_past_int64():
    # products multiply denominators, so int64 numerators can sit over a
    # denominator of 2^63 or more; a zero result is zero over 1
    t = Fraction(1, 3**20)
    x, y = Matrix.from_rows(QQ, [[t, 0]]), Matrix.from_rows(QQ, [[0], [t]])
    a = x.kron(Matrix.from_rows(QQ, [[t, 2]]))
    assert a.num.dtype == np.int64 and a.den == 3**40 > 2**63
    huge = Matrix.column(QQ, [2**62 + 5, 1, Fraction(1, 2**64), -3])
    zero = Matrix.zeros(QQ, 2, 2)
    fa, fhuge, fzero = _fractions(a), _fractions(huge), _fractions(zero)
    cases = [
        (x @ y, np.dot(_fractions(x), _fractions(y))),
        (a - a, fa - fa),
        (a.scale(0), fa * 0),
        (a.kron(zero), np.kron(fa, fzero)),
        (zero.kron(a), np.kron(fzero, fa)),
        (a.take(0, 1, 2, 4), fa[:, 2:4]),
        (a @ huge, np.dot(fa, fhuge)),  # max|x| max|y| k passes 2^62
        (huge.transpose() @ a.transpose(), np.dot(fhuge.T, fa.T)),
    ]
    for got, want in cases:
        _assert_exact(got, want)
        _assert_canonical(got)
    assert (a - a).den == 1 and (a - a).num.dtype == np.int64


@pytest.mark.parametrize("p", [P1, 2**31 - 1, 4294967311])
def test_prime_field_products_match_python_ints(monkeypatch, p):
    # int64 below 2^31 takes one product per run of inner terms whose sum
    # stays below 2^63 (128 for P1, 2 for 2^31 - 1), each reduced mod p;
    # 4294967311 stores Python ints and takes one product on them
    field = GF(p)
    rng = random.Random(p)
    step = {P1: 128, 2**31 - 1: 2}.get(p)
    products = _products(monkeypatch)
    for inner in (1, 2, 3, 5, 64, 128, 129, 300):
        products.clear()
        # entries near p - 1, the worst case for a sum of products
        a = [[rng.choice([p - 1, p - 2, rng.randrange(p)]) for _ in range(inner)] for _ in range(3)]
        b = [[rng.choice([p - 1, p - 2, rng.randrange(p)]) for _ in range(4)] for _ in range(inner)]
        got = Matrix.from_rows(field, a) @ Matrix.from_rows(field, b)
        want = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
        assert got.entries() == want
        assert got.num.dtype == field.dtype
        if step is None:
            assert products == []
        else:
            # one product of bound inner (p - 1)^2, or runs of bound step (p - 1)^2
            runs = [min(step, inner - s) for s in range(0, inner, step)]
            assert products == [(k, min(inner, step) * (p - 1) ** 2, np.int64) for k in runs]
            assert step * (p - 1) ** 2 < 2**63 <= (step + 1) * (p - 1) ** 2
        kron = Matrix.from_rows(field, a).kron(Matrix.from_rows(field, b))
        assert kron.entries() == [[x * y % p for x in ra for y in rb] for ra in a for rb in b]


def _full_product(p, inner):
    """The 1 x 1 product over GF(p) of a row and a column of inner entries
    p - 1, whether it ran in float64, and its Python-int sum.  The column is
    a factor, which keeps a float64 copy exactly when a product by it runs
    in float64; the factors are broadcast views, so only that copy
    allocates."""
    field = GF(p)
    row = Matrix(field, np.broadcast_to(np.int64(p - 1), (1, inner)))
    col = Matrix(field, np.broadcast_to(np.int64(p - 1), (inner, 1))).factor()
    return (row @ col)[0, 0], bool(col._float), inner * (p - 1) ** 2 % p


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_a_factor_multiplies_like_its_matrix_and_converts_once(field):
    # products by a factor equal those by the matrix, dtype included;
    # over GF(p) the float64 products share one conversion, kept on the
    # factor, and the int64 and object products make none
    rng = random.Random(53)
    k = random_matrix(field, 40, 7, rng)
    f = k.factor()
    assert f == k
    floats = 0
    for rows in (1, 30, 90, 60):  # 30 rows and more run in float64 where k (p - 1)^2 < 2^53
        x = random_matrix(field, rows, 40, rng)
        got, want = x @ f, x @ k
        assert got == want and got.num.dtype == want.num.dtype
        floats += rows >= 30 and field.p is not None and 40 * (field.p - 1) ** 2 < 2**53
    if field.p is None:
        assert f._float == []
    else:
        assert len(f._float) == min(floats, 1)
        assert all(a.dtype == np.float64 and np.array_equal(a, k.num) for a in f._float)


# 94906249 < sqrt(2^53) < 94906297, the primes either side
@pytest.mark.parametrize("p", [40009, 94906249])
def test_float_products_are_exact_up_to_the_bound(monkeypatch, p):
    # entries all p - 1 make every partial sum as large as it can be; the
    # largest inner size k with k (p - 1)^2 < 2^53 (5,627,208 for 40009)
    # runs in float64, k + 1 in int64, and both agree with Python ints
    from rbsys import linalg

    monkeypatch.setattr(linalg, "_FLOAT_RATIO", 0)  # only the exactness bound decides
    k = (2**53 - 1) // (p - 1) ** 2
    assert k * (p - 1) ** 2 < 2**53 <= (k + 1) * (p - 1) ** 2
    taken = []
    for inner in (k, k + 1):
        got, floated, want = _full_product(p, inner)
        assert got == want
        taken += [inner] * floated
    assert taken == [k]


@pytest.mark.parametrize("p", [94906297, 2**31 - 1])
def test_no_float_products_past_the_square_root_of_2_53(monkeypatch, p):
    # one product (p - 1)^2 already reaches 2^53
    from rbsys import linalg

    monkeypatch.setattr(linalg, "_FLOAT_RATIO", 0)  # only the exactness bound decides
    assert (p - 1) ** 2 >= 2**53
    for inner in (1, 2, 3, 64):
        got, floated, want = _full_product(p, inner)
        assert got == want and not floated


@st.composite
def _int64_arrays(draw):
    """int64 arrays with entries in (-2^62, 2^62), of sizes either side of
    _FLOOR_DIVIDE_SIZE, and now and then a strided column slice."""
    from rbsys.linalg import _FLOOR_DIVIDE_SIZE

    size = draw(st.sampled_from([0, 1, 7, _FLOOR_DIVIDE_SIZE - 1, _FLOOR_DIVIDE_SIZE, 3 * _FLOOR_DIVIDE_SIZE + 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-(2**62) + 1, 2**62, size=size, dtype=np.int64)
    # extremes and small values, where a wrong rounding would show
    if size:
        for i in draw(st.lists(st.integers(0, size - 1), max_size=8)):
            x[i] = draw(st.sampled_from([-(2**62) + 1, 2**62 - 1, -1, 0, 1]))
    if size > 1 and draw(st.booleans()):
        return x.reshape(size, 1)[::2, :]  # a strided view, as a[:, c:]
    return x.reshape(1, size)


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(x=_int64_arrays(), p=st.sampled_from([2, 5, 40009, P1, 2**31 - 1]))
def test_floor_division_reduction_equals_the_remainder(x, p):
    from rbsys.linalg import _mod

    got, want = _mod(x, p), x % p
    assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
    # in place, into the array itself, a strided view included
    base = np.zeros((x.shape[0], x.shape[1] + 1), dtype=np.int64)
    view = base[:, 1:]
    view[...] = x
    assert _mod(view, p, out=view) is view
    assert np.array_equal(view, want) and not base[:, 0].any()


def test_python_int_arrays_are_reduced_by_the_remainder():
    # object arrays (GF(4294967311), or numerators past int64) take % even
    # when large, and stay Python ints
    from rbsys import linalg

    p = 4294967311
    rng = random.Random(p)
    x = np.array([rng.randrange(-(2**70), 2**70) for _ in range(3 * linalg._FLOOR_DIVIDE_SIZE)], dtype=object)
    got = linalg._mod(x, p)
    assert got.dtype == object and got.tolist() == [v % p for v in x.tolist()]


def test_fraction_view_types():
    # a matrix built from Python scalars keeps them; arithmetic results read
    # as ints where the denominator is 1 and Fractions elsewhere
    given = Matrix.from_rows(QQ, [[Fraction(4, 2), 3], [Fraction(1, 2), 0]])
    assert [type(x) for row in given.entries() for x in row] == [Fraction, int, Fraction, int]
    assert (given.den, given.num.tolist()) == (2, [[4, 6], [1, 0]])
    doubled = given.scale(2)
    assert doubled.entries() == [[4, 6], [1, 0]]
    assert all(type(x) is int for row in doubled.entries() for x in row)
    assert [type(x) for x in given.scale(Fraction(1, 3)).entries()[1]] == [Fraction, int]
