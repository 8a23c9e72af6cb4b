import random
from fractions import Fraction

import pytest

from rbsys import (
    ALG,
    GF,
    QQ,
    RBS,
    RBSO,
    Cochain,
    Complexes,
    DimensionCapExceeded,
    Matrix,
    MultiMap,
    RotaBaxterSystem,
    betti,
    conjugate_bimodule,
    conjugate_system,
    les_check,
    multimap_vector,
    pack_rbs_cochain,
    phi,
    rba_embedding_check,
    rbs_d,
    rbs_dim,
    regular_bimodule,
    unpack_rbs_cochain,
    vstack,
    zero_algebra,
)

from instances import (
    f2_zero_instance,
    instance_set,
    line_system,
    perturbed_phi,
    random_invertible,
    random_matrix,
    random_system_bimodule,
    triangular_algebra,
    triangular_system,
    unital_line,
)
from oracles import (
    assembled_kernel,
    assembled_ranks,
    basis_tuples,
    column_space_rank,
    first_outside_by_rows,
    gf2_rank,
    les_check_by_slot_kernels,
    les_slots_by_column_spans,
    naive_dbar_apply,
    naive_delta_apply,
    naive_partial_apply,
    naive_phi_apply,
)


def test_delta_zero_structure():
    sys, mod = f2_zero_instance()
    for n in range(4):
        assert Complexes(sys, mod).slice(ALG, n).is_zero()


def test_delta_line_degree_one_is_multiplication():
    sys = line_system(QQ, 1, 0)
    mod = regular_bimodule(sys)
    assert Complexes(sys, mod).slice(ALG, 1).entries() == [[1]]


def test_delta_degree_zero_formula():
    # delta0(f)(a) = -a f(1) + f(1) a
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    sl = Complexes(sys, mod).slice(ALG, 0)
    for u in range(3):
        f1 = Matrix.unit_column(QQ, 3, u)
        out = sl @ f1
        for i in range(3):
            a = Matrix.unit_column(QQ, 3, i)
            expected = -sys.alg.multiply(a, f1) + sys.alg.multiply(f1, a)
            got = Matrix.from_rows(QQ, [[out[v * 3 + i, 0]] for v in range(3)])
            assert got == expected


def _check_delta(sys, mod, n, rng):
    """delta_n against the term-by-term Hochschild differential."""
    d, m, field = sys.dim, mod.dim, sys.field
    sl = Complexes(sys, mod).slice(ALG, n)
    f = MultiMap(sys.alg, n, random_matrix(field, m, d**n, rng))
    image = sl @ multimap_vector(f)
    for col, tup in enumerate(basis_tuples(d, n + 1)):
        got = Matrix.from_rows(field, [[image[v * d ** (n + 1) + col, 0]] for v in range(m)])
        assert got == naive_delta_apply(sys.alg, mod.actions, f, tup)


def _check_partial(sys, mod, n, rng):
    """partial_n against the written-out operator-complex formulas."""
    d, m, field = sys.dim, mod.dim, sys.field
    sl = Complexes(sys, mod).slice(RBSO, n)
    x = MultiMap(sys.alg, n, random_matrix(field, m, d**n, rng))
    y = MultiMap(sys.alg, n, random_matrix(field, m, d**n, rng))
    image = sl @ vstack([multimap_vector(x), multimap_vector(y)])
    cols_out = d ** (n + 1)
    for col, tup in enumerate(basis_tuples(d, n + 1)):
        first = Matrix.from_rows(field, [[image[v * cols_out + col, 0]] for v in range(m)])
        second = Matrix.from_rows(
            field, [[image[m * cols_out + v * cols_out + col, 0]] for v in range(m)]
        )
        assert (first, second) == naive_partial_apply(sys, mod, x, y, tup)


def _check_phi(sys, mod, n, rng):
    """phi_n against the componentwise comparison map."""
    d, m, field = sys.dim, mod.dim, sys.field
    mat = phi(n, sys, mod)
    f = MultiMap(sys.alg, n, random_matrix(field, m, d**n, rng))
    image = mat @ multimap_vector(f)
    cols_out = d**n
    for col, tup in enumerate(basis_tuples(d, n)):
        first = Matrix.from_rows(field, [[image[v * cols_out + col, 0]] for v in range(m)])
        second = Matrix.from_rows(
            field, [[image[m * cols_out + v * cols_out + col, 0]] for v in range(m)]
        )
        assert (first, second) == naive_phi_apply(sys, mod, f, tup)


def test_slices_match_naive_evaluation():
    rng = random.Random(17)
    for sys, mod in instance_set(8, seed=101):
        for n in range(3):
            _check_delta(sys, mod, n, rng)


def test_partial_matches_displayed_formulas():
    rng = random.Random(23)
    for sys, mod in instance_set(8, seed=131):
        for n in range(3):
            _check_partial(sys, mod, n, rng)


def test_phi_matches_naive_evaluation():
    rng = random.Random(29)
    for sys, mod in instance_set(8, seed=151):
        for n in range(3):
            _check_phi(sys, mod, n, rng)


@pytest.mark.parametrize("field", [QQ, GF(40009), GF(2**31 - 1), GF(4294967311)], ids=repr)
def test_scatter_slices_match_naive_evaluation_in_degree_3(field):
    # the index-scatter assembly up to degree 3, also over the primes whose
    # matrices hold Python ints (p >= 2^15), one of them above 2^32: two
    # random pairs of dimension at least 2 and the scrambled triangular pair
    rng = random.Random(field.p or 0)
    pairs = []
    while len(pairs) < 2:
        sys, mod = random_system_bimodule(rng, field, big=True)
        if sys.dim >= 2:
            pairs.append((sys, mod))
    tri = triangular_system(field, 2, field.neg(1))
    p, q = random_invertible(field, 3, rng), random_invertible(field, 3, rng)
    pairs.append((conjugate_system(tri, p), conjugate_bimodule(regular_bimodule(tri), p, q)))
    for sys, mod in pairs:
        for n in range(4):
            _check_delta(sys, mod, n, rng)
            _check_partial(sys, mod, n, rng)
            _check_phi(sys, mod, n, rng)


def test_scatter_slices_with_numerators_beyond_int64():
    # the triangular pair scrambled by rational base changes whose
    # numerators pass 2^62, with mixed denominators: the slices are summed
    # over Python ints
    rng = random.Random(7)

    def base_change():
        scalars = [0, 1, -(2**62) + 3, Fraction(2**61 + 5, 3), Fraction(2**61 + 1, 2**35)]
        while True:
            m = Matrix.from_rows(QQ, [[rng.choice(scalars) for _ in range(3)] for _ in range(3)])
            if m.rank() == 3:
                return m

    tri = triangular_system(QQ, 2, -1)
    p, q = base_change(), base_change()
    sys, mod = conjugate_system(tri, p), conjugate_bimodule(regular_bimodule(tri), p, q)
    assert mod.RM.num.dtype == object
    for n in range(3):
        _check_delta(sys, mod, n, rng)
        _check_partial(sys, mod, n, rng)
        _check_phi(sys, mod, n, rng)


def test_phi_zero_operators():
    sys, mod = f2_zero_instance()
    assert phi(0, sys, mod).entries() == [[1], [1]]
    for n in (1, 2, 3):
        assert phi(n, sys, mod).is_zero()


def test_phi_line_identity_example():
    sys = line_system(QQ, 1, 0)
    mod = regular_bimodule(sys)
    # f = id in degree 1: both components vanish for the regular module
    assert (phi(1, sys, mod) @ Matrix.column(QQ, [1])).is_zero()


def test_rbs_d_block_shape_and_zero_structure():
    sys, mod = f2_zero_instance()
    d0 = rbs_d(0, sys, mod).matrix
    assert d0.entries() == [[0], [1], [1]]  # -phi0 over GF(2)
    assert d0.rank() == 1
    for n in (1, 2, 3):
        assert rbs_d(n, sys, mod).matrix.is_zero()
        assert rbs_d(n, sys, mod).matrix.cols == rbs_dim(n, 1, 1)


def test_d_squared_zero_random():
    for sys, mod in instance_set(10, seed=171):
        for tag in (ALG, RBSO, RBS):
            cx = Complexes(sys, mod)
            for n in range(3):
                assert (cx.slice(tag, n + 1) @ cx.slice(tag, n)).is_zero()


def test_chain_map_identity_random():
    for sys, mod in instance_set(10, seed=191):
        cx = Complexes(sys, mod)
        for n in range(3):
            lhs = cx.slice(RBSO, n) @ phi(n, sys, mod)
            rhs = phi(n + 1, sys, mod) @ cx.slice(ALG, n)
            assert lhs == rhs


def test_dimension_bookkeeping():
    sys = triangular_system(GF(5), 1, 1)
    mod = regular_bimodule(sys)
    cx = Complexes(sys, mod)
    for n in range(1, 4):
        assert cx.dim(RBS, n) == cx.dim(ALG, n) + cx.dim(RBSO, n - 1)
    assert cx.dim(RBS, 0) == cx.dim(ALG, 0)


def test_betti_f2_zero_frozen_table():
    sys, mod = f2_zero_instance()
    assert betti(ALG, sys, mod, 3).h == [1, 1, 1, 1]
    assert betti(RBS, sys, mod, 3).h == [0, 2, 3, 3]
    assert betti(RBSO, sys, mod, 3).h == [2, 2, 2, 2]


def test_betti_f2_zero_against_independent_rank():
    # independent oracle: enumerate the differentials by hand and rank them
    # with a standalone GF(2) elimination.
    sys, mod = f2_zero_instance()
    # dims: C^n_alg = 1, C^n_rbso = 2, C^0_rbs = 1, C^n_rbs = 3 (n >= 1)
    # all structure maps vanish, so the only nonzero differential is
    # d0(f) = (delta0 f, -(f, f)) = (0, f, f) over GF(2)
    hand_slices = {0: [[0], [1], [1]], 1: [[0] * 3] * 3, 2: [[0] * 3] * 3, 3: [[0] * 3] * 3}
    dims = {0: 1, 1: 3, 2: 3, 3: 3}
    prev_rank = 0
    expected = []
    for n in range(4):
        rows = hand_slices[n]
        rank = gf2_rank(rows)
        expected.append(dims[n] - rank - prev_rank)
        prev_rank = rank
    assert expected == [0, 2, 3, 3]
    assert betti(RBS, sys, mod, 3).h == expected
    # and the library slices agree with the hand-enumerated ones entry by entry
    for n in range(4):
        got = rbs_d(n, sys, mod).matrix.entries()
        assert got == hand_slices[n]


def _seed_family_pairs(field, rng):
    """One scrambled pair of every seed family of tests/instances.py."""
    from rbsys import from_rb_operator

    from instances import (
        diagonal_algebra,
        idempotent_rb_operator,
        random_scalar,
        zero_action_bimodule,
        zero_mult_system,
    )

    def nonzero():
        while True:
            x = random_scalar(field, rng)
            if x:
                return x

    zero2, zero3 = zero_mult_system(field, 2, rng), zero_mult_system(field, 3, rng)
    line_r, line_s = line_system(field, nonzero(), 0), line_system(field, 0, nonzero())
    tri = triangular_system(field, nonzero(), nonzero())
    lam = nonzero()
    idem2 = from_rb_operator(diagonal_algebra(field, 2), idempotent_rb_operator(field, 2, [0], lam), lam)
    idem3 = from_rb_operator(diagonal_algebra(field, 3), idempotent_rb_operator(field, 3, [0, 2], lam), lam)
    pairs = [
        (zero2, regular_bimodule(zero2)),
        (zero2, zero_action_bimodule(zero2, 2, rng)),
        (zero3, zero_action_bimodule(zero3, 1, rng)),
        (line_r, regular_bimodule(line_r)),
        (line_s, zero_action_bimodule(line_s, 2, rng)),
        (tri, regular_bimodule(tri)),
        (idem2[0], regular_bimodule(idem2[0])),
        (idem2[1], zero_action_bimodule(idem2[1], 1, rng)),
        (idem3[1], regular_bimodule(idem3[1])),
    ]
    for sys, mod in pairs:
        p, q = random_invertible(field, sys.dim, rng), random_invertible(field, mod.dim, rng)
        yield conjugate_system(sys, p), conjugate_bimodule(mod, p, q)


def _random_phi(phi):
    """phi plus a random matrix of its shape in every degree, the same one on
    every call: a comparison map that is no chain map."""

    def perturbed(n, sys, mod, cap=None):
        out = phi(n, sys, mod, cap)
        return out + random_matrix(sys.field, out.rows, out.cols, random.Random(n))

    return perturbed


@pytest.mark.parametrize("field", [GF(2), GF(5), GF(40009), GF(2**31 - 1), QQ], ids=repr)
def test_betti_rbs_ranks_match_the_assembled_slices(field, monkeypatch):
    # betti ranks rbs_n through its blocks; the oracle eliminates rbs_n
    # assembled whole.  The rank formula assumes neither d^2 = 0 nor that
    # phi is a chain map, so it must also hold with phi perturbed.
    from rbsys import cohomology

    rng = random.Random(1301)
    phi = cohomology.phi
    moved = 0
    for sys, mod in _seed_family_pairs(field, rng):
        top = 4 if sys.dim <= 2 else 3
        rows = {}
        for perturb in (False, True):
            monkeypatch.setattr(cohomology, "phi", _random_phi(phi) if perturb else phi)
            rows[perturb] = betti(RBS, sys, mod, top).rows
            assert [row["rank"] for row in rows[perturb]] == assembled_ranks(sys, mod, top)
            assert [row["dim"] for row in rows[perturb]] == [rbs_dim(n, sys.dim, mod.dim) for n in range(top + 1)]
        moved += rows[False] != rows[True]
    assert moved >= 3


def _typed(m):
    """The entries of a matrix with the Python type of each."""
    return [[(x, type(x)) for x in row] for row in m.entries()]


def _blockwise_cases(monkeypatch):
    """Complexes of forty seeded pairs and of the triangular system over
    four fields, every fourth also with phi perturbed in one degree, so
    that it is no chain map."""
    from rbsys import cohomology

    phi = cohomology.phi
    pairs = instance_set(40, seed=1409)
    tris = [triangular_system(field, 1, 2) for field in (QQ, GF(2), GF(5), GF(40009))]
    pairs += [(tri, regular_bimodule(tri)) for tri in tris]
    for k, (sys, mod) in enumerate(pairs):
        for degree in (None, k // 4 % 4) if k % 4 == 0 else (None,):
            monkeypatch.setattr(cohomology, "phi", phi if degree is None else perturbed_phi(phi, degree, k))
            yield Complexes(sys, mod)


def test_rbs_kernel_by_blocks_matches_the_assembled_kernel(monkeypatch):
    # [[K Q_top], [Q_bottom]] is the canonical basis that eliminating rbs_n
    # whole gives, entry for entry and type for type, for any blocks
    cases = 0
    for cx in _blockwise_cases(monkeypatch):
        for n in range(4):
            got, want = cx.kernel(RBS, n), assembled_kernel(cx, n)
            assert got == want
            assert _typed(got) == _typed(want)
            cases += 1
    assert cases == 4 * (44 + 11)


def test_blockwise_differential_matches_the_slices(monkeypatch):
    # Complexes.d applies rbs_n block by block; it must equal the assembled
    # slice times the vector, and the single slice on alg and rbso
    rng = random.Random(1423)
    for cx in _blockwise_cases(monkeypatch):
        field = cx.sys.field
        for tag in (ALG, RBSO, RBS):
            for n in range(3):
                v = random_matrix(field, cx.dim(tag, n), 1, rng)
                got, want = cx.d(Cochain(tag, n, v)), cx.slice(tag, n) @ v
                assert got == want
                assert _typed(got) == _typed(want)
                assert cx.is_cocycle(Cochain(tag, n, v)) == want.is_zero()


@pytest.mark.parametrize("height", [1, 7, 48])
def test_slices_fed_in_row_blocks_give_the_ranks_and_kernels_of_whole_slices(monkeypatch, height):
    # with every prime-field slice and every N = [phi_n K | partial_(n-1)]
    # fed to elimination in blocks of height rows as it is assembled, rank
    # and kernel of each complex are those of the whole slices, type for
    # type, and the only things kept are kernel bases of delta_n and
    # partial_n: no slice is stored
    from rbsys import linalg

    pairs = [pair for pair in instance_set(24, seed=1409) if pair[0].field.p is not None]
    tris = [triangular_system(field, 1, 2) for field in (GF(2), GF(5), GF(4294967311))]
    pairs += [(tri, regular_bimodule(tri)) for tri in tris]
    whole = []
    for sys, mod in pairs:
        cx = Complexes(sys, mod)
        whole.append({(tag, n): (cx.rank(tag, n), _typed(cx.kernel(tag, n))) for tag in (ALG, RBSO, RBS) for n in range(4)})
    monkeypatch.setattr(linalg, "_STREAM_SIZE", 0)
    monkeypatch.setattr(linalg, "_block_rows", lambda cols: height)
    for (sys, mod), want in zip(pairs, whole):
        cx = Complexes(sys, mod)
        assert {key: (cx.rank(*key), _typed(cx.kernel(*key))) for key in want} == want
        assert {key[0] for key in cx._built} == {"kernel"}
    assert len(pairs) > 15


def test_betti_peaks_below_the_size_of_its_tallest_slice():
    # GF(5) idem d = 4 with the regular bimodule to degree 4: delta_4 is
    # 4096 x 1024, 32 MiB as int64.  It and N = [phi_4 K | partial_3] are
    # fed to elimination in row blocks, which holds only its own echelon
    # form, so the traced peak stays below the size of delta_4
    import tracemalloc

    from rbsys import from_rb_operator

    from instances import diagonal_algebra, idempotent_rb_operator

    field = GF(5)
    sys = from_rb_operator(diagonal_algebra(field, 4), idempotent_rb_operator(field, 4, [0, 2], 1), 1)[0]
    p = random_invertible(field, 4, random.Random(7))
    sys, mod = conjugate_system(sys, p), conjugate_bimodule(regular_bimodule(sys), p, p)
    tracemalloc.start()
    try:
        report = betti(RBS, sys, mod, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row["rank"] for row in report.rows] == [4, 20, 76, 308, 1228] and report.h == [0] * 5
    assert peak < 4096 * 1024 * 8


@pytest.mark.parametrize("field", [GF(5), QQ], ids=repr)
def test_betti_rbs_never_assembles_the_total_slice(field, monkeypatch):
    # d = 3, so no delta_n has as many rows as rbs_n: the two eliminations of
    # each degree are delta_n and [phi_n K | partial_(n-1)]
    from rbsys import Complexes, linalg

    def refused(self, n):
        raise AssertionError("betti assembled rbs_n")

    shapes = []
    rref = linalg._rref_array

    def counted(a, f):
        shapes.append(a.shape)
        return rref(a, f)

    monkeypatch.setattr(Complexes, "rbs", refused)
    monkeypatch.setattr(linalg, "_rref_array", counted)
    sys = triangular_system(field, 1, 2)
    mod = regular_bimodule(sys)
    betti(RBS, sys, mod, 3)
    assert len(shapes) == 8
    assert not {rows for rows, _ in shapes} & {rbs_dim(n + 1, 3, 3) for n in range(4)}


def test_betti_rbso_equals_hochschild_of_star_with_doubled_module():
    from rbsys.bimodules import _d_module_unchecked
    from rbsys.cohomology import hochschild_slice

    sys = triangular_system(GF(2), 1, 1)
    mod = regular_bimodule(sys)
    dm = _d_module_unchecked(mod)
    for n in range(3):
        a = Complexes(sys, mod).slice(RBSO, n)
        b = hochschild_slice(dm.star, dm.actions, n)
        assert a == b


def test_is_cocycle_and_preimage():
    sys, mod = f2_zero_instance()
    cx = Complexes(sys, mod)
    zero2 = Cochain(RBS, 2, Matrix.zeros(GF(2), 3, 1))
    assert cx.is_cocycle(zero2)
    pre = cx.coboundary_preimage(zero2)
    assert pre is not None and pre.vector.is_zero()

    rng = random.Random(5)
    sys2 = triangular_system(QQ, 1, 2)
    mod2 = regular_bimodule(sys2)
    cx2 = Complexes(sys2, mod2)
    x = random_matrix(QQ, cx2.dim(RBS, 1), 1, rng)
    image = Cochain(RBS, 2, cx2.slice(RBS, 1) @ x)
    assert cx2.is_cocycle(image)
    pre = cx2.coboundary_preimage(image)
    assert pre is not None
    assert cx2.slice(RBS, 1) @ pre.vector == image.vector

    # a class spanning H^1 in the zero instance has no preimage
    h1 = Cochain(RBS, 1, Matrix.column(GF(2), [0, 1, 0]))
    assert cx.is_cocycle(h1)
    assert cx.coboundary_preimage(h1) is None


def test_cocycle_shape_validation():
    sys, mod = f2_zero_instance()
    cx = Complexes(sys, mod)
    with pytest.raises(ValueError):
        cx.is_cocycle(Cochain(RBS, 2, Matrix.zeros(GF(2), 5, 1)))
    with pytest.raises(ValueError):
        cx.is_cocycle(Cochain(ALG, 2, Matrix.zeros(GF(2), 2, 1)))


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_coboundary_preimage_on_every_complex(field):
    # the preimage is read in the complex named by the cochain's own tag
    rng = random.Random(31)
    sys = triangular_system(field, 1, 2)
    cx = Complexes(sys, regular_bimodule(sys))
    # in the 1-dim zero structure only rbs_0 = (0, -f, -f) is nonzero, so
    # the last unit vector of each degree-1 space is a class, not a coboundary
    z = Matrix.zeros(field, 1, 1)
    zero_sys = RotaBaxterSystem(zero_algebra(field, 1), z, z)
    zero_cx = Complexes(zero_sys, regular_bimodule(zero_sys))
    for tag in (ALG, RBSO, RBS):
        assert cx.coboundary_preimage(Cochain(tag, 0, Matrix.zeros(field, cx.dim(tag, 0), 1))) is None
        for n in (1, 2):
            x = random_matrix(field, cx.dim(tag, n - 1), 1, rng)
            image = Cochain(tag, n, cx.slice(tag, n - 1) @ x)
            pre = cx.coboundary_preimage(image)
            assert pre is not None and (pre.tag, pre.degree) == (tag, n - 1)
            assert cx.slice(tag, n - 1) @ pre.vector == image.vector
        size = zero_cx.dim(tag, 1)
        h1 = Cochain(tag, 1, Matrix.unit_column(field, size, size - 1))
        assert zero_cx.is_cocycle(h1)
        assert zero_cx.coboundary_preimage(h1) is None
        with pytest.raises(ValueError, match="coordinate length"):
            cx.coboundary_preimage(Cochain(tag, 2, Matrix.zeros(field, cx.dim(tag, 2) + 1, 1)))


def test_complexes_refuse_an_unknown_tag(monkeypatch):
    # every dispatch on a tag refuses an unknown one before it builds a block
    from rbsys import cohomology

    sys, mod = f2_zero_instance()
    cx = Complexes(sys, mod)
    built = []
    for name in ("hochschild_slice", "phi", "_d_module_unchecked"):
        monkeypatch.setattr(cohomology, name, lambda *args, name=name, **kwargs: built.append(name))
    calls = (
        lambda: cx.slice("bogus", 1),
        lambda: cx.dim("bogus", 1),
        lambda: cx.rank("bogus", 1),
        lambda: cx.kernel("bogus", 1),
        lambda: cx.d(Cochain("bogus", 1, Matrix.zeros(sys.field, 1, 1))),
        lambda: betti("bogus", sys, mod, 2),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown complex tag 'bogus'"):
            call()
    assert built == []


def test_pack_unpack_round_trip():
    rng = random.Random(7)
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    f = MultiMap(sys.alg, 2, random_matrix(QQ, 3, 9, rng))
    x = MultiMap(sys.alg, 1, random_matrix(QQ, 3, 3, rng))
    y = MultiMap(sys.alg, 1, random_matrix(QQ, 3, 3, rng))
    co = pack_rbs_cochain(f, x, y)
    f2, x2, y2 = unpack_rbs_cochain(co, sys, mod)
    assert (f2, x2, y2) == (f, x, y)


def test_les_f2_zero_dims():
    sys, mod = f2_zero_instance()
    rep = les_check(sys, mod, 3)
    assert rep.ok
    by_slot = {(s.name, s.degree): s for s in rep.slots}
    # chain-level spans at the first slots (image + coboundaries)
    assert by_slot[("rbs", 0)].image_dim == 0
    assert by_slot[("alg", 0)].kernel_dim == 0
    assert by_slot[("rbso", 0)].image_dim == 1
    assert by_slot[("rbs", 1)].image_dim == 2


def test_les_random_instances():
    for sys, mod in instance_set(6, seed=211):
        assert les_check(sys, mod, 2).ok


def test_les_alternating_sum_telescopes():
    # over an exact segment, each space splits as incoming rank + outgoing
    # rank at the class level, so the alternating dimension sum telescopes
    # to the boundary ranks
    sys, mod = f2_zero_instance()
    rep = les_check(sys, mod, 3)
    assert rep.ok
    h = {
        ("alg", p): betti(ALG, sys, mod, 3).h[p] for p in range(4)
    }
    h.update({("rbso", p): betti(RBSO, sys, mod, 3).h[p] for p in range(4)})
    h.update({("rbs", p): betti(RBS, sys, mod, 3).h[p] for p in range(4)})
    ranks = {}  # class-level rank of the outgoing map at each slot
    cx = Complexes(sys, mod)

    def boundary_rank(tag, p):
        return 0 if p == 0 else cx.slice(tag, p - 1).rank()

    order = []
    for p in range(4):
        order.append(("rbs", p))
        order.append(("alg", p))
        if p <= 2:
            order.append(("rbso", p))
    slot_by_key = {(s.name, s.degree): s for s in rep.slots}
    # incoming class-level rank at slot i = chain image dim - coboundary dim
    tag_of = {"alg": ALG, "rbso": RBSO, "rbs": RBS}
    incoming = {
        key: slot_by_key[key].image_dim - boundary_rank(tag_of[key[0]], key[1])
        for key in order
    }
    # dim H = incoming + outgoing at every slot; read outgoing off the next slot
    outgoing = {}
    for i, key in enumerate(order):
        nxt = order[i + 1] if i + 1 < len(order) else None
        outgoing[key] = incoming[nxt] if nxt else h[key] - incoming[key]
        assert h[key] == incoming[key] + outgoing[key], key
    total = sum((-1) ** i * h[key] for i, key in enumerate(order))
    tail = (-1) ** (len(order) - 1) * outgoing[order[-1]]
    assert total == tail


def test_dim_cap_guard():
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    with pytest.raises(DimensionCapExceeded):
        Complexes(sys, mod, cap=10).slice(ALG, 2)
    with pytest.raises(ValueError):
        betti(RBS, sys, mod, 0)


@pytest.mark.parametrize(
    "analysis, max_degree, dim",
    [
        ("betti-alg", 8, 59049),  # m d^9
        ("betti-rbso", 7, 39366),  # 2 m d^8
        ("betti-rbs", 7, 32805),  # rbs_dim(8)
        ("les", 7, 32805),
        ("rba-embed", 7, 32805),
    ],
)
def test_a_degree_past_the_cap_is_refused_before_any_work(monkeypatch, analysis, max_degree, dim):
    # d = m = 3 over GF(5): only the top degree breaks the default cap of
    # 20000, and the error names the same space as when that degree is
    # reached, yet no slice is assembled, whole or by rows, and nothing is
    # eliminated first
    from rbsys import cohomology, linalg

    from instances import diagonal_algebra, idempotent_rb_operator

    monkeypatch.delenv("RBS_DIM_CAP", raising=False)
    calls = []
    spied = ((linalg, "_rref_array"), (cohomology, "hochschild_slice"), (cohomology, "phi"), (cohomology, "phi_rows"))
    for module, name in spied:

        def spy(*args, _name=name, _kernel=getattr(module, name)):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(module, name, spy)
    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    run = {
        "betti-alg": lambda: betti(ALG, sys, mod, max_degree),
        "betti-rbso": lambda: betti(RBSO, sys, mod, max_degree),
        "betti-rbs": lambda: betti(RBS, sys, mod, max_degree),
        "les": lambda: les_check(sys, mod, max_degree),
        "rba-embed": lambda: rba_embedding_check(
            diagonal_algebra(GF(5), 3), idempotent_rb_operator(GF(5), 3, [0], 1), 1, max_degree
        ),
    }[analysis]
    with pytest.raises(DimensionCapExceeded, match=f"^cochain space of dimension {dim} exceeds cap 20000$"):
        run()
    assert calls == []


def test_rba_embedding_named_instances():
    line = unital_line(QQ)
    z1 = Matrix.zeros(QQ, 1, 1)
    assert rba_embedding_check(line, z1, 0, 3).ok
    assert rba_embedding_check(line, z1, 1, 3).ok
    assert rba_embedding_check(line, -Matrix.identity(QQ, 1), 1, 3).ok

    two = zero_algebra(GF(2), 2)
    z2 = Matrix.zeros(GF(2), 2, 2)
    assert rba_embedding_check(two, z2, 1, 3).ok

    with pytest.raises(ValueError):
        rba_embedding_check(line, Matrix.identity(QQ, 1), 1, 3)


def test_rba_embedding_dbar_line_example():
    # R = 0, lam = 1 on the unital line: dbar1(h)(a) = -h(1) a
    from rbsys.cohomology import _dbar_display_slice
    from rbsys import from_rb_operator

    line = unital_line(QQ)
    z1 = Matrix.zeros(QQ, 1, 1)
    sys = from_rb_operator(line, z1, 1)[0]
    assert _dbar_display_slice(sys, QQ.coerce(1), 1).entries() == [[-1]]


def test_les_check_builds_each_block_once(monkeypatch):
    # degree 3 needs delta_0..delta_3 and partial_0..partial_2 (seven
    # Hochschild slices), phi_0..phi_3, and the doubled module once
    from collections import Counter

    from rbsys import cohomology

    calls = Counter()

    def counted(name):
        original = getattr(cohomology, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cohomology, name, wrapper)

    for name in ("hochschild_slice", "phi", "_d_module_unchecked"):
        counted(name)
    sys = triangular_system(GF(5), 1, 2)
    assert les_check(sys, regular_bimodule(sys), 3).ok
    assert calls == {"hochschild_slice": 7, "phi": 4, "_d_module_unchecked": 1}


def _weight_lam_systems(field, lam, rng):
    """Scrambled (A, R, R + lam id) for R = -lam e. on a central and a
    non-central idempotent e, both weight-lam operators."""
    from rbsys import conjugate_system, from_rb_operator

    from instances import (
        diagonal_algebra,
        idempotent_rb_operator,
        random_invertible,
        triangular_algebra,
    )

    diag = diagonal_algebra(field, 2)
    tri = triangular_algebra(field)
    left_e0 = Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])  # a -> e0 a
    operators = [
        (diag, idempotent_rb_operator(field, 2, [0], lam)),
        (tri, left_e0.scale(field.neg(lam))),
    ]
    for alg, R in operators:
        sys = from_rb_operator(alg, R, lam)[0]
        yield conjugate_system(sys, random_invertible(field, alg.dim, rng))


def test_dbar_display_slice_matches_naive_evaluation():
    from rbsys.cohomology import _dbar_display_slice

    rng = random.Random(29)
    weights = {QQ: "-1/2", GF(2): 1, GF(5): 3, GF(40009): 12345}
    for field, nonzero in weights.items():
        for lam in (field.coerce(0), field.coerce(nonzero)):
            for sys in _weight_lam_systems(field, lam, rng):
                d = sys.dim
                for n in (1, 2, 3):
                    sl = _dbar_display_slice(sys, lam, n)
                    h = MultiMap(sys.alg, n - 1, random_matrix(field, d, d ** (n - 1), rng))
                    image = sl @ multimap_vector(h)
                    for col, tup in enumerate(basis_tuples(d, n)):
                        got = Matrix.from_rows(field, [[image[v * d**n + col, 0]] for v in range(d)])
                        assert got == naive_dbar_apply(sys, lam, h, tup), (field, lam, n, tup)


def test_les_check_matrix_products(monkeypatch):
    # the projection and the shift inclusion are row slices and zero
    # padding, not products, and phi_p is applied to the algebra cocycles
    # once per degree (4); each kernel of rbs_p (p = 0..3) takes two, phi_p
    # K and K Q_top (8); each slot reduces W and its cocycles z modulo the
    # coboundary echelons and the incoming residuals modulo the kernel
    # echelon, one product each unless the echelon or the rows are empty
    # (21 of 33), and a passing slot forms no kernel members z c; the other
    # 18 assemble and check the inputs: 51 = 4 + 8 + 21 + 18
    calls = []
    matmul = Matrix.__matmul__

    def counted(self, other):
        calls.append((self.shape, other.shape))
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    sys = triangular_system(GF(5), 1, 2)
    assert les_check(sys, regular_bimodule(sys), 3).ok
    assert len(calls) == 51


def test_les_check_eliminations(monkeypatch):
    # one elimination per slice kernel (11) and per coboundary span (9), and
    # per slot at most one, of the stacked residuals [reduce(W) | reduce(z)],
    # which yields both the rank of reduce(W) and the echelon of the kernel
    # members; a zero stack needs none (4 of the 11 slots here): 27 = 11 + 9 + 7
    from rbsys import linalg

    calls = []
    rref = linalg._rref_array

    def counted(a, field):
        calls.append(a.shape)
        return rref(a, field)

    monkeypatch.setattr(linalg, "_rref_array", counted)
    sys = triangular_system(GF(5), 1, 2)
    assert les_check(sys, regular_bimodule(sys), 3).ok
    assert len(calls) == 27


def _assert_witness(field, slot, spans):
    """A failing slot's witness lies in one of its two spans and not in the
    other: the image for image_not_in_kernel, the kernel otherwise."""
    if slot.ok:
        assert slot.witness is None
        return
    image, kernel = spans[slot.name, slot.degree]
    inside, outside = (image, kernel) if slot.witness.tag == "image_not_in_kernel" else (kernel, image)
    v = Matrix.column(field, slot.witness.witness)
    assert column_space_rank([inside, v]) == column_space_rank([inside])
    assert column_space_rank([outside, v]) == column_space_rank([outside]) + 1


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(40009)], ids=repr)
def test_les_check_matches_column_span_oracle(field, monkeypatch):
    # slot for slot against eliminating every span afresh, with phi intact
    # and with phi perturbed in one degree by a rank-one term, so that it is
    # no longer a chain map and slots fail; failing slots carry a witness
    from rbsys import cohomology

    rng = random.Random(401)
    phi = cohomology.phi
    failing, tags = 0, set()
    for seed in range(8):
        sys, mod = random_system_bimodule(rng, field)
        for degree in (None, 0, 1, 2):
            monkeypatch.setattr(cohomology, "phi", phi if degree is None else perturbed_phi(phi, degree, seed))
            report = les_check(sys, mod, 3)
            spans = {}
            expected = les_slots_by_column_spans(sys, mod, 3, spans=spans)
            assert [(s.name, s.degree, s.image_dim, s.kernel_dim, s.ok) for s in report.slots] == expected
            for s in report.slots:
                _assert_witness(field, s, spans)
                tags.add(s.witness.tag if s.witness is not None else None)
            assert report.ok or degree is not None
            failing += not report.ok
    assert failing >= 3
    assert {"image_not_in_kernel", "kernel_not_in_image"} <= tags


def _slot_fields(report):
    """Every field of every slot, witness entries with their Python types."""
    out = []
    for s in report.slots:
        w = s.witness
        witness = None if w is None else (w.ok, w.tag, [(type(x), x) for x in w.witness], w.lhs, w.rhs)
        out.append((s.name, s.degree, s.image_dim, s.kernel_dim, s.ok, witness))
    return out


def test_les_check_matches_the_four_call_slot_oracle(monkeypatch):
    # every slot field (dimensions, verdict, witness tag and entries) against
    # the slot that takes the kernel of the outgoing residuals, the kernel
    # members, their residuals and their echelon one call each, on spans
    # eliminated from whole slices; phi intact and perturbed in one degree,
    # on the instance_set pairs (Q, GF(2), GF(5)) and on GF(40009) pairs,
    # among them cocycle spaces with zero columns in degree 1 and up
    from rbsys import cohomology

    intact = cohomology.phi
    rng = random.Random(1812)
    pairs = instance_set(24, seed=1811) + [random_system_bimodule(rng, GF(40009)) for _ in range(6)]
    fields, tags, empty = set(), set(), 0
    for k, (sys, mod) in enumerate(pairs):
        fields.add(sys.field)
        cx = Complexes(sys, mod)
        empty += any(cx.kernel(tag, n).cols == 0 for n in (1, 2, 3) for tag in (ALG, RBSO, RBS))
        for degree in (None, 0, 1, 2):
            monkeypatch.setattr(cohomology, "phi", intact if degree is None else perturbed_phi(intact, degree, k))
            got = les_check(sys, mod, 3)
            assert _slot_fields(got) == _slot_fields(les_check_by_slot_kernels(sys, mod, 3))
            assert got.ok or degree is not None
            tags |= {s.witness.tag for s in got.slots if s.witness is not None}
    assert fields == {QQ, GF(2), GF(5), GF(40009)}
    assert empty >= 10
    assert tags == {"image_not_in_kernel", "kernel_not_in_image"}


def test_les_kernel_witness_is_outside_the_image(monkeypatch):
    # at rbs^2 the first kernel member outside the coboundaries lies in the
    # image, so the witness must be reduced modulo the incoming span too
    from rbsys import cohomology

    field = GF(2)
    sys = triangular_system(field, 1, 2)
    mod = regular_bimodule(sys)
    monkeypatch.setattr(cohomology, "phi", perturbed_phi(cohomology.phi, 1, 1))
    spans = {}
    les_slots_by_column_spans(sys, mod, 3, spans=spans)
    (slot,) = [s for s in les_check(sys, mod, 3).slots if not s.ok]
    assert (slot.name, slot.degree, slot.witness.tag) == ("rbs", 2, "kernel_not_in_image")
    _assert_witness(field, slot, spans)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_les_witness_is_the_one_a_row_by_row_search_finds(field, monkeypatch):
    # the witness is the column at the first nonzero residual row, found by
    # one any(axis=1); searching the rows one at a time gives the same one
    from rbsys import cohomology

    rng = random.Random(402)
    failing = 0
    for seed in range(4):
        sys, mod = random_system_bimodule(rng, field)
        monkeypatch.setattr(cohomology, "phi", perturbed_phi(phi, 1, seed))
        got = les_check(sys, mod, 3).slots
        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "_first_outside", first_outside_by_rows)
            want = les_check(sys, mod, 3).slots
        for a, b in zip(got, want, strict=True):
            assert (a.ok, a.witness is None) == (b.ok, b.witness is None)
            if a.witness is not None:
                assert (a.witness.tag, a.witness.witness) == (b.witness.tag, b.witness.witness)
                failing += 1
    assert failing >= 2


def test_rba_embedding_check_matrix_products(monkeypatch):
    # the embedding, the quotient and its section are applied as row
    # copies, column sums and row differences of rbs_n, and the induced
    # differential is read off rows: no products with 0/1 matrices and no
    # elimination.  What is left are the products that assemble the slices
    # and the displayed differential.
    from rbsys import linalg

    products, eliminations = [], []
    matmul, rref = Matrix.__matmul__, linalg._rref_array

    def counted_matmul(self, other):
        products.append((self.shape, other.shape))
        return matmul(self, other)

    def counted_rref(a, field):
        eliminations.append(a.shape)
        return rref(a, field)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    monkeypatch.setattr(linalg, "_rref_array", counted_rref)
    field = GF(5)
    alg = triangular_algebra(field)
    R = Matrix.from_rows(field, [[-1, 0, 0], [0, -1, 0], [0, 0, 0]])  # -(e0 .)
    report = rba_embedding_check(alg, R, 1, 3)
    assert report.ok
    assert [sorted(row) for row in report.details] == [
        ["chain_map", "image_closed", "injective", "n", "quotient_matches_display"]
    ] * 4
    assert len(products) == 28
    assert eliminations == []


@pytest.mark.parametrize("field", [GF(5), QQ], ids=repr)
def test_memoised_rrefs_of_a_complex_hold_their_rank_rows(field):
    # betti's rank calls leave an RREF on each stored slice (delta_3 is 243
    # x 81 here, past the blocked cut-over); each keeps one row per pivot
    sys = triangular_system(field, 1, 2)
    cx = Complexes(sys, regular_bimodule(sys))
    for n in range(4):
        cx.rank(RBS, n)
    rrefs = [m._rref for m in cx._built.values() if m._rref is not None]
    assert len(rrefs) >= 4
    for r, pivots in rrefs:
        assert r.rows == len(pivots)
