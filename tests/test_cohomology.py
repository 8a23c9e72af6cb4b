import random
from fractions import Fraction

import numpy as np
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
    hstack,
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

from rbsys.cohomology import phi_rows

from instances import (
    direct_sum,
    f2_zero_instance,
    instance_set,
    line_system,
    perturbed_phi,
    perturbed_slice,
    random_invertible,
    random_matrix,
    random_system_bimodule,
    triangular_algebra,
    triangular_system,
    unital_line,
    zero_action_bimodule,
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
    reduced_pair_by_tensors,
    slice_of,
)
from spies import count_calls, count_products


def test_delta_zero_structure():
    sys, mod = f2_zero_instance()
    for n in range(4):
        assert slice_of(Complexes(sys, mod), ALG, n).is_zero()


def test_delta_line_degree_one_is_multiplication():
    sys = line_system(QQ, 1, 0)
    mod = regular_bimodule(sys)
    assert slice_of(Complexes(sys, mod), ALG, 1).entries() == [[1]]


def test_delta_degree_zero_formula():
    # delta0(f)(a) = -a f(1) + f(1) a
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    sl = slice_of(Complexes(sys, mod), ALG, 0)
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
    sl = slice_of(Complexes(sys, mod), ALG, n)
    f = MultiMap(sys.alg, n, random_matrix(field, m, d**n, rng))
    image = sl @ multimap_vector(f)
    for col, tup in enumerate(basis_tuples(d, n + 1)):
        got = Matrix.from_rows(field, [[image[v * d ** (n + 1) + col, 0]] for v in range(m)])
        assert got == naive_delta_apply(sys.alg, mod.actions, f, tup)


def _check_partial(sys, mod, n, rng):
    """partial_n against the written-out operator-complex formulas."""
    d, m, field = sys.dim, mod.dim, sys.field
    sl = slice_of(Complexes(sys, mod), RBSO, n)
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
                assert (slice_of(cx, tag, n + 1) @ slice_of(cx, tag, n)).is_zero()


def test_chain_map_identity_random():
    for sys, mod in instance_set(10, seed=191):
        cx = Complexes(sys, mod)
        for n in range(3):
            lhs = slice_of(cx, RBSO, n) @ phi(n, sys, mod)
            rhs = phi(n + 1, sys, mod) @ slice_of(cx, ALG, n)
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

    phi_rows = cohomology.phi_rows
    pairs = instance_set(40, seed=1409)
    tris = [triangular_system(field, 1, 2) for field in (QQ, GF(2), GF(5), GF(40009))]
    pairs += [(tri, regular_bimodule(tri)) for tri in tris]
    for k, (sys, mod) in enumerate(pairs):
        for degree in (None, k // 4 % 4) if k % 4 == 0 else (None,):
            perturbed = phi_rows if degree is None else perturbed_phi(phi_rows, degree, k)
            monkeypatch.setattr(cohomology, "phi_rows", perturbed)
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
                got, want = cx.d(Cochain(tag, n, v)), slice_of(cx, tag, n) @ v
                assert got == want
                assert _typed(got) == _typed(want)
                assert cx.is_cocycle(Cochain(tag, n, v)) == want.is_zero()


@pytest.mark.parametrize("height", [1, 7, 48])
def test_slices_fed_in_row_blocks_give_the_ranks_and_kernels_of_whole_slices(monkeypatch, height):
    # with every prime-field slice and every N = [phi_n K | partial_(n-1)]
    # fed to elimination in blocks of height rows, rank and kernel of each
    # complex are those of the whole slices, type for type, whether the
    # blocks are built for the elimination alone (nothing is stored) or cut
    # from delta_n, partial_n and phi_n read beforehand (exactly those are
    # stored); both slices of one block and taller ones occur
    from collections import Counter

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
    slices, one_block = ((ALG, ALG), (RBSO, RBSO), ("phi", RBSO)), Counter()
    for (sys, mod), want in zip(pairs, whole):
        heights = {(key, n): Complexes(sys, mod).dim(tag, n + (key != "phi")) for n in range(4) for key, tag in slices}
        for read_first in (False, True):
            cx = Complexes(sys, mod)
            if read_first:
                for n in range(4):
                    cx.delta(n), cx.partial(n), cx.phi(n)
            assert {key: (cx.rank(*key), _typed(cx.kernel(*key))) for key in want} == want
            assert {key for key in cx._built if key[0] != "echelon"} == (set(heights) if read_first else set())
        one_block.update(rows <= height for rows in heights.values())
    assert len(pairs) > 15
    assert one_block[True] and one_block[False]


@pytest.mark.parametrize("stream", [False, True], ids=["whole", "streamed"])
def test_rank_and_kernel_store_no_slice(monkeypatch, stream):
    # ranks and kernels of every complex up to degree 3 leave only the
    # (K, P) memos of delta_n, partial_n and N_n = [phi_n K | partial_(n-1)]:
    # no slice, and so no RREF of one, whether the slices are fed whole or
    # in row blocks
    from rbsys import linalg

    if stream:
        monkeypatch.setattr(linalg, "_STREAM_SIZE", 0)
    pairs = instance_set(12, seed=1409)
    pairs += [(tri, regular_bimodule(tri)) for tri in (triangular_system(f, 1, 2) for f in (QQ, GF(2), GF(5)))]
    for sys, mod in pairs:
        cx = Complexes(sys, mod)
        for tag in (ALG, RBSO, RBS):
            for n in range(4):
                cx.rank(tag, n), cx.kernel(tag, n)
        assert {key[0] for key in cx._built} == {"echelon"}
        assert {key[1:] for key in cx._built} == {(tag, n) for tag in (ALG, RBSO, RBS) for n in range(4)}


def test_betti_holds_one_stage_at_a_time():
    # triangular GF(5) with the regular bimodule to degree 4: every slice
    # is below 2^18 entries and fed whole (delta_4 is 729 x 243, 1.4 MB as
    # int64).  betti stores none of them and no RREF, so its traced peak is
    # one stage, about 3.5 MB; storing every slice with its RREF peaks at
    # 5.6 MB.  The bound sits between the two.
    import tracemalloc

    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    tracemalloc.start()
    try:
        report = betti(RBS, sys, mod, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row["rank"] for row in report.rows] == [3, 8, 28, 93, 292] and report.h == [0, 4, 9, 14, 20]
    assert peak < 4_400_000


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
    from rbsys import cohomology, linalg

    def refused(*args, **kwargs):
        raise AssertionError("betti assembled rbs_n")

    shapes = []
    rref = linalg._rref_array

    def counted(a, f):
        shapes.append(a.shape)
        return rref(a, f)

    monkeypatch.setattr(cohomology, "rbs_d", refused)
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
        a = slice_of(Complexes(sys, mod), RBSO, n)
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
    image = Cochain(RBS, 2, slice_of(cx2, RBS, 1) @ x)
    assert cx2.is_cocycle(image)
    pre = cx2.coboundary_preimage(image)
    assert pre is not None
    assert slice_of(cx2, RBS, 1) @ pre.vector == image.vector

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
    # the preimage is read in the complex named by the cochain's own tag, on
    # the image basis that Complexes.image cuts from the blocks; against the
    # slice assembled whole, in degrees 1-3 the preimage is byte-equal to
    # its echelon solution, the basis is its columns at its RREF pivots, and
    # the basis spans its columns
    def same_bytes(a, b):
        return (a.den, a.num.dtype, a.num.shape, a.num.tobytes()) == (b.den, b.num.dtype, b.num.shape, b.num.tobytes())

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
        for n in (1, 2, 3):
            sl = slice_of(cx, tag, n - 1)
            image = Cochain(tag, n, sl @ random_matrix(field, sl.cols, 1, rng))
            pre = cx.coboundary_preimage(image)
            assert pre is not None and (pre.tag, pre.degree) == (tag, n - 1)
            assert same_bytes(pre.vector, sl.solve(image.vector))
            sl = slice_of(cx, tag, n)
            basis, pivots = cx.image(tag, n)
            assert pivots == list(sl.rref()[1]) and same_bytes(basis, sl.columns(pivots))
            got, want = basis.transpose().rref(), sl.transpose().rref()
            assert got[1] == want[1] and same_bytes(got[0], want[0])
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
        lambda: cx.image("bogus", 1),
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
        return 0 if p == 0 else slice_of(cx, tag, p - 1).rank()

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
        slice_of(Complexes(sys, mod, cap=10), ALG, 2)
    with pytest.raises(ValueError):
        betti(RBS, sys, mod, 0)


def test_a_complex_reads_the_cap_from_the_environment_once(monkeypatch):
    # Complexes resolves the cap once and passes the number on to every
    # guard and slice builder, so les_check with no cap reads RBS_DIM_CAP
    # once, where each guard read it before; a malformed value is refused
    # with the same error
    import os

    reads = []
    get = os.environ.get

    def counted(key, *default):
        reads.append(key)
        return get(key, *default)

    monkeypatch.setenv("RBS_DIM_CAP", "20000")
    monkeypatch.setattr(os.environ, "get", counted)
    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    assert les_check(sys, mod, 3).ok
    assert reads.count("RBS_DIM_CAP") == 1
    monkeypatch.setenv("RBS_DIM_CAP", "abc")
    with pytest.raises(ValueError, match="^RBS_DIM_CAP must be an integer, got 'abc'$"):
        les_check(sys, mod, 3)


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


def _embedding_fails_at(degree, capsys, tmp_path):
    # the embedding check of R = -(e0 .), lam = 1 on the triangular algebra
    # over GF(5), to degree 3, in the library and through rba-embed: it
    # fails at degree alone, where the image is not closed
    from rbsys import documents as docs
    from rbsys.cli import main

    field = GF(5)
    alg, R = triangular_algebra(field), Matrix.from_rows(field, [[-1, 0, 0], [0, -1, 0], [0, 0, 0]])
    report = rba_embedding_check(alg, R, 1, 3)
    assert not report.ok
    for row in report.details:
        bad = row["n"] == degree
        assert row["injective"] and row["chain_map"] == row["image_closed"] == (not bad)
        assert row["quotient_matches_display"] == (not bad or degree == 0)
    path = tmp_path / "tri.json"
    docs.dump(docs.serialize_system(RotaBaxterSystem(alg, R, R)), path)
    assert main(["rba-embed", str(path), "--weight", "1"]) == 1
    out = capsys.readouterr().out
    assert f"degree {degree}: injective=True closed=False chain=False" in out
    assert out.endswith("embedding check: FAIL\n")


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("seed", [1, 2])
def test_rba_embedding_check_fails_where_phi_is_perturbed(degree, seed, monkeypatch, capsys, tmp_path):
    # a rank-one term added to phi_n: degree n alone reads phi_n
    from rbsys import cohomology

    monkeypatch.setattr(cohomology, "phi_rows", perturbed_phi(cohomology.phi_rows, degree, seed))
    _embedding_fails_at(degree, capsys, tmp_path)


def test_rba_embedding_check_fails_where_partial_is_perturbed(monkeypatch, capsys, tmp_path):
    # one entry added to partial_1 of D(M), as the check builds it (whole,
    # stored nowhere): degree 2 alone reads it
    whole = Complexes._whole

    def built(self, key, n):
        out = whole(self, key, n)
        if (key, n) != (RBSO, 1):
            return out
        unit = [[int(i == j == 0) for j in range(out.cols)] for i in range(out.rows)]
        return out + Matrix.from_rows(out.field, unit)

    monkeypatch.setattr(Complexes, "_whole", built)
    _embedding_fails_at(2, capsys, tmp_path)


def test_rba_embedding_check_stores_no_slice(monkeypatch):
    # phi_n and partial_(n-1) are each read at degree n alone, so the
    # check's Complexes ends with no slice stored
    made = []
    init = Complexes.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Complexes, "__init__", spy)
    field = GF(5)
    R = Matrix.from_rows(field, [[-1, 0, 0], [0, -1, 0], [0, 0, 0]])  # -(e0 .)
    assert rba_embedding_check(triangular_algebra(field), R, 1, 3).ok
    assert len(made) == 1 and made[0]._built == {}


def test_les_check_builds_each_block_once(monkeypatch):
    # degree 3 needs delta_0..delta_3 and partial_0..partial_2 (seven
    # Hochschild slices), phi_0..phi_3, and the doubled module once
    from collections import Counter

    from rbsys import cohomology

    calls = count_calls(monkeypatch, cohomology, ("hochschild_slice", "phi", "_d_module_unchecked"))
    sys = triangular_system(GF(5), 1, 2)
    assert les_check(sys, regular_bimodule(sys), 3).ok
    assert calls == {"hochschild_slice": 7, "phi": 4, "_d_module_unchecked": 1}
    # with phi_3 perturbed the check fails at the top degree, fed in one
    # block, and the chain-level slots read the phi_3 that the check
    # stored: phi_rows runs once per degree
    degrees, runs = Counter(), []
    perturbed, by_spans = perturbed_phi(phi_rows, 3, 1), cohomology._les_by_spans

    def counted_rows(n, *args):
        degrees[n] += 1
        return perturbed(n, *args)

    def counted_spans(cx, top):
        runs.append(top)
        return by_spans(cx, top)

    monkeypatch.setattr(cohomology, "phi_rows", counted_rows)
    monkeypatch.setattr(cohomology, "_les_by_spans", counted_spans)
    les_check(sys, regular_bimodule(sys), 3)
    assert runs == [3] and degrees == {0: 1, 1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("field", [GF(5), GF(40009), QQ], ids=str)
def test_cohomology_is_additive_in_the_bimodule(field):
    # every complex of M1 (+) M2 is the direct sum of those of M1 and M2,
    # whatever base change scrambles M: the regular bimodule (+) a
    # zero-action one of dimension 1 must give the sum of their Betti
    # numbers, LES slot dimensions and, over a prime field, census class
    # counts (triangular: rbs [0, 5, 13, 20, 28] = [0, 4, 9, 14, 20] +
    # [0, 1, 4, 6, 8], and 13 = 9 + 4 classes)
    from rbsys import check_rbs_bimodule, h2_extension_census

    for sys in (triangular_system(field, 1, 2), line_system(field, 1, 0)):
        rng = random.Random(5)
        reg, zero = regular_bimodule(sys), zero_action_bimodule(sys, 1, rng)
        scramble = random_invertible(field, reg.dim + 1, rng)
        total = conjugate_bimodule(direct_sum(reg, zero), Matrix.identity(field, sys.dim), scramble)
        assert check_rbs_bimodule(total)
        mods = (reg, zero, total)
        for tag in (ALG, RBSO, RBS):
            h1, h2, h = (betti(tag, sys, mod, 4).h for mod in mods)
            assert h == [a + b for a, b in zip(h1, h2)], tag
        s1, s2, s = ([(slot.image_dim, slot.kernel_dim) for slot in les_check(sys, mod, 3).slots] for mod in mods)
        assert s == [(a[0] + b[0], a[1] + b[1]) for a, b in zip(s1, s2)]
        if field.is_prime_field:
            n1, n2, n = (len(h2_extension_census(sys, mod)) - 1 for mod in mods)
            assert n == n1 + n2


def test_rational_ladder_rungs_against_reduction_and_the_certified_ranks():
    # every Q rung of rank_ladder document set 0 (the scrambles of
    # run_rng(0, 0, name)): betti's ranks, found through one prime, are the
    # certified ranks of the multimodular elimination (Complexes.rank); and
    # the pair reduced mod p has ranks at most those over Q, so h_p >= h_Q
    # in every degree, for p = 40009 and 2^28 - 57
    import golden  # noqa: F401  (puts bench/ on the path)
    from rbsbench import families, workloads
    from rbsys.linalg import _prime

    rungs = [spec for spec in workloads.rank_ladder_slots() if spec["field"] == "Q"]
    assert len(rungs) == 7
    for spec in rungs:
        sys, mod = families.scrambled_pair(QQ, spec, families.run_rng(0, 0, spec["name"]))
        top, cx = spec["degree"], Complexes(sys, mod)
        reductions = [reduced_pair_by_tensors(sys, mod, p) for p in (40009, _prime(0))]
        for tag in (ALG, RBSO, RBS):
            report = betti(tag, sys, mod, top)
            assert [row["rank"] for row in report.rows] == [cx.rank(tag, n) for n in range(top + 1)]
            for base, reduced in reductions:
                h_p = betti(tag, base, reduced, top).h
                assert all(a >= b for a, b in zip(h_p, report.h)), (spec["name"], tag, h_p, report.h)


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
    # 16 products assemble and check the inputs.  The check of the system
    # takes 8: two for associativity, the two terms mu (R (x) Id) and mu
    # (Id (x) S) of the star product, made once for the check and the star
    # algebra, and one more on each side of each operator equation, as mu
    # (R (x) R) = mu (R (x) Id) (Id (x) R) and mu (S (x) S) = mu (Id (x) S)
    # (S (x) Id) start from those terms and op star is one product.  The
    # actions of the doubled module take 8.  On a valid pair the slots are
    # read off the ranks: each M_p takes phi_p K (4), and the check that
    # rbs_p rbs_(p-1) = 0 multiplies its blocks, delta_p delta_(p-1) (3),
    # partial_(p-1) partial_(p-2) for p >= 2 (2) and both sides of
    # partial_(p-1) phi_(p-1) = phi_p delta_(p-1) (6): 31 = 16 + 4 + 11.
    # With phi_0 perturbed the check fails at p = 1 after its three
    # products, and the chain-level slots make the products they made
    # before the check existed, 49 with the inputs: 52.
    from rbsys import cohomology

    def products(phi_rows):
        with monkeypatch.context() as patch:
            calls = count_products(patch)
            patch.setattr(cohomology, "phi_rows", phi_rows)
            sys = triangular_system(GF(5), 1, 2)
            report = les_check(sys, regular_bimodule(sys), 3)
        return report.ok, sum(calls.values())

    assert products(phi_rows) == (True, 31)
    assert products(perturbed_phi(phi_rows, 0, 1)) == (False, 52)


def _les_eliminations(monkeypatch, phi_rows, stream_size=None):
    """The shapes of the eliminations of les_check on the triangular GF(5)
    pair to degree 3, each with whether it was fed in row blocks, and the
    report."""
    from rbsys import cohomology, linalg

    calls = []
    rref = linalg._rref_array

    def counted(a, field):
        calls.append((a.shape, isinstance(a, linalg._Rows)))
        return rref(a, field)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_rref_array", counted)
        patch.setattr(cohomology, "phi_rows", phi_rows)
        if stream_size is not None:
            patch.setattr(linalg, "_STREAM_SIZE", stream_size)
        sys = triangular_system(GF(5), 1, 2)
        report = les_check(sys, regular_bimodule(sys), 3)
    return calls, report


def test_les_check_eliminations(monkeypatch):
    # on a valid pair one elimination each of delta_0..3 and M_0..3 (8),
    # M_p = [partial_(p-1) | phi_p K] yielding the ranks of both partial_(p-1)
    # and N_p, and none else.  With phi_0 perturbed the chain-level slots run
    # after the check fails and make the 27 eliminations they made before it
    # existed, reusing its memos: one per memo of delta_0..3, partial_0..2
    # and N_0..3 (11), per coboundary span (9), and per slot at most one, of
    # the stacked residuals [reduce(W) | reduce(z)], which yields both the
    # rank of reduce(W) and the echelon of the kernel members; a zero stack
    # needs none (4 of the 11 slots here): 27 = 11 + 9 + 7
    calls, report = _les_eliminations(monkeypatch, phi_rows)
    assert report.ok and len(calls) == 8
    calls, report = _les_eliminations(monkeypatch, perturbed_phi(phi_rows, 0, 1))
    assert not report.ok and len(calls) == 27


def test_les_check_eliminates_streamed_slices_once(monkeypatch):
    # with every prime-field slice taller than one block fed to elimination
    # in row blocks, les_check makes the same eliminations, of the same
    # shapes: 8 on a valid pair, and 27 on the chain-level path with phi_0
    # perturbed, where the coboundary spans of delta_n and partial_n read
    # the pivots that their kernels found, and eliminate no slice again
    from rbsys import linalg

    for perturbed, count in ((phi_rows, 8), (perturbed_phi(phi_rows, 0, 1), 27)):
        whole, _ = _les_eliminations(monkeypatch, perturbed, linalg._STREAM_SIZE)
        streamed, _ = _les_eliminations(monkeypatch, perturbed, 0)
        assert len(whole) == len(streamed) == count
        assert [shape for shape, _ in whole] == [shape for shape, _ in streamed]
        assert not any(fed for _, fed in whole) and any(fed for _, fed in streamed)


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


def _perturbations(sys, seed):
    """The functions of rbsys.cohomology to patch, as (name, function):
    phi intact; phi with a rank-one term added in one degree, each of 0..3,
    so that it is no longer a chain map; and delta_1 with a rank-one term,
    so that delta^2 != 0.  phi is patched through phi_rows, which builds it
    whole and by rows."""
    from rbsys import cohomology

    hochschild = cohomology.hochschild_slice
    return (
        [("phi_rows", phi_rows)]
        + [("phi_rows", perturbed_phi(phi_rows, degree, seed)) for degree in range(4)]
        + [("hochschild_slice", perturbed_slice(hochschild, sys.alg, 1, seed))]
    )


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(40009)], ids=repr)
def test_les_check_matches_column_span_oracle(field, monkeypatch):
    # slot for slot against eliminating every span afresh, with phi intact
    # and with phi or delta_1 perturbed (see _perturbations), so that slots
    # fail; failing slots carry a witness, and the slots are compared at
    # chain level exactly where the assembled rbs does not square to zero.
    # Over GF(5) also the triangular pair with phi_3 perturbed and every
    # slice fed to elimination in row blocks, where N_3 reads phi_3 by rows
    from rbsys import cohomology, linalg

    runs = []
    by_spans = cohomology._les_by_spans

    def counted(cx, top):
        runs.append(top)
        return by_spans(cx, top)

    rng = random.Random(401)
    cases = []
    for seed in range(8):
        sys, mod = random_system_bimodule(rng, field)
        cases += [(sys, mod, name, patched, None) for name, patched in _perturbations(sys, seed)]
    if field == GF(5):
        tri = triangular_system(field, 1, 2)
        cases.append((tri, regular_bimodule(tri), "phi_rows", perturbed_phi(phi_rows, 3, 1), 0))
    failing, tags = 0, set()
    for sys, mod, name, patched, stream_size in cases:
        with monkeypatch.context() as patch:
            patch.setattr(cohomology, name, patched)
            patch.setattr(cohomology, "_les_by_spans", counted)
            if stream_size is not None:
                patch.setattr(linalg, "_STREAM_SIZE", stream_size)
            runs.clear()
            report = les_check(sys, mod, 3)
            spans = {}
            expected = les_slots_by_column_spans(sys, mod, 3, spans=spans)
            cx = Complexes(sys, mod)
            squares = all((slice_of(cx, RBS, p) @ slice_of(cx, RBS, p - 1)).is_zero() for p in (1, 2, 3))
        assert [(s.name, s.degree, s.image_dim, s.kernel_dim, s.ok) for s in report.slots] == expected
        assert runs == ([] if squares else [3])
        for s in report.slots:
            _assert_witness(field, s, spans)
            tags.add(s.witness.tag if s.witness is not None else None)
        assert report.ok or patched is not phi_rows
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
    # eliminated from whole slices; phi intact, and phi or delta_1 perturbed
    # (see _perturbations), on the instance_set pairs (Q, GF(2), GF(5)) and
    # on GF(40009) pairs, among them cocycle spaces with zero columns in
    # degree 1 and up.  At top degree 3 no slot reads phi_3, so on the pairs
    # with d m <= 2 phi_3 is perturbed once more under top degree 4, where
    # the rbso^3 slot reads it and fails
    from rbsys import cohomology

    rng = random.Random(1812)
    pairs = instance_set(24, seed=1811) + [random_system_bimodule(rng, GF(40009)) for _ in range(6)]
    fields, tags, empty, top4 = set(), set(), 0, set()
    for k, (sys, mod) in enumerate(pairs):
        fields.add(sys.field)
        cx = Complexes(sys, mod)
        empty += any(cx.kernel(tag, n).cols == 0 for n in (1, 2, 3) for tag in (ALG, RBSO, RBS))
        for name, patched in _perturbations(sys, k):
            with monkeypatch.context() as patch:
                patch.setattr(cohomology, name, patched)
                got = les_check(sys, mod, 3)
                assert _slot_fields(got) == _slot_fields(les_check_by_slot_kernels(sys, mod, 3))
            assert got.ok or patched is not phi_rows
            tags |= {s.witness.tag for s in got.slots if s.witness is not None}
        if sys.dim * mod.dim <= 2:
            with monkeypatch.context() as patch:
                patch.setattr(cohomology, "phi_rows", perturbed_phi(phi_rows, 3, k))
                got = les_check(sys, mod, 4)
                assert _slot_fields(got) == _slot_fields(les_check_by_slot_kernels(sys, mod, 4))
            top4 |= {(s.name, s.degree) for s in got.slots if not s.ok}
    assert fields == {QQ, GF(2), GF(5), GF(40009)}
    assert empty >= 10
    assert tags == {"image_not_in_kernel", "kernel_not_in_image"}
    assert ("rbso", 3) in top4


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(40009)], ids=repr)
def test_les_check_reads_valid_pairs_off_their_ranks(field, monkeypatch):
    # on valid pairs of the seed families (zero multiplication, line,
    # triangular, idempotent operators on K^n) to degrees 1-3 the slots are
    # read off the ranks: no rbs_n is assembled, no coboundary span or slot
    # is eliminated and the chain-level slots never run; the eliminations
    # are those of delta_p and M_p = [partial_(p-1) | phi_p K] (p <= top),
    # once each, M_p of the shape of N_p: no partial_p is eliminated alone
    from rbsys import cohomology

    rng = random.Random(77)
    pairs = [random_system_bimodule(rng, field) for _ in range(8)]

    def refused(*args):
        raise AssertionError("les_check left the ranks")

    shapes = []
    rref_rows = cohomology.rref_rows

    def counted(over, shape, blocks):
        shapes.append(shape)
        return rref_rows(over, shape, blocks)

    for sys, mod in pairs:
        for top in (1, 2, 3):
            with monkeypatch.context() as patch:
                for owner, name in ((cohomology, "rbs_d"), (Matrix, "rref"), (cohomology, "_les_by_spans")):
                    patch.setattr(owner, name, refused)
                patch.setattr(cohomology, "rref_rows", counted)
                shapes.clear()
                report = les_check(sys, mod, top)
            assert report.ok and all(s.witness is None for s in report.slots)
            cx = Complexes(sys, mod)
            want = [(cx.dim(ALG, p + 1), cx.dim(ALG, p)) for p in range(top + 1)]
            want += [
                (cx.dim(RBSO, p), cx.dim(ALG, p) - cx.rank(ALG, p) + cx.dim(RBSO, p - 1)) for p in range(top + 1)
            ]
            assert sorted(shapes) == sorted(want)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(40009)], ids=repr)
def test_les_ranks_read_partial_and_rbs_off_one_elimination(field, monkeypatch):
    # the ranks that the valid route of les_check reads, delta_p and M_p =
    # [partial_(p-1) | phi_p K] eliminated once each, against the slices
    # assembled whole and eliminated one by one: delta_p, partial_(p-1) and
    # rbs_p, on the seed families and random pairs, tops 1-3, whole and
    # with every prime-field slice fed in row blocks
    from rbsys import cohomology, linalg

    rng = random.Random(3401)
    pairs = list(_seed_family_pairs(field, rng)) + [random_system_bimodule(rng, field) for _ in range(6)]
    moved = 0
    for stream_size in (linalg._STREAM_SIZE, 0) if field != QQ else (linalg._STREAM_SIZE,):
        for sys, mod in pairs:
            want = Complexes(sys, mod)
            for top in (1, 2, 3):
                with monkeypatch.context() as patch:
                    patch.setattr(linalg, "_STREAM_SIZE", stream_size)
                    ranks = cohomology._les_ranks(Complexes(sys, mod), top)
                expected = {(ALG, p): slice_of(want, ALG, p).rank() for p in range(top + 1)}
                expected.update({(RBS, p): r for p, r in enumerate(assembled_ranks(sys, mod, top))})
                expected.update({(RBSO, p): slice_of(want, RBSO, p).rank() for p in range(top)})
                assert ranks == expected, (sys, mod, top)
                # some pivot of M_p among the phi_p K columns, which the
                # count of rank partial_(p-1) must leave out
                moved += any(ranks[RBS, p] - ranks[ALG, p] > ranks[RBSO, p - 1] for p in range(1, top + 1))
    assert moved


def _kernel_bases_formed(monkeypatch, run):
    """How many canonical kernel bases run() forms: every one is formed by
    linalg._kernel."""
    from rbsys import linalg

    formed = []
    kernel = linalg._kernel

    def counted(*args):
        formed.append(args[0])
        return kernel(*args)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_kernel", counted)
        run()
    return len(formed)


def test_kernel_bases_are_formed_only_where_read(monkeypatch):
    # the valid route of les_check reads ranks and forms only the kernel
    # bases K of delta_0..3 that M_p reads; betti(rbs) forms the same four
    # for N_p, and betti(alg) none; the same whole and with every slice
    # fed to elimination in row blocks, which keeps the RREF's free block
    # until K is read, as a whole elimination does
    from rbsys import linalg

    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    for stream_size in (linalg._STREAM_SIZE, 0):
        monkeypatch.setattr(linalg, "_STREAM_SIZE", stream_size)
        assert _kernel_bases_formed(monkeypatch, lambda: les_check(sys, mod, 3)) == 4
        assert _kernel_bases_formed(monkeypatch, lambda: betti(RBS, sys, mod, 3)) == 4
        assert _kernel_bases_formed(monkeypatch, lambda: betti(ALG, sys, mod, 3)) == 0


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_a_kernel_read_after_rank_or_image_is_the_eager_one(field, monkeypatch):
    # a kernel basis formed on its first read, after rank or image read the
    # pivots of the elimination, is byte-equal (entries, dtype, denominator)
    # to the one read first thing, on alg, rbso and rbs, whole and with
    # every prime-field slice fed in row blocks
    from rbsys import linalg

    sys = triangular_system(field, 1, 2)
    mod = regular_bimodule(sys)
    for stream_size in (linalg._STREAM_SIZE, 0) if field != QQ else (linalg._STREAM_SIZE,):
        monkeypatch.setattr(linalg, "_STREAM_SIZE", stream_size)
        for tag in (ALG, RBSO, RBS):
            for n in range(4):
                eager = Complexes(sys, mod).kernel(tag, n)
                for first in ("rank", "image"):
                    cx = Complexes(sys, mod)
                    getattr(cx, first)(tag, n)
                    lazy = cx.kernel(tag, n)
                    assert lazy.num.dtype == eager.num.dtype and lazy.den == eager.den
                    assert np.array_equal(lazy.num, eager.num), (tag, n, first)
                assert eager == slice_of(cx, tag, n).kernel_basis()


def test_les_check_falls_back_to_chain_level_slots(monkeypatch):
    # with phi_0 perturbed, rbs_1 rbs_0 != 0: the check fails, and the slots
    # are compared at chain level, so that the failing slot has a witness
    from rbsys import cohomology

    runs = []
    by_spans = cohomology._les_by_spans

    def counted(cx, top):
        runs.append(top)
        return by_spans(cx, top)

    monkeypatch.setattr(cohomology, "_les_by_spans", counted)
    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    assert les_check(sys, mod, 3).ok and runs == []
    monkeypatch.setattr(cohomology, "phi_rows", perturbed_phi(phi_rows, 0, 1))
    report = les_check(sys, mod, 3)
    assert runs == [3] and not report.ok
    assert _slot_fields(report) == _slot_fields(les_check_by_slot_kernels(sys, mod, 3))


def test_the_square_check_agrees_with_the_assembled_product(monkeypatch):
    # the check that rbs_p rbs_(p-1) = 0, made by products of its blocks,
    # against the product of the assembled slices, on valid pairs and with
    # phi or delta_1 perturbed (see _perturbations)
    from rbsys import cohomology
    from rbsys.cohomology import _squares_to_zero

    rng = random.Random(2718)
    pairs = instance_set(12, seed=2719) + [random_system_bimodule(rng, GF(40009)) for _ in range(3)]
    verdicts = set()
    for k, (sys, mod) in enumerate(pairs):
        for name, patched in _perturbations(sys, k):
            with monkeypatch.context() as patch:
                patch.setattr(cohomology, name, patched)
                cx = Complexes(sys, mod)
                want = all((slice_of(cx, RBS, p) @ slice_of(cx, RBS, p - 1)).is_zero() for p in (1, 2, 3))
                assert _squares_to_zero(Complexes(sys, mod), 3) == want
            assert want or patched is not phi_rows
            verdicts.add((name, want))
    assert verdicts == {("phi_rows", True), ("phi_rows", False), ("hochschild_slice", False), ("hochschild_slice", True)}


def _perturbed_partial(hochschild_slice, sys, mod, degree, seed):
    """hochschild_slice with a rank-one term u v^T added to partial_degree,
    v chosen so that v^T phi_degree = 0 and v^T partial_(degree-1) != 0:
    then only the blocks partial partial of rbs^2 change, not the chain-map
    block, or None when no such v exists."""
    cx = Complexes(sys, mod)
    below, left = cx.partial(degree - 1), cx.phi(degree).transpose().kernel_basis()
    hits = [j for j in range(left.cols) if not (left.col(j).transpose() @ below).is_zero()]
    if not hits:
        return None
    u = random_matrix(sys.field, cx.dim(RBSO, degree + 1), 1, random.Random(seed))
    if u.is_zero():
        return None
    term = u @ left.col(hits[0]).transpose()

    def perturbed(a, actions, n, cap=None, rows=None):
        out = hochschild_slice(a, actions, n, cap, rows)
        if a is sys.alg or n != degree:
            return out
        return out + (term if rows is None else term.take_rows(*rows))

    return perturbed


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(40009)], ids=repr)
def test_les_check_takes_the_rank_route_exactly_when_rbs_squares_to_zero(field, monkeypatch):
    # les_check to degree 3 reads the slots off the ranks exactly when
    # rbs_q rbs_(q-1), assembled whole, is zero for every q <= 3, and
    # compares them at chain level otherwise.  The valid triangular, line
    # and idempotent pairs, each with phi_p perturbed at p = 0..3 (two
    # seeds), and with partial_1 or partial_2 perturbed so that only the
    # partial partial blocks are nonzero; each whole, and with every
    # prime-field slice fed in row blocks, where the top degree is checked
    # block by block.  Among the cases, some fail at the top degree only and
    # some in the partial partial blocks only
    from rbsys import cohomology, from_rb_operator, linalg

    from instances import diagonal_algebra, idempotent_rb_operator

    runs = []
    by_spans = cohomology._les_by_spans

    def counted(cx, top):
        runs.append(top)
        return by_spans(cx, top)

    idem = from_rb_operator(diagonal_algebra(field, 2), idempotent_rb_operator(field, 2, [0], 1), 1)[0]
    hochschild = cohomology.hochschild_slice
    cases = []
    for sys in (triangular_system(field, 1, 1), line_system(field, 1, 0), idem):
        mod = regular_bimodule(sys)
        cases.append((sys, mod, "phi_rows", phi_rows, "valid"))
        for degree in range(4):
            cases += [(sys, mod, "phi_rows", perturbed_phi(phi_rows, degree, seed), degree) for seed in (0, 1)]
        for degree in (1, 2):
            patched = _perturbed_partial(hochschild, sys, mod, degree, degree)
            if patched is not None:
                cases.append((sys, mod, "hochschild_slice", patched, "partial"))
    outcomes = []
    for sys, mod, name, patched, kind in cases:
        for stream_size in (None, 0):
            with monkeypatch.context() as patch:
                patch.setattr(cohomology, name, patched)
                patch.setattr(cohomology, "_les_by_spans", counted)
                if stream_size is not None:
                    patch.setattr(linalg, "_STREAM_SIZE", stream_size)
                runs.clear()
                report = les_check(sys, mod, 3)
                cx = Complexes(sys, mod)
                products = [(slice_of(cx, RBS, q) @ slice_of(cx, RBS, q - 1)).is_zero() for q in (1, 2, 3)]
                tall = len(linalg.row_blocks(field, (cx.dim(RBSO, 3), cx.dim(ALG, 3)))) > 1
            assert runs == ([] if all(products) else [3]), (sys, kind, stream_size)
            assert report.ok or not all(products)
            outcomes.append((kind, tuple(products), tall))
    assert ("valid", (True, True, True), False) in outcomes
    assert (3, (True, True, False), False) in outcomes
    assert field.p is None or (3, (True, True, False), True) in outcomes
    assert any(kind == "partial" and not all(products) for kind, products, _ in outcomes)


def _corner_pair():
    """GF(5) idem d = 4 with the regular bimodule, a seed-7 scramble."""
    from rbsys import from_rb_operator

    from instances import diagonal_algebra, idempotent_rb_operator

    field = GF(5)
    sys = from_rb_operator(diagonal_algebra(field, 4), idempotent_rb_operator(field, 4, [0, 2], 1), 1)[0]
    p = random_invertible(field, 4, random.Random(7))
    return conjugate_system(sys, p), conjugate_bimodule(regular_bimodule(sys), p, p)


def test_les_check_at_the_corner_builds_no_top_slice_whole(monkeypatch):
    # at the corner to degree 4, delta_4 (4096 x 1024) and phi_4 (2048 x
    # 1024) are checked against the stored slices of degree 3 and
    # eliminated block by block, and never built whole; the slices below
    # the top are built whole once each
    whole = []
    build = Complexes._whole

    def spied(self, key, n):
        whole.append((key, n))
        return build(self, key, n)

    monkeypatch.setattr(Complexes, "_whole", spied)
    sys, mod = _corner_pair()
    assert les_check(sys, mod, 4, cap=30000).ok
    assert sorted(whole) == sorted((key, p) for key in (ALG, RBSO, "phi") for p in range(4))


def test_les_check_at_the_corner_matches_the_chain_level_slots():
    # the corner to degree 4, where delta_4 and phi_4 are fed to
    # elimination in row blocks: the slots read off the ranks are those
    # compared at chain level
    from rbsys.cohomology import _les_by_spans

    sys, mod = _corner_pair()
    report = les_check(sys, mod, 4, cap=30000)
    assert report.ok
    assert _slot_fields(report) == _slot_fields(_les_by_spans(Complexes(sys, mod, 30000), 4))


@pytest.mark.slow
def test_les_check_at_the_corner_forms_the_kernel_bases_it_reads(monkeypatch):
    # the corner to degree 4: the ranks read the kernel bases K of delta_0..4
    # (M_p reads K of delta_p), and the stream M_4 (2048 x 720) keeps its
    # free block and forms no basis.  Opt in with pytest -m slow
    sys, mod = _corner_pair()
    assert _kernel_bases_formed(monkeypatch, lambda: les_check(sys, mod, 4, cap=30000)) == 5


def test_les_kernel_witness_is_outside_the_image(monkeypatch):
    # at rbs^2 the first kernel member outside the coboundaries lies in the
    # image, so the witness must be reduced modulo the incoming span too
    from rbsys import cohomology

    field = GF(2)
    sys = triangular_system(field, 1, 2)
    mod = regular_bimodule(sys)
    monkeypatch.setattr(cohomology, "phi_rows", perturbed_phi(cohomology.phi_rows, 1, 1))
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
        monkeypatch.setattr(cohomology, "phi_rows", perturbed_phi(phi_rows, 1, seed))
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
    # every flag compares row blocks of phi_n and sums and differences of
    # the quadrants of partial_(n-1): no products with 0/1 matrices, no
    # elimination, and neither delta_n nor rbs_n is built.  What is left are
    # the 26 products that build phi_n, partial_(n-1) and the displayed
    # differential, and that check the system, whose operator equations
    # start from the two terms of the star product mu (R (x) Id + Id (x) S),
    # which the doubled module reads again.
    from rbsys import linalg

    eliminations = []
    rref = linalg._rref_array

    def counted_rref(a, field):
        eliminations.append(a.shape)
        return rref(a, field)

    products = count_products(monkeypatch)
    monkeypatch.setattr(linalg, "_rref_array", counted_rref)
    field = GF(5)
    alg = triangular_algebra(field)
    R = Matrix.from_rows(field, [[-1, 0, 0], [0, -1, 0], [0, 0, 0]])  # -(e0 .)
    report = rba_embedding_check(alg, R, 1, 3)
    assert report.ok
    assert [sorted(row) for row in report.details] == [
        ["chain_map", "image_closed", "injective", "n", "quotient_matches_display"]
    ] * 4
    assert sum(products.values()) == 26
    assert eliminations == []


@pytest.mark.parametrize("field", [GF(5), QQ], ids=repr)
def test_a_complex_keeps_kernels_not_rrefs(field):
    # with every slice of rbs_n stored (d applies them) before the rank
    # calls eliminate them (delta_3 is 243 x 81 here, past the blocked
    # cut-over), no stored slice keeps an RREF; what a complex keeps of
    # each elimination is its pivots, and its RREF only until its canonical
    # kernel basis is read: N_n keeps it, delta_n (whose K N_n reads) not
    sys = triangular_system(field, 1, 2)
    cx = Complexes(sys, regular_bimodule(sys))
    for n in range(4):
        cx.d(Cochain(RBS, n, Matrix.zeros(field, cx.dim(RBS, n), 1)))
        cx.rank(RBS, n)
    slices = [m for key, m in cx._built.items() if key[0] != "echelon"]
    assert len(slices) == 11
    assert all(m._rref is None for m in slices)
    for n in range(4):
        restricted = cx._built["echelon", RBS, n]
        assert restricted._kernel is None and restricted._rref is not None
        elimination = cx._built["echelon", ALG, n]
        assert elimination._rref is None
        kernel, pivots = elimination.kernel(), elimination.pivots
        free = [c for c in range(kernel.rows) if c not in pivots]
        assert kernel.cols == cx.dim(ALG, n) - len(pivots)
        assert Matrix(field, kernel.a[free]) == Matrix.identity(field, len(free))
        assert (cx.delta(n) @ kernel).is_zero()


# -- rank-only betti over Q ----------------------------------------------------


def _rational_pairs():
    """Every seed family of tests/instances.py over Q, scrambled, and the four
    scrambled dim-3 Q pairs of the acceptance tests."""
    from instances import random_system_bimodule

    pairs = list(_seed_family_pairs(QQ, random.Random(2606)))
    rng = random.Random(303)
    dim3 = []
    while len(dim3) < 4:
        sys, mod = random_system_bimodule(rng, QQ, big=True)
        if sys.dim == 3:
            dim3.append((sys, mod))
    return pairs + dim3


def test_rational_betti_matches_the_certified_ranks():
    # the ranks proven from one prime against the multimodular certified
    # elimination of every differential over Q, for all three complexes to
    # degree 4.  One rank falls back: rbs_4 of a dim-3 pair, where 12 of the
    # 196 kernel columns mod p have no lift within sqrt(p/2) and the others
    # with the coboundaries span less than the kernel
    proofs = []
    for sys, mod in _rational_pairs():
        cx = Complexes(sys, mod)
        for tag in (ALG, RBSO, RBS):
            report = betti(tag, sys, mod, 4)
            assert [row["rank"] for row in report.rows] == [cx.rank(tag, n) for n in range(5)]
            proofs += report.proofs
    assert set(proofs) == {"bounds", "witnesses", "certified"} and proofs.count("certified") == 1


def test_a_prime_field_betti_proves_by_elimination():
    sys = triangular_system(GF(5), 1, 2)
    assert betti(RBS, sys, regular_bimodule(sys), 2).proofs == ["elimination"] * 3


def test_a_prime_that_divides_a_minor_falls_back_to_the_certified_ranks():
    # R = (p) on the line vanishes mod p = 2^28 - 57, the prime betti reduces
    # by, so the ranks mod p drop below those over Q: no witness can hold,
    # and the certified elimination gives the table
    from rbsys.linalg import _prime

    for sys in (line_system(QQ, _prime(0), 0), line_system(QQ, 0, _prime(0))):
        mod = regular_bimodule(sys)
        cx = Complexes(sys, mod)
        for tag in (RBS, RBSO):
            report = betti(tag, sys, mod, 4)
            assert [row["rank"] for row in report.rows] == [cx.rank(tag, n) for n in range(5)]
            assert "certified" in report.proofs


def test_a_denominator_that_p_divides_moves_the_prime():
    # an entry 1/p leaves p for the next prime of the Q path
    from rbsys.linalg import _prime, modulo_prime

    sys = line_system(QQ, Fraction(1, _prime(0)), 0)
    assert modulo_prime([sys.R])[0].field == GF(_prime(1))
    mod = regular_bimodule(sys)
    cx = Complexes(sys, mod)
    report = betti(RBS, sys, mod, 3)
    assert [row["rank"] for row in report.rows] == [cx.rank(RBS, n) for n in range(4)]


def test_a_mod_p_kernel_that_drops_a_pivot_falls_back(monkeypatch):
    # the elimination of rbs_2 mod p is made to lose a pivot, as a prime
    # that divides a minor would: the rank drops by one and the kernel gains
    # the unit column of that pivot, which is no cocycle.  Its check fails,
    # the other columns and the coboundaries span one dimension too few, and
    # rbs_2 falls back to the certified rank; rbs_3 is still witnessed
    sys = triangular_system(QQ, 1, 2)
    mod = regular_bimodule(sys)
    rank, kernel = Complexes.rank, Complexes.kernel

    def lost(cx, tag, n):
        return cx.sys.field != QQ and (tag, n) == (RBS, 2)

    def dropped_rank(self, tag, n):
        return rank(self, tag, n) - lost(self, tag, n)

    def dropped_kernel(self, tag, n):
        k = kernel(self, tag, n)
        if not lost(self, tag, n):
            return k
        free = {max(np.flatnonzero(k.num[:, j])) for j in range(k.cols)}
        pivot = min(set(range(k.rows)) - free)
        return hstack([k, Matrix.unit_column(k.field, k.rows, pivot)])

    cx = Complexes(sys, mod)
    want = [cx.rank(RBS, n) for n in range(4)]
    monkeypatch.setattr(Complexes, "rank", dropped_rank)
    monkeypatch.setattr(Complexes, "kernel", dropped_kernel)
    report = betti(RBS, sys, mod, 3)
    assert [row["rank"] for row in report.rows] == want
    assert report.proofs == ["bounds", "witnesses", "certified", "witnesses"]


def test_a_rank_proven_by_bounds_builds_no_rational_slice(monkeypatch):
    # idem d = 2 has h = 0 in every degree, so every rank is proven by the
    # bounds and nothing over Q is assembled; on the triangular system only
    # the witness degrees build slices over Q, to apply them
    from rbsys import cohomology, from_rb_operator

    from instances import diagonal_algebra, idempotent_rb_operator

    built = []
    hochschild, phi_n = cohomology.hochschild_slice, cohomology.phi

    def spy_hochschild(alg, actions, n, *rest):
        built.append(("hochschild", alg.field, n))
        return hochschild(alg, actions, n, *rest)

    def spy_phi(n, sys, mod, *rest):
        built.append(("phi", sys.field, n))
        return phi_n(n, sys, mod, *rest)

    monkeypatch.setattr(cohomology, "hochschild_slice", spy_hochschild)
    monkeypatch.setattr(cohomology, "phi", spy_phi)
    idem2 = from_rb_operator(diagonal_algebra(QQ, 2), idempotent_rb_operator(QQ, 2, [0], 3), 3)[0]
    report = betti(RBS, idem2, regular_bimodule(idem2), 4)
    assert report.h == [0] * 5 and set(report.proofs) == {"bounds"}
    assert built and QQ not in {field for _, field, _ in built}
    built.clear()
    tri = triangular_system(QQ, 1, 2)
    report = betti(RBS, tri, regular_bimodule(tri), 3)
    assert report.proofs == ["bounds", "witnesses", "witnesses", "witnesses"]
    # over Q: delta_1..3 and partial_0..2 (Hochschild), phi_1..3; degree 0,
    # proven by the bounds, builds nothing
    assert {(what, n) for what, field, n in built if field == QQ} == {
        ("hochschild", n) for n in range(4)
    } | {("phi", n) for n in (1, 2, 3)}


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, top, ranks, seconds",
    [
        ("q_idem3_scramble7", 5, [3, 12, 33, 102, 303, 912], 2),
        ("q_idem4_scramble7", 4, [4, 20, 76, 308, 1228], 5),
    ],
)
def test_rational_betti_of_an_idem_scramble_in_seconds(name, top, ranks, seconds):
    # Q idem d = 3 and d = 4 with the regular bimodule, scrambled: the
    # documents under tests/data were written from the benchmark's seed
    # families (scrambled_pair with run_rng(7, 0, slot), slots
    # rl_q_idem3_deg5 and rl_gf5_idem4_deg3).  h = 0 in every degree, so
    # every rank is proven by the bounds of one prime.  The ranks are those
    # of the certified elimination over Q, which took 44 s and 114 s on a
    # 2-vCPU Xeon.  Opt in with pytest -m slow.
    import time
    from pathlib import Path

    from rbsys import documents as docs

    data = Path(__file__).resolve().parent / "data"
    sys = docs.parse_system(docs.load(data / f"{name}.system.json"))
    mod = docs.parse_bimodule(docs.load(data / f"{name}.bimodule.json"), sys)
    start = time.perf_counter()
    report = betti(RBS, sys, mod, top)
    elapsed = time.perf_counter() - start
    print(f"{name}: betti to degree {top} in {elapsed:.2f} s")
    assert [row["rank"] for row in report.rows] == ranks and report.h == [0] * (top + 1)
    assert set(report.proofs) == {"bounds"}
    assert elapsed <= seconds
