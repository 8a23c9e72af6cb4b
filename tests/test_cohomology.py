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
    CochainComplex,
    DimensionCapExceeded,
    Matrix,
    MultiMap,
    betti,
    conjugate_bimodule,
    conjugate_system,
    delta,
    les_check,
    multimap_vector,
    pack_rbs_cochain,
    partial,
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
    random_invertible,
    random_matrix,
    random_system_bimodule,
    triangular_algebra,
    triangular_system,
    unital_line,
)
from oracles import (
    basis_tuples,
    gf2_rank,
    naive_dbar_apply,
    naive_delta_apply,
    naive_partial_apply,
    naive_phi_apply,
)


def test_delta_zero_structure():
    sys, mod = f2_zero_instance()
    for n in range(4):
        assert delta(n, sys.alg, mod.actions).matrix.is_zero()


def test_delta_line_degree_one_is_multiplication():
    sys = line_system(QQ, 1, 0)
    mod = regular_bimodule(sys)
    assert delta(1, sys.alg, mod.actions).matrix.entries() == [[1]]


def test_delta_degree_zero_formula():
    # delta0(f)(a) = -a f(1) + f(1) a
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    sl = delta(0, sys.alg, mod.actions).matrix
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
    sl = delta(n, sys.alg, mod.actions).matrix
    f = MultiMap(sys.alg, n, random_matrix(field, m, d**n, rng))
    image = sl @ multimap_vector(f)
    for col, tup in enumerate(basis_tuples(d, n + 1)):
        got = Matrix.from_rows(field, [[image[v * d ** (n + 1) + col, 0]] for v in range(m)])
        assert got == naive_delta_apply(sys.alg, mod.actions, f, tup)


def _check_partial(sys, mod, n, rng):
    """partial_n against the written-out operator-complex formulas."""
    d, m, field = sys.dim, mod.dim, sys.field
    sl = partial(n, sys, mod).matrix
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
            cx = CochainComplex(tag, sys, mod)
            for n in range(3):
                assert (cx.slice(n + 1).matrix @ cx.slice(n).matrix).is_zero()


def test_chain_map_identity_random():
    for sys, mod in instance_set(10, seed=191):
        for n in range(3):
            lhs = partial(n, sys, mod).matrix @ phi(n, sys, mod)
            rhs = phi(n + 1, sys, mod) @ delta(n, sys.alg, mod.actions).matrix
            assert lhs == rhs


def test_dimension_bookkeeping():
    sys = triangular_system(GF(5), 1, 1)
    mod = regular_bimodule(sys)
    c_alg = CochainComplex(ALG, sys, mod)
    c_rbso = CochainComplex(RBSO, sys, mod)
    c_rbs = CochainComplex(RBS, sys, mod)
    for n in range(1, 4):
        assert c_rbs.dim(n) == c_alg.dim(n) + c_rbso.dim(n - 1)
    assert c_rbs.dim(0) == c_alg.dim(0)


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


def test_betti_rbso_equals_hochschild_of_star_with_doubled_module():
    from rbsys.bimodules import _d_module_unchecked

    sys = triangular_system(GF(2), 1, 1)
    mod = regular_bimodule(sys)
    dm = _d_module_unchecked(mod)
    for n in range(3):
        a = partial(n, sys, mod).matrix
        b = delta(n, dm.star, dm.actions).matrix
        assert a == b


def test_is_cocycle_and_preimage():
    sys, mod = f2_zero_instance()
    cx = CochainComplex(RBS, sys, mod)
    zero2 = Cochain(RBS, 2, Matrix.zeros(GF(2), 3, 1))
    assert cx.is_cocycle(zero2)
    pre = cx.coboundary_preimage(zero2)
    assert pre is not None and pre.vector.is_zero()

    rng = random.Random(5)
    sys2 = triangular_system(QQ, 1, 2)
    mod2 = regular_bimodule(sys2)
    cx2 = CochainComplex(RBS, sys2, mod2)
    x = random_matrix(QQ, cx2.dim(1), 1, rng)
    image = Cochain(RBS, 2, cx2.slice(1).matrix @ x)
    assert cx2.is_cocycle(image)
    pre = cx2.coboundary_preimage(image)
    assert pre is not None
    assert cx2.slice(1).matrix @ pre.vector == image.vector

    # a class spanning H^1 in the zero instance has no preimage
    h1 = Cochain(RBS, 1, Matrix.column(GF(2), [0, 1, 0]))
    assert cx.is_cocycle(h1)
    assert cx.coboundary_preimage(h1) is None


def test_cocycle_shape_validation():
    sys, mod = f2_zero_instance()
    cx = CochainComplex(RBS, sys, mod)
    with pytest.raises(ValueError):
        cx.is_cocycle(Cochain(RBS, 2, Matrix.zeros(GF(2), 5, 1)))
    with pytest.raises(ValueError):
        cx.is_cocycle(Cochain(ALG, 2, Matrix.zeros(GF(2), 1, 1)))


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
    cx = {ALG: CochainComplex(ALG, sys, mod), RBSO: CochainComplex(RBSO, sys, mod),
          RBS: CochainComplex(RBS, sys, mod)}

    def boundary_rank(tag, p):
        return 0 if p == 0 else cx[tag].slice(p - 1).matrix.rank()

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
        delta(2, sys.alg, mod.actions, cap=10)
    with pytest.raises(ValueError):
        betti(RBS, sys, mod, 0)


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
    # once per degree
    calls = []
    matmul = Matrix.__matmul__

    def counted(self, other):
        calls.append((self.shape, other.shape))
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    sys = triangular_system(GF(5), 1, 2)
    assert les_check(sys, regular_bimodule(sys), 3).ok
    assert len(calls) == 31


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
