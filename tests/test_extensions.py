import random
from collections import Counter

import pytest

from rbsys import (
    GF,
    QQ,
    Algebra,
    Cochain,
    Complexes,
    Matrix,
    MultiMap,
    RBS,
    RotaBaxterSystem,
    assemble_extension,
    build_extension,
    check_extension,
    check_iso,
    check_rbs,
    check_rbs_bimodule,
    extract_cocycle,
    h2_extension_census,
    hstack,
    induced_bimodule,
    iso_from_cohomologous,
    multimap_vector,
    regular_bimodule,
    same_class,
    semidirect_product,
    vstack,
    zero_cocycle,
)
from rbsys.extensions import ExtensionData, ExtensionIso, cocycle_from_cochain

from instances import (
    eq2_failing_bimodule,
    eqR_failing_extension_doc,
    f2_zero_instance,
    instance_set,
    line_system,
    random_invertible,
    random_matrix,
    random_system_bimodule,
    triangular_system,
    unital_line,
)
from oracles import checked_payload, kernel_ideal_by_columns, slice_of
from spies import count_products


def _random_cocycle(sys, mod, rng):
    cx = Complexes(sys, mod)
    kernel = slice_of(cx, RBS, 2).kernel_basis()
    if kernel.cols == 0:
        return None
    vec = kernel @ random_matrix(sys.field, kernel.cols, 1, rng)
    return cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))


def _random_non_cocycle(sys, mod, rng):
    cx = Complexes(sys, mod)
    sl = slice_of(cx, RBS, 2)
    for _ in range(50):
        vec = random_matrix(sys.field, sl.cols, 1, rng)
        if not (sl @ vec).is_zero():
            return cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))
    return None


def _system_verdict(sys):
    """Combined associativity + operator-equation verdict, never raising."""
    from rbsys import check_associative

    assoc = check_associative(sys.alg)
    if not assoc:
        return assoc
    return check_rbs(sys)


def test_build_zero_cocycle_is_semidirect():
    sys = triangular_system(QQ, 1, 2)
    mod = regular_bimodule(sys)
    ext = build_extension(sys, mod, zero_cocycle(sys, mod))
    sd = semidirect_product(mod)
    assert ext.hat == sd
    assert check_extension(ext)


def test_build_from_census_classes_f2():
    sys, mod = f2_zero_instance()
    entries = h2_extension_census(sys, mod)
    assert len(entries) == 4  # trivial class plus three basis classes
    for c, ext in entries:
        assert check_rbs(ext.hat)
        assert check_extension(ext)


def test_non_cocycle_rejected_and_fails_axioms():
    rng = random.Random(0)
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    bad = _random_non_cocycle(sys, mod, rng)
    assert bad is not None
    with pytest.raises(ValueError):
        build_extension(sys, mod, bad)
    forced = assemble_extension(sys, mod, bad)
    verdict = _system_verdict(forced.hat)
    assert not verdict
    assert verdict.witness is not None
    assert not check_extension(forced)


def test_prop_69_iff_random():
    rng = random.Random(1)
    for sys, mod in instance_set(8, seed=501):
        cx = Complexes(sys, mod)
        sl = slice_of(cx, RBS, 2)
        for _ in range(3):
            vec = random_matrix(sys.field, sl.cols, 1, rng)
            c = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))
            cocycle = (sl @ vec).is_zero()
            built = _system_verdict(assemble_extension(sys, mod, c).hat)
            assert bool(built) == cocycle


def test_check_extension_failure_witnesses():
    # 2-dim algebra with e1 e1 = e0: the span of e1 is not closed under
    # multiplication, so it cannot be the kernel of an extension
    field = QQ
    alg = Algebra(field, 2, [[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
    z = Matrix.zeros(field, 2, 2)
    hat = RotaBaxterSystem(alg, z, z)
    incl = Matrix.from_rows(field, [[0], [1]])
    proj = Matrix.from_rows(field, [[1, 0]])
    verdict = check_extension(ExtensionData(hat, incl, proj))
    assert not verdict
    assert verdict.tag in ("kernel_multiplication_nonzero", "kernel_not_left_ideal",
                           "kernel_not_right_ideal")

    # diagonal algebra: span(e1) is an ideal but has nonzero internal product
    diag = Algebra(field, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    hat2 = RotaBaxterSystem(diag, z, z)
    verdict2 = check_extension(ExtensionData(hat2, incl, proj))
    assert not verdict2
    assert verdict2.tag == "kernel_multiplication_nonzero"


def test_kernel_ideal_witnesses_match_the_column_loops():
    # check_extension tests the kernel as an ideal with three matrix
    # products; each failure must carry the witness, tag and lhs that the
    # loops over basis pairs find first (u-major, the right ideal before the
    # left).  The kernels are random images of the square-zero kernel of a
    # semidirect extension (often not closed under multiplication) and
    # random subspaces of it (ideals when they are sub-bimodules); scrambled
    # triangular systems, whose actions differ on the two sides, give the
    # one-sided failures.
    from rbsys import conjugate_bimodule, conjugate_system

    rng = random.Random(11)
    ideal_tags = ("kernel_multiplication_nonzero", "kernel_not_right_ideal", "kernel_not_left_ideal")
    seen = Counter()
    for k in range(300):
        if k % 3 == 2:
            base = triangular_system(rng.choice((QQ, GF(2), GF(5))), 1, 1)
            p, q = (random_invertible(base.field, 3, rng) for _ in range(2))
            sys, mod = conjugate_system(base, p), conjugate_bimodule(regular_bimodule(base), p, q)
        else:
            sys, mod = random_system_bimodule(rng)
        ext = build_extension(sys, mod, zero_cocycle(sys, mod))
        field, n, m = ext.hat.field, ext.hat.dim, ext.fiber_dim
        if k % 3 == 0:
            incl = random_invertible(field, n, rng) @ ext.incl
        else:
            incl = ext.incl @ random_matrix(field, m, rng.randint(1, m), rng)
        if incl.rank() != incl.cols:
            continue
        proj = incl.transpose().kernel_basis().transpose()
        candidate = ExtensionData(ext.hat, incl, proj)
        want, got = kernel_ideal_by_columns(candidate), check_extension(candidate)
        if want:
            assert got.tag not in ideal_tags
        else:
            assert (got.tag, got.witness, got.lhs) == (want.tag, want.witness, want.lhs)
            assert got.describe() == want.describe()
        seen[want.tag] += 1
    assert all(seen[tag] for tag in ideal_tags + ("",))


def test_check_extension_accepts_a_zero_fiber():
    # a system is an extension of itself by the zero ideal, which documents
    # can state: the ideal checks then multiply empty matrices
    sys = triangular_system(GF(5), 1, 2)
    ext = ExtensionData(sys, Matrix.zeros(GF(5), 3, 0), Matrix.identity(GF(5), 3))
    assert check_extension(ext).describe() == "pass"


def test_library_checks_raise_with_their_context():
    # every reachable check that raises on invalid input, with the type and
    # message it has always raised
    from rbsys import (
        RBSBimodule,
        block_diag,
        d_module,
        from_rb_operator,
        regular_actions,
        semidirect_extract,
        star_algebra,
    )
    from rbsys import documents as docs

    line = line_system(QQ, 1, 1)  # fails eqR
    one = Matrix.identity(QQ, 1)
    bad_mod = eq2_failing_bimodule()
    tri = bad_mod.base
    twisted = Algebra(GF(5), 2, [[[0, 1], [0, 0]], [[1, 0], [0, 0]]])  # (e0 e0) e0 = e0, e0 (e0 e0) = 0
    zero = Matrix.zeros(GF(5), 2, 2)
    bad_ext = docs.parse_extension(eqR_failing_extension_doc())
    eqR = "fail [eqR] at (0, 0): lhs=[[1]] rhs=[[2]]"
    eq2 = "fail [eq2] at (0, 0): lhs=[[0], [1], [0]] rhs=[[1], [1], [0]]"
    eq1 = "fail [eq1] at (0, 2): lhs=[[0], [1], [0]] rhs=[[0], [0], [0]]"
    sys, mod = f2_zero_instance()
    ext = build_extension(sys, mod, zero_cocycle(sys, mod))
    not_t = Matrix.zeros(sys.field, ext.hat.dim, ext.base_dim)
    cases = [
        (
            lambda: check_rbs(RotaBaxterSystem(twisted, zero, zero)),
            ValueError,
            "underlying algebra is not associative: "
            "fail [associativity] at (0, 0, 0): lhs=[[1], [0]] rhs=[[0], [0]]",
        ),
        (
            lambda: from_rb_operator(unital_line(QQ), one, 1),
            ValueError,
            "operator is not Rota-Baxter of weight 1: fail [rb_weight] at (0, 0): lhs=[[1]] rhs=[[3]]",
        ),
        (lambda: star_algebra(line), ValueError, f"not a Rota-Baxter system: {eqR}"),
        (lambda: regular_bimodule(line), ValueError, f"not a Rota-Baxter system: {eqR}"),
        (
            lambda: check_rbs_bimodule(RBSBimodule(line, regular_actions(line.alg), one, one)),
            ValueError,
            f"base is not a Rota-Baxter system: {eqR}",
        ),
        (lambda: semidirect_product(bad_mod), ValueError, f"not a Rota-Baxter system bimodule: {eq2}"),
        (
            lambda: semidirect_extract(
                tri, bad_mod.actions, block_diag([tri.R, bad_mod.RM]), block_diag([tri.S, bad_mod.SM])
            ),
            ValueError,
            f"extracted operators fail the bimodule axioms: {eq2}",
        ),
        (lambda: d_module(bad_mod), ValueError, f"not a Rota-Baxter system bimodule: {eq2}"),
        (
            lambda: build_extension(tri, bad_mod, zero_cocycle(tri, bad_mod)),
            ValueError,
            f"not a Rota-Baxter system bimodule: {eq2}",
        ),
        (lambda: induced_bimodule(bad_ext), AssertionError, f"induced bimodule failed the axioms: {eq1}"),
        (lambda: extract_cocycle(bad_ext), AssertionError, f"induced bimodule failed the axioms: {eq1}"),
        (lambda: induced_bimodule(ext, not_t), ValueError, "not a section of the projection"),
        (lambda: extract_cocycle(ext, not_t), ValueError, "not a section of the projection"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as raised:
            call()
        assert (type(raised.value), str(raised.value)) == (error, message)


def test_induced_bimodule_round_trip():
    rng = random.Random(2)
    for sys, mod in instance_set(6, seed=531):
        c = _random_cocycle(sys, mod, rng)
        if c is None:
            c = zero_cocycle(sys, mod)
        ext = build_extension(sys, mod, c)
        back = induced_bimodule(ext)
        assert back == mod


def test_induced_bimodule_section_independent():
    rng = random.Random(3)
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    c = _random_cocycle(sys, mod, rng)
    ext = build_extension(sys, mod, c)
    gamma = random_matrix(QQ, mod.dim, sys.dim, rng)
    t2 = ext.section + ext.incl @ gamma
    mod1 = induced_bimodule(ext, ext.section)
    mod2 = induced_bimodule(ext, t2)
    assert mod1.actions == mod2.actions
    assert mod1 == mod2


def test_semidirect_extract_gives_zero_cocycle_and_input_module():
    sys = triangular_system(GF(5), 2, 1)
    mod = regular_bimodule(sys)
    ext = build_extension(sys, mod, zero_cocycle(sys, mod))
    c = checked_payload(ext)
    assert c.psi.mat.is_zero()
    assert c.chi_r.mat.is_zero()
    assert c.chi_s.mat.is_zero()
    assert induced_bimodule(ext) == mod


def test_extract_build_round_trip_random():
    rng = random.Random(4)
    checked = 0
    for sys, mod in instance_set(10, seed=561):
        c = _random_cocycle(sys, mod, rng)
        if c is None:
            continue
        ext = build_extension(sys, mod, c)
        assert checked_payload(ext) == c
        checked += 1
    assert checked >= 6


def test_two_sections_differ_by_coboundary():
    rng = random.Random(5)
    for sys, mod in instance_set(5, seed=591):
        c = _random_cocycle(sys, mod, rng)
        if c is None:
            continue
        ext = build_extension(sys, mod, c)
        cx = Complexes(sys, mod)
        gamma = MultiMap(sys.alg, 1, random_matrix(sys.field, mod.dim, sys.dim, rng))
        t2 = ext.section - ext.incl @ gamma.mat  # gamma = (t1 - t2) pulled back
        c1 = checked_payload(ext, ext.section)
        c2 = checked_payload(ext, t2)
        gvec = vstack(
            [
                multimap_vector(gamma),
                Matrix.zeros(sys.field, mod.dim, 1),
                Matrix.zeros(sys.field, mod.dim, 1),
            ]
        )
        diff = c1.as_cochain().vector - c2.as_cochain().vector
        assert diff == slice_of(cx, RBS, 1) @ gvec


def test_iso_from_cohomologous():
    rng = random.Random(6)
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    c1 = _random_cocycle(sys, mod, rng)
    cx = Complexes(sys, mod)

    # gamma = 0: identity shear between equal payloads
    iso = iso_from_cohomologous(sys, mod, c1, c1, MultiMap.zero(sys.alg, 1, mod.dim))
    assert iso.zeta == Matrix.identity(QQ, 6)

    gamma = MultiMap(sys.alg, 1, random_matrix(QQ, mod.dim, sys.dim, rng))
    gvec = vstack(
        [multimap_vector(gamma), Matrix.zeros(QQ, mod.dim, 1), Matrix.zeros(QQ, mod.dim, 1)]
    )
    c2vec = c1.as_cochain().vector + slice_of(cx, RBS, 1) @ gvec
    c2 = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, c2vec))
    iso = iso_from_cohomologous(sys, mod, c1, c2, gamma)
    ext1 = build_extension(sys, mod, c1)
    ext2 = build_extension(sys, mod, c2)
    assert check_iso(ext1, ext2, iso)
    assert same_class(ext1, ext2, iso)

    # wrong gamma is rejected
    wrong = MultiMap(sys.alg, 1, gamma.mat + Matrix.identity(QQ, 3))
    with pytest.raises(ValueError):
        iso_from_cohomologous(sys, mod, c1, c2, wrong)

    # the complexes that the shear, the extraction and the class check build
    # are guarded by the cap they are given
    from rbsys import DimensionCapExceeded

    for call in (
        lambda: iso_from_cohomologous(sys, mod, c1, c2, gamma, cap=1),
        lambda: extract_cocycle(ext1, cap=1),
        lambda: same_class(ext1, ext2, iso, cap=1),
    ):
        with pytest.raises(DimensionCapExceeded, match="exceeds cap 1"):
            call()


def test_iso_from_cohomologous_refuses_a_non_cocycle():
    # c2 = c1 + d(gamma, (0, 0)) with c1 outside Z^2: no extension is
    # assembled from c1, so no shear between two is an isomorphism of
    # extensions; both payloads used to be assembled unchecked, and the
    # shear between them was returned
    from rbsys.extensions import NotACocycle

    rng = random.Random(3)
    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    c1 = _random_non_cocycle(sys, mod, rng)
    assert not check_extension(assemble_extension(sys, mod, c1))
    gamma = MultiMap(sys.alg, 1, random_matrix(sys.field, mod.dim, sys.dim, rng))
    c2vec = c1.as_cochain().vector + Complexes(sys, mod).alg_column(1) @ multimap_vector(gamma)
    c2 = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, c2vec))
    with pytest.raises(NotACocycle, match="not a 2-cocycle"):
        iso_from_cohomologous(sys, mod, c1, c2, gamma)


def test_iso_from_cohomologous_checks_the_bimodule_first():
    # c1's cocycle test is its extension's check, which holds exactly on a
    # cocycle over a bimodule: over a module that fails the axioms even the
    # zero payload fails it, so the bimodule is checked first and named
    from rbsys import RBSBimodule
    from rbsys.extensions import NotACocycle

    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    bad = RBSBimodule(sys, mod.actions, Matrix.identity(sys.field, 3), mod.SM)
    zero, gamma = zero_cocycle(sys, bad), MultiMap.zero(sys.alg, 1, 3)
    with pytest.raises(ValueError, match="not a Rota-Baxter system bimodule") as raised:
        iso_from_cohomologous(sys, bad, zero, zero, gamma)
    assert not isinstance(raised.value, NotACocycle)


def test_same_class_check_guards():
    sys, mod = f2_zero_instance()
    ext = build_extension(sys, mod, zero_cocycle(sys, mod))
    ident = ExtensionIso(Matrix.identity(GF(2), 2))
    assert check_iso(ext, ext, ident) and same_class(ext, ext, ident)

    # an iso that is not the identity on the kernel is rejected: by the
    # diagram checks that same_class takes as passed, and by same_class
    entries = h2_extension_census(sys, mod)
    _, ext_b = entries[0]
    swap = ExtensionIso(Matrix.from_rows(GF(2), [[1, 1], [0, 1]]))
    assert not check_iso(ext_b, ext_b, swap)
    assert not same_class(ext_b, ext_b, swap)


def test_census_trivial_only_when_h2_zero():
    # unital line over GF(2) with R = id, S = 0 has vanishing degree-2
    # cohomology, so the census returns just the semidirect class
    sys = line_system(GF(2), 1, 0)
    mod = regular_bimodule(sys)
    entries = h2_extension_census(sys, mod)
    assert len(entries) == 1
    assert entries[0][0] == zero_cocycle(sys, mod)


def test_census_representatives_pairwise_noncohomologous():
    sys, mod = f2_zero_instance()
    cx = Complexes(sys, mod)
    entries = h2_extension_census(sys, mod)
    reps = [c for c, _ in entries[1:]]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            diff = reps[i].as_cochain() - reps[j].as_cochain()
            assert cx.coboundary_preimage(diff) is None


def test_census_refuses_rationals():
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    with pytest.raises(ValueError):
        h2_extension_census(sys, mod)


def test_extension_invariants_of_build():
    rng = random.Random(7)
    sys = triangular_system(GF(2), 1, 1)
    mod = regular_bimodule(sys)
    c = _random_cocycle(sys, mod, rng) or zero_cocycle(sys, mod)
    ext = build_extension(sys, mod, c)
    field = sys.field
    assert (ext.proj @ ext.incl).is_zero()
    assert ext.proj @ ext.section == Matrix.identity(field, 3)
    assert ext.retraction @ ext.incl == Matrix.identity(field, 3)
    assert (ext.retraction @ ext.section).is_zero()
    assert ext.incl @ ext.retraction + ext.section @ ext.proj == Matrix.identity(field, 6)


def test_extract_cocycle_solves_once_per_map(monkeypatch):
    # one solve each for Psi, chi_R, chi_S, R_M, S_M and the two actions
    rng = random.Random(8)
    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)  # d = m = 3
    c = _random_cocycle(sys, mod, rng)
    ext = build_extension(sys, mod, c)
    calls = []
    solve = Matrix.solve

    def counted(self, b):
        calls.append(b.cols)
        return solve(self, b)

    monkeypatch.setattr(Matrix, "solve", counted)
    assert extract_cocycle(ext) == c
    assert len(calls) <= 7
    monkeypatch.undo()
    assert checked_payload(ext) == c


def test_build_checks_the_bimodule_axioms_before_the_cocycle():
    # the bimodule first, as the command line does; then the payload, whose
    # cocycle test is the end-to-end check of its extension
    from rbsys import RBSBimodule
    from rbsys.extensions import NotACocycle

    rng = random.Random(9)
    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    bad = RBSBimodule(sys, mod.actions, Matrix.identity(sys.field, 3), mod.SM)
    assert not check_rbs_bimodule(bad)
    with pytest.raises(ValueError, match="not a Rota-Baxter system bimodule") as raised:
        build_extension(sys, bad, _random_non_cocycle(sys, bad, rng))
    assert not isinstance(raised.value, NotACocycle)
    with pytest.raises(NotACocycle, match="not a 2-cocycle"):
        build_extension(sys, mod, _random_non_cocycle(sys, mod, rng))


def test_census_builds_each_slice_once(monkeypatch):
    # the census eliminates the blocks of rbs_2, whose kernel columns it
    # takes as classes without applying any block to them, and cuts the
    # image of rbs_1 from its blocks: each Hochschild slice, each phi_n and
    # the doubled module are built once, as in les_check
    from rbsys import cohomology

    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    built = []

    def counted(name, key):
        original = getattr(cohomology, name)

        def wrapper(*args, **kwargs):
            built.append(key(*args))
            return original(*args, **kwargs)

        monkeypatch.setattr(cohomology, name, wrapper)

    counted("hochschild_slice", lambda alg, actions, n, *rest: ("alg" if alg is sys.alg else "rbso", n))
    counted("phi_rows", lambda n, *rest: ("phi", n))  # phi builds through phi_rows
    counted("_d_module_unchecked", lambda mod: ("D(M)",))
    assert len(h2_extension_census(sys, mod)) == 10
    assert Counter(built) == Counter(
        [("alg", 1), ("alg", 2), ("rbso", 0), ("rbso", 1), ("phi", 1), ("phi", 2), ("D(M)",)]
    )


def test_census_checks_each_extension_of_a_forged_class(monkeypatch):
    # the census takes its classes as cocycles, since each is a column of
    # the kernel basis of rbs_2, and does not test them; a forged class
    # that is not a cocycle is still refused, by the end-to-end check of
    # its extension
    from rbsys import extensions

    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    bad = _random_non_cocycle(sys, mod, random.Random(10)).as_cochain().vector
    honest = extensions.cocycle_from_cochain

    def forged(sys, mod, cochain):
        return honest(sys, mod, Cochain(RBS, 2, cochain.vector + bad))

    monkeypatch.setattr(extensions, "cocycle_from_cochain", forged)
    with pytest.raises(AssertionError, match="extension invariants failed"):
        h2_extension_census(sys, mod)


def test_census_matrix_products(monkeypatch):
    # 211 products for the census of triangular GF(5), through @ and
    # Matrix.times.  The ten extension checks take 80 of them in
    # check_associative and check_rbs, 8 each: two for associativity, the
    # two terms mu (R (x) Id) and mu (Id (x) S) of the star product, and
    # one more on each side of each operator equation, as mu (R (x) R) =
    # mu (R (x) Id) (Id (x) R) and mu (S (x) S) = mu (Id (x) S) (S (x) Id)
    # start from those terms; forming mu (op (x) Id) again for each
    # equation took 20 more.  Testing each class as a cocycle by applying
    # the blocks of rbs_2, as the census once did, took 30 more
    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    calls = count_products(monkeypatch)
    assert len(h2_extension_census(sys, mod)) == 10
    assert sum(calls.values()) == 211


def test_census_selects_classes_with_one_elimination(monkeypatch):
    # two eliminations for the kernel of rbs_2 (delta_2 and [phi_2 K |
    # partial_1]), two for the image of rbs_1 (delta_1 and [phi_1 K |
    # partial_0]), one for the class selection, and four for each extension
    # built (trivial class plus nine)
    from rbsys import linalg

    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    calls = []
    rref = linalg._rref_array

    def counted(a, field):
        calls.append(a.shape)
        return rref(a, field)

    monkeypatch.setattr(linalg, "_rref_array", counted)
    entries = h2_extension_census(sys, mod)
    assert len(entries) == 10
    assert len(calls) == 5 + 4 * 10

    # the same classes as adding kernel columns one at a time, keeping
    # those that raise the rank over the coboundaries
    monkeypatch.undo()
    cx = Complexes(sys, mod)
    kernel = slice_of(cx, RBS, 2).kernel_basis()
    current, greedy = slice_of(cx, RBS, 1), []
    for k in range(kernel.cols):
        candidate = hstack([current, kernel.col(k)])
        if candidate.rank() > current.rank():
            greedy.append(kernel.col(k))
            current = candidate
    assert [c.as_cochain().vector for c, _ in entries[1:]] == greedy
