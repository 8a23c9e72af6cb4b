import random

import pytest

from rbsys import (
    GF,
    QQ,
    Algebra,
    Cochain,
    CochainComplex,
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
    same_class_check,
    semidirect_product,
    vstack,
    zero_cocycle,
)
from rbsys.extensions import ExtensionData, ExtensionIso, cocycle_from_cochain

from instances import (
    f2_zero_instance,
    instance_set,
    line_system,
    random_matrix,
    triangular_system,
)


def _random_cocycle(sys, mod, rng):
    cx = CochainComplex(RBS, sys, mod)
    kernel = cx.slice(2).matrix.kernel_basis()
    if kernel.cols == 0:
        return None
    vec = kernel @ random_matrix(sys.field, kernel.cols, 1, rng)
    return cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))


def _random_non_cocycle(sys, mod, rng):
    cx = CochainComplex(RBS, sys, mod)
    sl = cx.slice(2).matrix
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
        cx = CochainComplex(RBS, sys, mod)
        sl = cx.slice(2).matrix
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
    c = extract_cocycle(ext)
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
        assert extract_cocycle(ext) == c
        checked += 1
    assert checked >= 6


def test_two_sections_differ_by_coboundary():
    rng = random.Random(5)
    for sys, mod in instance_set(5, seed=591):
        c = _random_cocycle(sys, mod, rng)
        if c is None:
            continue
        ext = build_extension(sys, mod, c)
        cx = CochainComplex(RBS, sys, mod)
        gamma = MultiMap(sys.alg, 1, random_matrix(sys.field, mod.dim, sys.dim, rng))
        t2 = ext.section - ext.incl @ gamma.mat  # gamma = (t1 - t2) pulled back
        c1 = extract_cocycle(ext, ext.section)
        c2 = extract_cocycle(ext, t2)
        gvec = vstack(
            [
                multimap_vector(gamma),
                Matrix.zeros(sys.field, mod.dim, 1),
                Matrix.zeros(sys.field, mod.dim, 1),
            ]
        )
        diff = c1.as_cochain().vector - c2.as_cochain().vector
        assert diff == cx.slice(1).matrix @ gvec


def test_iso_from_cohomologous():
    rng = random.Random(6)
    sys = triangular_system(QQ, 1, 1)
    mod = regular_bimodule(sys)
    c1 = _random_cocycle(sys, mod, rng)
    cx = CochainComplex(RBS, sys, mod)

    # gamma = 0: identity shear between equal payloads
    iso = iso_from_cohomologous(sys, mod, c1, c1, MultiMap.zero(sys.alg, 1, mod.dim))
    assert iso.zeta == Matrix.identity(QQ, 6)

    gamma = MultiMap(sys.alg, 1, random_matrix(QQ, mod.dim, sys.dim, rng))
    gvec = vstack(
        [multimap_vector(gamma), Matrix.zeros(QQ, mod.dim, 1), Matrix.zeros(QQ, mod.dim, 1)]
    )
    c2vec = c1.as_cochain().vector + cx.slice(1).matrix @ gvec
    c2 = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, c2vec))
    iso = iso_from_cohomologous(sys, mod, c1, c2, gamma)
    ext1 = build_extension(sys, mod, c1)
    ext2 = build_extension(sys, mod, c2)
    assert check_iso(ext1, ext2, iso)
    assert same_class_check(ext1, ext2, iso)

    # wrong gamma is rejected
    wrong = MultiMap(sys.alg, 1, gamma.mat + Matrix.identity(QQ, 3))
    with pytest.raises(ValueError):
        iso_from_cohomologous(sys, mod, c1, c2, wrong)


def test_same_class_check_guards():
    sys, mod = f2_zero_instance()
    ext = build_extension(sys, mod, zero_cocycle(sys, mod))
    ident = ExtensionIso(Matrix.identity(GF(2), 2))
    assert same_class_check(ext, ext, ident)

    # an iso that is not the identity on the kernel is rejected
    entries = h2_extension_census(sys, mod)
    _, ext_b = entries[0]
    swap = ExtensionIso(Matrix.from_rows(GF(2), [[1, 1], [0, 1]]))
    verdict = same_class_check(ext_b, ext_b, swap)
    assert not verdict


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
    cx = CochainComplex(RBS, sys, mod)
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


def test_build_tests_the_cocycle_before_the_bimodule_axioms():
    from rbsys import RBSBimodule
    from rbsys.extensions import NotACocycle

    rng = random.Random(9)
    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    bad = RBSBimodule(sys, mod.actions, Matrix.identity(sys.field, 3), mod.SM)
    assert not check_rbs_bimodule(bad)
    with pytest.raises(NotACocycle, match="not a 2-cocycle"):
        build_extension(sys, bad, _random_non_cocycle(sys, bad, rng))
    with pytest.raises(ValueError, match="not a Rota-Baxter system bimodule"):
        build_extension(sys, bad, zero_cocycle(sys, bad))


def test_census_selects_classes_with_one_elimination(monkeypatch):
    # one elimination for the kernel of rbs_2, one for the class selection,
    # and four for each extension built (trivial class plus nine)
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
    assert len(calls) == 2 + 4 * 10

    # the same classes as adding kernel columns one at a time, keeping
    # those that raise the rank over the coboundaries
    monkeypatch.undo()
    cx = CochainComplex(RBS, sys, mod)
    kernel = cx.slice(2).matrix.kernel_basis()
    current, greedy = cx.slice(1).matrix, []
    for k in range(kernel.cols):
        candidate = hstack([current, kernel.col(k)])
        if candidate.rank() > current.rank():
            greedy.append(kernel.col(k))
            current = candidate
    assert [c.as_cochain().vector for c, _ in entries[1:]] == greedy
