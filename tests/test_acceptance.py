"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Everything runs at desk scale (dimensions <= 3, degrees <= 4, over Q,
GF(2), GF(5)) on a fixed randomized instance set, so results are
reproducible bit for bit.  Each test prints a single PASS line; run with
`pytest -s tests/test_acceptance.py` to see them.
"""

import random
import time

from rbsys import (
    ALG,
    GF,
    QQ,
    RBS,
    RBSO,
    Cochain,
    Complexes,
    DeformationData,
    Matrix,
    MultiMap,
    apply_gauge,
    betti,
    check_associative,
    check_bimodule,
    check_morphism,
    check_rbs,
    constant_deformation,
    d_module,
    from_rb_operator,
    infinitesimal,
    les_check,
    multimap_vector,
    phi,
    rba_embedding_check,
    rbs_d,
    regular_bimodule,
    rigidify,
    semidirect_extract,
    semidirect_maps,
    semidirect_product,
    verify_deformation,
    vstack,
    zero_algebra,
)
from rbsys.extensions import (
    assemble_extension,
    build_extension,
    check_iso,
    cocycle_from_cochain,
    iso_from_cohomologous,
)

from instances import (
    f2_zero_instance,
    idempotent_rb_operator,
    diagonal_algebra,
    instance_set,
    operator_deformation,
    random_gauge,
    random_matrix,
    random_system_bimodule,
    triangular_system,
    unital_line,
)
from oracles import gf2_rank, slice_of, sympy_rank, checked_payload

INSTANCES = instance_set(52, seed=2024)


def _unpack_order1(sys, vec):
    d = sys.dim
    fa = d * d * d
    mu1 = Matrix(sys.field, vec.take_rows(0, fa).a.reshape(d, d * d).copy())
    r1 = Matrix(sys.field, vec.take_rows(fa, fa + d * d).a.reshape(d, d).copy())
    s1 = Matrix(sys.field, vec.take_rows(fa + d * d, fa + 2 * d * d).a.reshape(d, d).copy())
    return DeformationData(1, [sys.alg.mult_matrix(), mu1], [sys.R, r1], [sys.S, s1])


def _random_order1(sys, rng):
    cx = Complexes(sys, regular_bimodule(sys))
    kernel = slice_of(cx, RBS, 2).kernel_basis()
    if kernel.cols == 0:
        return None
    return _unpack_order1(sys, kernel @ random_matrix(sys.field, kernel.cols, 1, rng))


def test_criterion_1_complex_property():
    """slice . slice = 0 for all three complexes on >= 50 instances, < 60 s."""
    start = time.monotonic()
    assert len(INSTANCES) >= 50
    for sys, mod in INSTANCES:
        for tag in (ALG, RBSO, RBS):
            cx = Complexes(sys, mod)
            for n in range(4):
                assert (slice_of(cx, tag, n + 1) @ slice_of(cx, tag, n)).is_zero(), (
                    tag,
                    n,
                    sys,
                )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"\n[acceptance] criterion 1 PASS: d(d(.)) = 0 for alg/rbso/rbs, n <= 3, "
        f"{len(INSTANCES)} instances in {elapsed:.1f}s"
    )


def test_criterion_2_chain_map():
    """partial o phi = phi o delta exactly on the instance set, n <= 3."""
    for sys, mod in INSTANCES:
        cx = Complexes(sys, mod)
        for n in range(4):
            lhs = slice_of(cx, RBSO, n) @ phi(n, sys, mod)
            rhs = phi(n + 1, sys, mod) @ slice_of(cx, ALG, n)
            assert lhs == rhs, (n, sys)
    print(
        f"\n[acceptance] criterion 2 PASS: comparison map commutes with the "
        f"differentials on {len(INSTANCES)} instances, n <= 3"
    )


def test_criterion_3_executable_theorems():
    """Constructions always land where the statements say, exactly."""
    from rbsys import star_algebra

    checked = 0
    for sys, mod in INSTANCES[:24]:
        st = star_algebra(sys)
        assert check_associative(st)
        sd = semidirect_product(mod)
        assert check_rbs(sd)
        iota, pi = semidirect_maps(sys.field, sys.dim, mod.dim)
        assert check_morphism(iota, sys, sd)
        assert check_morphism(pi, sd, sys)
        back = semidirect_extract(sys, mod.actions, sd.R, sd.S)
        assert back == mod
        dm = d_module(mod)
        assert check_bimodule(dm.star, dm.actions)
        checked += 1
    # weight-lam operators: both induced systems always pass
    rng = random.Random(7)
    for field in (QQ, GF(2), GF(5)):
        line = unital_line(field)
        zero1 = Matrix.zeros(field, 1, 1)
        for lam in (0, 1, 2):
            for R in (zero1, Matrix.identity(field, 1).scale(field.neg(field.coerce(lam)))):
                s1, s2 = from_rb_operator(line, R, lam)
                assert check_rbs(s1) and check_rbs(s2)
        alg3 = diagonal_algebra(field, 3)
        for _ in range(4):
            lam = rng.randrange(5) if field.is_prime_field else rng.randint(-2, 2)
            idx = [i for i in range(3) if rng.random() < 0.5] or [1]
            R = idempotent_rb_operator(field, 3, idx, lam)
            s1, s2 = from_rb_operator(alg3, R, lam)
            assert check_rbs(s1) and check_rbs(s2)
    print(
        f"\n[acceptance] criterion 3 PASS: star associativity, weight-lam sources, "
        f"semidirect both ways, doubled-module axioms on {checked} instances"
    )


def test_criterion_4_betti_oracle():
    """Frozen GF(2) table against an independent dense-rank enumeration."""
    sys, mod = f2_zero_instance()
    # hand-enumerated differentials: everything vanishes except
    # d0(f) = (delta0 f, -(f, f)) = (0, f, f) over GF(2)
    hand = {0: [[0], [1], [1]], 1: [[0] * 3] * 3, 2: [[0] * 3] * 3, 3: [[0] * 3] * 3}
    dims = {0: 1, 1: 3, 2: 3, 3: 3}
    expected_rbs = []
    prev_rank = 0
    for n in range(4):
        rank = gf2_rank(hand[n])
        expected_rbs.append(dims[n] - rank - prev_rank)
        prev_rank = rank
    assert expected_rbs == [0, 2, 3, 3]
    assert betti(RBS, sys, mod, 3).h == expected_rbs
    assert betti(ALG, sys, mod, 3).h == [1, 1, 1, 1]
    for n in range(4):
        assert rbs_d(n, sys, mod).matrix.entries() == hand[n]
    print(
        "\n[acceptance] criterion 4 PASS: GF(2) zero instance has HH = [1,1,1,1] "
        "and H_rbs = [0,2,3,3], matching the independent rank oracle"
    )


def test_criterion_5_infinitesimals_and_gauges():
    """>= 25 valid order-1 deformations give cocycles; gauge shifts are coboundaries."""
    rng = random.Random(55)
    cocycle_count = 0
    for sys, mod in INSTANCES:
        if cocycle_count >= 25:
            break
        defn = _random_order1(sys, rng)
        if defn is None:
            continue
        assert verify_deformation(sys, defn).ok_through(1)
        assert Complexes(sys, regular_bimodule(sys)).is_cocycle(infinitesimal(sys, defn))
        cocycle_count += 1
    assert cocycle_count >= 25

    gauge_count = 0
    for sys, mod in INSTANCES:
        if gauge_count >= 25:
            break
        cx = Complexes(sys, regular_bimodule(sys))
        defn = _random_order1(sys, rng) or constant_deformation(sys, 1)
        g = random_gauge(sys, 1, rng)
        gauged = apply_gauge(defn, g)
        assert verify_deformation(sys, gauged).ok_through(1)
        c1, c2 = infinitesimal(sys, defn), infinitesimal(sys, gauged)
        assert cx.is_cocycle(c1) and cx.is_cocycle(c2)
        diff = c1 - c2
        pre = cx.coboundary_preimage(diff)
        assert pre is not None
        assert slice_of(cx, RBS, 1) @ pre.vector == diff.vector
        gauge_count += 1
    assert gauge_count >= 25
    print(
        f"\n[acceptance] criterion 5 PASS: {cocycle_count} order-1 deformations give "
        f"degree-2 cocycles; {gauge_count} gauge shifts give constructive coboundaries"
    )


def test_criterion_6_rigidity_round_trip():
    """Gauged constants rigidify back to zero coefficients through order N <= 3."""
    rng = random.Random(66)
    count = 0
    for sys, mod in INSTANCES[:12]:
        for order in (2, 3):
            g = random_gauge(sys, order, rng)
            defn = apply_gauge(constant_deformation(sys, order), g)
            report = rigidify(sys, defn)
            assert report.success
            final = apply_gauge(defn, report.gauge)
            assert final.coefficients_vanish(1, order)
            count += 1
    print(
        f"\n[acceptance] criterion 6 PASS: {count} gauged-constant deformations "
        f"rigidified to zero coefficients in orders 1..N"
    )


def test_criterion_7_operator_infinitesimals():
    """>= 25 valid order-1 operator deformations give operator-complex cocycles."""
    rng = random.Random(77)
    count = 0
    for sys, mod in INSTANCES:
        if count >= 25:
            break
        kernel = slice_of(Complexes(sys, regular_bimodule(sys)), RBSO, 1).kernel_basis()
        if kernel.cols == 0:
            continue
        vec = kernel @ random_matrix(sys.field, kernel.cols, 1, rng)
        d = sys.dim
        r1 = Matrix(sys.field, vec.take_rows(0, d * d).a.reshape(d, d).copy())
        s1 = Matrix(sys.field, vec.take_rows(d * d, 2 * d * d).a.reshape(d, d).copy())
        # mu held fixed; the infinitesimal (0, (R_1, S_1)) is a total
        # 2-cocycle exactly when (R_1, S_1) is an operator 1-cocycle
        od = operator_deformation(sys, [sys.R, r1], [sys.S, s1])
        assert verify_deformation(sys, od).ok_through(1)
        cochain = infinitesimal(sys, od)
        assert Complexes(sys, regular_bimodule(sys)).is_cocycle(cochain)
        assert cochain.vector == vstack([Matrix.zeros(sys.field, d**3, 1), vec])
        count += 1
    assert count >= 25
    print(
        f"\n[acceptance] criterion 7 PASS: {count} order-1 operator deformations "
        f"give degree-1 cocycles of the operator complex"
    )


def test_criterion_8_extension_dictionary():
    """Round trips, the cocycle iff, section changes, and the shear diagram."""
    rng = random.Random(88)
    round_trips = 0
    for sys, mod in INSTANCES:
        if round_trips >= 25:
            break
        cx = Complexes(sys, mod)
        kernel = slice_of(cx, RBS, 2).kernel_basis()
        if kernel.cols == 0:
            continue
        vec = kernel @ random_matrix(sys.field, kernel.cols, 1, rng)
        c = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))
        ext = build_extension(sys, mod, c)
        assert checked_payload(ext) == c
        round_trips += 1
    assert round_trips >= 25

    # cocycle iff: non-cocycles assemble to structures failing the axioms
    iff_checked = 0
    for sys, mod in INSTANCES[:16]:
        cx = Complexes(sys, mod)
        sl = slice_of(cx, RBS, 2)
        vec = random_matrix(sys.field, sl.cols, 1, rng)
        c = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))
        hat = assemble_extension(sys, mod, c).hat
        assoc = check_associative(hat.alg)
        is_sys = bool(assoc) and bool(check_rbs(hat))
        assert is_sys == (sl @ vec).is_zero()
        iff_checked += 1

    # section changes move the payload by the coboundary of the difference
    section_checked = 0
    for sys, mod in INSTANCES:
        if section_checked >= 10:
            break
        cx = Complexes(sys, mod)
        kernel = slice_of(cx, RBS, 2).kernel_basis()
        if kernel.cols == 0:
            continue
        c = cocycle_from_cochain(
            sys, mod, Cochain(RBS, 2, kernel @ random_matrix(sys.field, kernel.cols, 1, rng))
        )
        ext = build_extension(sys, mod, c)
        gamma = MultiMap(sys.alg, 1, random_matrix(sys.field, mod.dim, sys.dim, rng))
        t2 = ext.section - ext.incl @ gamma.mat
        c1 = checked_payload(ext, ext.section)
        c2 = checked_payload(ext, t2)
        gvec = vstack(
            [
                multimap_vector(gamma),
                Matrix.zeros(sys.field, mod.dim, 1),
                Matrix.zeros(sys.field, mod.dim, 1),
            ]
        )
        assert c1.as_cochain().vector - c2.as_cochain().vector == slice_of(cx, RBS, 1) @ gvec
        section_checked += 1
    assert section_checked >= 10

    # cohomologous payloads give isomorphic extensions through the shear
    shear_checked = 0
    for sys, mod in INSTANCES:
        if shear_checked >= 10:
            break
        cx = Complexes(sys, mod)
        kernel = slice_of(cx, RBS, 2).kernel_basis()
        if kernel.cols == 0:
            continue
        c1 = cocycle_from_cochain(
            sys, mod, Cochain(RBS, 2, kernel @ random_matrix(sys.field, kernel.cols, 1, rng))
        )
        gamma = MultiMap(sys.alg, 1, random_matrix(sys.field, mod.dim, sys.dim, rng))
        gvec = vstack(
            [
                multimap_vector(gamma),
                Matrix.zeros(sys.field, mod.dim, 1),
                Matrix.zeros(sys.field, mod.dim, 1),
            ]
        )
        c2 = cocycle_from_cochain(
            sys, mod, Cochain(RBS, 2, c1.as_cochain().vector + slice_of(cx, RBS, 1) @ gvec)
        )
        iso = iso_from_cohomologous(sys, mod, c1, c2, gamma)
        ext1 = build_extension(sys, mod, c1)
        ext2 = build_extension(sys, mod, c2)
        assert check_iso(ext1, ext2, iso)
        shear_checked += 1
    assert shear_checked >= 10
    print(
        f"\n[acceptance] criterion 8 PASS: {round_trips} extract(build) round trips, "
        f"{iff_checked} cocycle-iff probes, {section_checked} section changes, "
        f"{shear_checked} shears"
    )


def test_criterion_9_long_exact_sequence():
    """Exactness at every slot through degree 3 on the instance set."""
    checked = 0
    for sys, mod in INSTANCES:
        report = les_check(sys, mod, 3)
        assert report.ok, (sys, [s for s in report.slots if not s.ok])
        checked += 1
    print(
        f"\n[acceptance] criterion 9 PASS: long exact sequence exact at every slot, "
        f"degrees <= 3, on {checked} instances"
    )


def test_rational_dim3_les_and_betti():
    """Scrambled dim-3 pairs over Q: LES exact and H_rbs ranks as sympy's, degrees <= 3."""
    rng = random.Random(303)
    pairs = []
    while len(pairs) < 4:
        sys, mod = random_system_bimodule(rng, QQ, big=True)
        if sys.dim == 3:
            pairs.append((sys, mod))
    for sys, mod in pairs:
        report = les_check(sys, mod, 3)
        assert report.ok, [s for s in report.slots if not s.ok]
        cx = Complexes(sys, mod)
        slices = [slice_of(cx, RBS, n) for n in range(4)]
        ranks = [sympy_rank(s) for s in slices]
        expected = [slices[n].cols - ranks[n] - (ranks[n - 1] if n else 0) for n in range(4)]
        assert betti(RBS, sys, mod, 3).h == expected
    print(
        f"\n[acceptance] Q dim 3 PASS: long exact sequence exact and H_rbs matching "
        f"sympy ranks through degree 3 on {len(pairs)} scrambled pairs"
    )


def _rbs_ranks_match_sympy(sys, mod, top):
    """The rbs slice ranks through degree top are sympy's, and H_rbs follows."""
    cx = Complexes(sys, mod)
    slices = [slice_of(cx, RBS, n) for n in range(top + 1)]
    ranks = [sympy_rank(s) for s in slices]
    assert [s.rank() for s in slices] == ranks
    expected = [slices[n].cols - ranks[n] - (ranks[n - 1] if n else 0) for n in range(top + 1)]
    assert betti(RBS, sys, mod, top).h == expected
    return slices[top].shape


def test_rational_triangular_degree4_ranks():
    """The triangular system over Q: rbs ranks as sympy's through degree 4."""
    sys = triangular_system(QQ, -1, 1)
    shape = _rbs_ranks_match_sympy(sys, regular_bimodule(sys), 4)
    assert shape == (1215, 405)
    print(f"\n[acceptance] Q degree 4 PASS: triangular rbs ranks match sympy, slice {shape}")


def test_rational_scrambled_dim2_degree4_ranks():
    """A scrambled dim-2 pair over Q: rbs ranks as sympy's through degree 4."""
    rng = random.Random(402)  # its first dim-2 draw has Fraction structure constants
    sys, mod = random_system_bimodule(rng, QQ, big=True)
    while sys.dim != 2:
        sys, mod = random_system_bimodule(rng, QQ, big=True)
    shape = _rbs_ranks_match_sympy(sys, mod, 4)
    print(f"\n[acceptance] Q degree 4 PASS: scrambled dim-2 rbs ranks match sympy, slice {shape}")


def test_criterion_10_embedding_and_cokernel():
    """Weight-lam embedding: injective chain map, cokernel matches the display."""
    line = unital_line(QQ)
    zero1 = Matrix.zeros(QQ, 1, 1)
    cases = [
        (line, zero1, 0),
        (line, zero1, 1),
        (line, -Matrix.identity(QQ, 1), 1),
    ]
    f2 = GF(2)
    cases.append((unital_line(f2), Matrix.zeros(f2, 1, 1), 1))
    cases.append((zero_algebra(GF(5), 2), Matrix.zeros(GF(5), 2, 2), 3))
    for alg, R, lam in cases:
        report = rba_embedding_check(alg, R, lam, 3)
        assert report.ok, (alg, lam, report.details)
        for row in report.details:
            assert row["injective"] and row["image_closed"]
            assert row["chain_map"] and row["quotient_matches_display"]
    print(
        f"\n[acceptance] criterion 10 PASS: embedding injective and chain-compatible, "
        f"cokernel differential matches the displayed formula entry for entry on "
        f"{len(cases)} instances, degrees <= 3"
    )
