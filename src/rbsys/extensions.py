"""Abelian extensions of Rota-Baxter systems and their 2-cocycle dictionary.

An abelian extension presents a system on a (d+m)-dimensional space with an
inclusion i of an m-dimensional square-zero ideal and a projection p onto a
d-dimensional quotient system.  A choice of section t of p produces a
2-cocycle of the total complex:

    Psi(a, b)  = t(a) t(b) - t(ab)
    chi_R(a)   = Rhat(t(a)) - t(R(a))
    chi_S(a)   = Shat(t(a)) - t(S(a))

Conversely a 2-cocycle (Psi, chi_R, chi_S) assembles a system on A (+) M by

    (a, m) . (b, n) = (ab, an + mb + Psi(a, b))
    R'(a, m) = (R(a), chi_R(a) + R_M(m)),   S' likewise,

and the assembled structure satisfies the system axioms exactly when the
triple is a cocycle.  Cohomologous cocycles give isomorphic extensions via
(a, m) -> (a, -gamma(a) + m).
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    BimoduleActions,
    MultiMap,
    Verdict,
    check_associative,
    matrix_tensor,
    multimap_vector,
)
from .bimodules import RBSBimodule, _square_zero_system, check_rbs_bimodule, semidirect_maps
from .cohomology import ALG, RBS, Cochain, Complexes, pack_rbs_cochain, unpack_rbs_cochain
from .linalg import Matrix, hstack, vstack
from .systems import RotaBaxterSystem, check_morphism, check_rbs


class NotACocycle(ValueError):
    """A degree-2 payload that fails the cocycle condition."""


class Cocycle2:
    """The degree-2 payload (Psi, chi_R, chi_S) with values in M."""

    __slots__ = ("psi", "chi_r", "chi_s")

    def __init__(self, psi, chi_r, chi_s):
        if psi.arity != 2 or chi_r.arity != 1 or chi_s.arity != 1:
            raise ValueError("component arities must be (2, 1, 1)")
        if not (psi.target_dim == chi_r.target_dim == chi_s.target_dim):
            raise ValueError("components must share one target space")
        self.psi = psi
        self.chi_r = chi_r
        self.chi_s = chi_s

    @property
    def target_dim(self):
        return self.psi.target_dim

    def as_cochain(self):
        return pack_rbs_cochain(self.psi, self.chi_r, self.chi_s)

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle2)
            and self.psi == other.psi
            and self.chi_r == other.chi_r
            and self.chi_s == other.chi_s
        )

    def __sub__(self, other):
        return Cocycle2(self.psi - other.psi, self.chi_r - other.chi_r, self.chi_s - other.chi_s)

    def __repr__(self):
        return f"Cocycle2(target_dim={self.target_dim})"


def zero_cocycle(sys, mod):
    m = mod.dim
    return Cocycle2(
        MultiMap.zero(sys.alg, 2, m),
        MultiMap.zero(sys.alg, 1, m),
        MultiMap.zero(sys.alg, 1, m),
    )


def cocycle_from_cochain(sys, mod, cochain):
    f, x, y = unpack_rbs_cochain(cochain, sys, mod)
    return Cocycle2(f, x, y)


def is_cocycle(sys, mod, c, cap=None):
    return Complexes(sys, mod, cap).is_cocycle(c.as_cochain())


class ExtensionData:
    """A presented extension: the big system plus its structure maps.

    incl embeds the abelian kernel, proj maps onto the quotient system;
    optional section (right inverse of proj) and retraction (left inverse
    of incl with retraction o section = 0).
    """

    __slots__ = ("hat", "incl", "proj", "section", "retraction")

    def __init__(self, hat, incl, proj, section=None, retraction=None):
        n = hat.dim
        if incl.rows != n or proj.cols != n:
            raise ValueError("structure maps do not match the total dimension")
        if section is not None and (section.rows != n or section.cols != proj.rows):
            raise ValueError("section has the wrong shape")
        if retraction is not None and (retraction.cols != n or retraction.rows != incl.cols):
            raise ValueError("retraction has the wrong shape")
        self.hat = hat
        self.incl = incl
        self.proj = proj
        self.section = section
        self.retraction = retraction

    @property
    def fiber_dim(self):
        return self.incl.cols

    @property
    def base_dim(self):
        return self.proj.rows

    def __repr__(self):
        return f"ExtensionData(base={self.base_dim}, fiber={self.fiber_dim})"


def assemble_extension(sys, mod, c):
    """Build the candidate extension from a degree-2 payload, unvalidated.

    The result need not satisfy the system axioms; it does exactly when the
    payload is a cocycle, which is what build_extension enforces.
    """
    field, d, m = sys.field, sys.dim, mod.dim
    hat = _square_zero_system(mod, c.psi.mat, c.chi_r.mat, c.chi_s.mat)
    section, proj_a = semidirect_maps(field, d, m)
    iota_m = vstack([Matrix.zeros(field, d, m), Matrix.identity(field, m)])
    return ExtensionData(hat, iota_m, proj_a, section, iota_m.transpose())


def build_extension(sys, mod, c, cap=None):
    """Materialise a verified 2-cocycle as an abelian extension.

    Validates the cocycle condition, assembles the structure, and checks
    the result end to end (system axioms and extension invariants).
    """
    return _build(Complexes(sys, mod, cap), c)


def _build(cx, c):
    """build_extension, reading slices from cx; the cocycle is tested first."""
    if not cx.is_cocycle(c.as_cochain()):
        raise NotACocycle("payload is not a 2-cocycle; the assembled structure would fail")
    verdict = check_rbs_bimodule(cx.mod)
    if not verdict:
        raise ValueError(f"not a Rota-Baxter system bimodule: {verdict.describe()}")
    ext = assemble_extension(cx.sys, cx.mod, c)
    ext_check = check_extension(ext)
    if not ext_check:
        raise AssertionError(f"extension invariants failed: {ext_check.describe()}")
    return ext


def check_extension(ext):
    """Exactness, square-zero ideal kernel, and the commuting operator squares."""
    field = ext.hat.field
    n, d, m = ext.hat.dim, ext.base_dim, ext.fiber_dim
    if d + m != n:
        return Verdict(False, tag="dimension_count", witness=(d, m, n))
    assoc = check_associative(ext.hat.alg)
    if not assoc:
        return assoc
    if not (ext.proj @ ext.incl).is_zero():
        return Verdict(False, tag="composite_nonzero")
    if ext.incl.rank() != m:
        return Verdict(False, tag="inclusion_not_injective")
    if ext.proj.rank() != d:
        return Verdict(False, tag="projection_not_surjective")
    if ext.section is not None and ext.proj @ ext.section != Matrix.identity(field, d):
        return Verdict(False, tag="section_invalid")
    if ext.retraction is not None:
        if ext.retraction @ ext.incl != Matrix.identity(field, m):
            return Verdict(False, tag="retraction_invalid")
        if ext.section is not None:
            if not (ext.retraction @ ext.section).is_zero():
                return Verdict(False, tag="splitting_not_complementary")
            if ext.incl @ ext.retraction + ext.section @ ext.proj != Matrix.identity(field, n):
                return Verdict(False, tag="splitting_not_identity")

    # image of incl is an ideal with zero internal multiplication
    for u in range(m):
        iu = ext.incl.col(u)
        for v in range(m):
            prod = ext.hat.alg.multiply(iu, ext.incl.col(v))
            if not prod.is_zero():
                return Verdict(False, tag="kernel_multiplication_nonzero", witness=(u, v),
                               lhs=prod.entries())
    for u in range(m):
        iu = ext.incl.col(u)
        for j in range(n):
            ej = Matrix.unit_column(field, n, j)
            for prod_tag, prod in (
                ("kernel_not_right_ideal", ext.hat.alg.multiply(iu, ej)),
                ("kernel_not_left_ideal", ext.hat.alg.multiply(ej, iu)),
            ):
                if not (ext.proj @ prod).is_zero():
                    return Verdict(False, tag=prod_tag, witness=(u, j), lhs=prod.entries())

    # operators preserve the kernel, so they descend and restrict
    for tag, op in (("R", ext.hat.R), ("S", ext.hat.S)):
        if induced_fiber_operator(ext, op) is None:
            return Verdict(False, tag=f"kernel_not_{tag}_invariant")
    hat_check = check_rbs(ext.hat)
    if not hat_check:
        return hat_check
    return Verdict(True)


def induced_fiber_operator(ext, op):
    """Restriction of an operator on the big space to the kernel, or None."""
    return ext.incl.solve(op @ ext.incl)


def canonical_section(ext):
    """The stored section, or the echelon solution of proj t = Id."""
    if ext.section is not None:
        return ext.section
    t = ext.proj.solve(Matrix.identity(ext.hat.field, ext.base_dim))
    if t is None:
        raise ValueError("projection admits no section")
    return t


def induced_base_system(ext, section=None):
    """The quotient system carried by the projection (independent of section)."""
    t = canonical_section(ext) if section is None else section
    d = ext.base_dim
    mu = ext.proj @ ext.hat.alg.mult_matrix() @ t.kron(t)
    alg = Algebra(ext.hat.field, d, matrix_tensor(mu, d, d))
    return RotaBaxterSystem(alg, ext.proj @ ext.hat.R @ t, ext.proj @ ext.hat.S @ t)


def induced_bimodule(ext, section=None):
    """Kernel of the extension as a bimodule over the quotient system.

    Actions are a.m = t(a) m and m.a = m t(a) computed in the big algebra
    and pulled back through the inclusion; the operators restrict.  The
    result does not depend on the section and is verified.
    """
    t = canonical_section(ext) if section is None else section
    field, d, m = ext.hat.field, ext.base_dim, ext.fiber_dim
    if ext.proj @ t != Matrix.identity(field, d):
        raise ValueError("not a section of the projection")
    sys = induced_base_system(ext, t)
    rm = induced_fiber_operator(ext, ext.hat.R)
    sm = induced_fiber_operator(ext, ext.hat.S)
    if rm is None or sm is None:
        raise ValueError("operators do not preserve the kernel")
    mu_hat = ext.hat.alg.mult_matrix()
    lam = ext.incl.solve(mu_hat @ t.kron(ext.incl))
    rho = ext.incl.solve(mu_hat @ ext.incl.kron(t))
    if lam is None or rho is None:
        raise ValueError("kernel is not an ideal")
    actions = BimoduleActions(field, d, m, matrix_tensor(lam, d, m), matrix_tensor(rho, m, d))
    mod = RBSBimodule(sys, actions, rm, sm)
    verdict = check_rbs_bimodule(mod)
    if not verdict:
        raise AssertionError(f"induced bimodule failed the axioms: {verdict.describe()}")
    return mod


def extract_cocycle(ext, section=None):
    """Read off (Psi, chi_R, chi_S) through a section; asserts the cocycle law."""
    t = canonical_section(ext) if section is None else section
    if ext.proj @ t != Matrix.identity(ext.hat.field, ext.base_dim):
        raise ValueError("not a section of the projection")
    mod = induced_bimodule(ext, t)
    sys = mod.base
    psi = ext.incl.solve(ext.hat.alg.mult_matrix() @ t.kron(t) - t @ sys.alg.mult_matrix())
    if psi is None:
        raise ValueError("section defect does not land in the kernel")
    chi_r_mat = ext.incl.solve(ext.hat.R @ t - t @ sys.R)
    chi_s_mat = ext.incl.solve(ext.hat.S @ t - t @ sys.S)
    if chi_r_mat is None or chi_s_mat is None:
        raise ValueError("operator defects do not land in the kernel")
    c = Cocycle2(
        MultiMap(sys.alg, 2, psi),
        MultiMap(sys.alg, 1, chi_r_mat),
        MultiMap(sys.alg, 1, chi_s_mat),
    )
    if not is_cocycle(sys, mod, c):
        raise AssertionError("extracted payload is not a cocycle")
    return c


class ExtensionIso:
    """An isomorphism of presented extensions commuting with both legs."""

    __slots__ = ("zeta",)

    def __init__(self, zeta):
        self.zeta = zeta

    def __repr__(self):
        return f"ExtensionIso({self.zeta.rows}x{self.zeta.cols})"


def check_iso(ext1, ext2, iso):
    """Verify the commuting-legs diagram and the morphism property."""
    z = iso.zeta
    inv = z.inverse()
    if inv is None:
        return Verdict(False, tag="not_invertible")
    morph = check_morphism(z, ext1.hat, ext2.hat)
    if not morph:
        return morph
    if ext2.proj @ z != ext1.proj:
        return Verdict(False, tag="projection_leg")
    if z @ ext1.incl != ext2.incl:
        return Verdict(False, tag="inclusion_leg")
    return Verdict(True)


def iso_from_cohomologous(sys, mod, c1, c2, gamma):
    """The shear (a, m) -> (a, -gamma(a) + m) between cohomologous payloads.

    Requires c2 - c1 to be the coboundary of (gamma, (0, 0)); the returned
    map is then an isomorphism from the c1-extension to the c2-extension,
    which is verified before returning.
    """
    if gamma.arity != 1 or gamma.target_dim != mod.dim:
        raise ValueError("gamma must be a linear map from the base into the kernel")
    diff = (c2.as_cochain().vector) - (c1.as_cochain().vector)
    cx = Complexes(sys, mod)
    # d(gamma, (0, 0)) is the first block column of rbs_1: (delta_1, -phi_1)
    expected = cx.rbs(1).take_cols(0, cx.dim(ALG, 1)) @ multimap_vector(gamma)
    if diff != expected:
        raise ValueError("payload difference is not the coboundary of the supplied map")
    field, d, m = sys.field, sys.dim, mod.dim
    zeta = vstack([
        hstack([Matrix.identity(field, d), Matrix.zeros(field, d, m)]),
        hstack([-gamma.mat, Matrix.identity(field, m)]),
    ])
    iso = ExtensionIso(zeta)
    ext1 = assemble_extension(sys, mod, c1)
    ext2 = assemble_extension(sys, mod, c2)
    verdict = check_iso(ext1, ext2, iso)
    if not verdict:
        raise AssertionError(f"shear failed the isomorphism checks: {verdict.describe()}")
    return iso


def same_class_check(ext1, ext2, iso):
    """Isomorphic extensions expose identical payloads through matched sections.

    Requires the iso to commute with both legs and to restrict to the
    identity on the kernel; extracts through t and iso o t and compares the
    payloads componentwise.
    """
    diagram = check_iso(ext1, ext2, iso)
    if not diagram:
        return diagram
    z = iso.zeta
    restricted = ext2.incl.solve(z @ ext1.incl)
    if restricted is None or restricted != Matrix.identity(ext1.hat.field, ext1.fiber_dim):
        return Verdict(False, tag="kernel_restriction_not_identity")
    t1 = canonical_section(ext1)
    c1 = extract_cocycle(ext1, t1)
    c2 = extract_cocycle(ext2, z @ t1)
    if c1.psi.mat != c2.psi.mat:
        return Verdict(False, tag="psi_differs")
    if c1.chi_r.mat != c2.chi_r.mat:
        return Verdict(False, tag="chi_r_differs")
    if c1.chi_s.mat != c2.chi_s.mat:
        return Verdict(False, tag="chi_s_differs")
    return Verdict(True)


def h2_extension_census(sys, mod, cap=64, dim_cap=None):
    """One extension per second-cohomology basis class over a prime field.

    Returns the trivial class first (zero payload, the semidirect product)
    followed by one echelon-basis representative per basis vector of the
    degree-2 cohomology.  Refused over the rationals, where the class set
    is infinite.  cap bounds dim H^2; dim_cap is the cochain-space guard.
    """
    if not sys.field.is_prime_field:
        raise ValueError("census requires a finite prime field")
    cx = Complexes(sys, mod, dim_cap)
    kernel = cx.rbs(2).kernel_basis()
    boundaries = cx.rbs(1)
    # the kernel columns that are pivots past the coboundaries extend a
    # basis of the coboundary space, each chosen greedily in column order
    pivots = hstack([boundaries, kernel]).rref()[1]
    reps = [kernel.col(c - boundaries.cols) for c in pivots if c >= boundaries.cols]
    h2_dim = len(reps)
    if h2_dim > cap:
        raise ValueError(f"second cohomology has dimension {h2_dim}, cap is {cap}")
    out = []
    zero = zero_cocycle(sys, mod)
    out.append((zero, _build(cx, zero)))
    for vec in reps:
        c = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec))
        out.append((c, _build(cx, c)))
    return out
