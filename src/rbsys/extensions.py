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
    multimap_vector,
)
from .bimodules import RBSBimodule, _square_zero_system, check_rbs_bimodule, semidirect_maps
from .cohomology import RBS, Cochain, Complexes, pack_rbs_cochain, unpack_rbs_cochain
from .linalg import Matrix, hstack, regroup_columns, vstack
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

    def as_cochain(self):
        return pack_rbs_cochain(self.psi, self.chi_r, self.chi_s)

    def __eq__(self, other):
        return (
            isinstance(other, Cocycle2)
            and self.psi == other.psi
            and self.chi_r == other.chi_r
            and self.chi_s == other.chi_s
        )

    def __repr__(self):
        return f"Cocycle2(target_dim={self.psi.target_dim})"


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
    """Materialise a 2-cocycle as an abelian extension.

    Checks the bimodule axioms, then the extension end to end (system axioms
    and extension invariants), which passes exactly on a cocycle and so is
    the payload's cocycle test (NotACocycle).  cap guards C^2_rbs.
    """
    Complexes(sys, mod, cap).guard([(RBS, 1)])
    check_rbs_bimodule(mod).require("not a Rota-Baxter system bimodule")
    return _checked(sys, mod, c, NotACocycle)


def _checked(sys, mod, c, error=AssertionError):
    """assemble_extension, checked end to end: over a bimodule it passes
    exactly on a cocycle.  A failure raises error: NotACocycle for a payload
    that a caller gives, AssertionError (a bug) for one derived as a cocycle."""
    ext = assemble_extension(sys, mod, c)
    context = "payload is not a 2-cocycle" if error is NotACocycle else "extension invariants failed"
    check_extension(ext).require(context, error)
    return ext


def check_extension(ext):
    """Exactness, square-zero ideal kernel, and the commuting operator squares.

    i s + t p = I needs no check: p i = 0, i injective and p t = I make
    [i | t] invertible, and i s + t p fixes i and t as s i = I and s t = 0."""
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

    # image of incl is an ideal with zero internal multiplication: column
    # u m + v of inner is i_u i_v, column 2(u n + j) + side of sides is
    # i_u e_j (side 0, the right ideal) or e_j i_u (side 1, the left ideal)
    # mu (i (x) i) = mu (i (x) Id) (Id (x) i)
    mu_hat = ext.hat.alg.mult_matrix()
    mu_i = mu_hat.times(ext.incl, 1, n)
    inner = mu_i.times(ext.incl, m, 1)
    col = inner.first_nonzero_col()
    if col is not None:
        return Verdict(False, tag="kernel_multiplication_nonzero", witness=divmod(col, m),
                       lhs=inner.col(col).entries())
    left = regroup_columns(mu_hat.times(ext.incl, n, 1), n, m)
    sides = regroup_columns(hstack([mu_i, left]), 2, m * n)
    col = (ext.proj @ sides).first_nonzero_col()
    if col is not None:
        tag = ("kernel_not_right_ideal", "kernel_not_left_ideal")[col % 2]
        return Verdict(False, tag=tag, witness=divmod(col // 2, n), lhs=sides.col(col).entries())

    # operators preserve the kernel, so they descend and restrict
    for tag, op in (("R", ext.hat.R), ("S", ext.hat.S)):
        if induced_fiber_operator(ext, op) is None:
            return Verdict(False, tag=f"kernel_not_{tag}_invariant")
    return check_rbs(ext.hat)


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
    n, d = ext.hat.dim, ext.base_dim
    # t (x) t = (t (x) Id) (Id (x) t)
    alg = Algebra.from_matrix((ext.proj @ ext.hat.alg.mult_matrix()).times(t, 1, n).times(t, d, 1))
    return RotaBaxterSystem(alg, ext.proj @ ext.hat.R @ t, ext.proj @ ext.hat.S @ t)


def induced_bimodule(ext, section=None):
    """Kernel of the extension as a bimodule over the quotient system.

    Actions are a.m = t(a) m and m.a = m t(a) computed in the big algebra
    and pulled back through the inclusion; the operators restrict.  The
    result does not depend on the section and is verified.
    """
    t = canonical_section(ext) if section is None else section
    field, d = ext.hat.field, ext.base_dim
    if ext.proj @ t != Matrix.identity(field, d):
        raise ValueError("not a section of the projection")
    sys = induced_base_system(ext, t)
    rm = induced_fiber_operator(ext, ext.hat.R)
    sm = induced_fiber_operator(ext, ext.hat.S)
    if rm is None or sm is None:
        raise ValueError("operators do not preserve the kernel")
    mu_hat, n, m = ext.hat.alg.mult_matrix(), ext.hat.dim, ext.fiber_dim
    lam = ext.incl.solve(mu_hat.times(t, 1, n).times(ext.incl, d, 1))
    rho = ext.incl.solve(mu_hat.times(ext.incl, 1, n).times(t, m, 1))
    if lam is None or rho is None:
        raise ValueError("kernel is not an ideal")
    mod = RBSBimodule(sys, BimoduleActions.from_matrices(d, lam, rho), rm, sm)
    check_rbs_bimodule(mod).require("induced bimodule failed the axioms", AssertionError)
    return mod


def extract_cocycle(ext, section=None, cap=None):
    """Read off (Psi, chi_R, chi_S) through a section of an extension that
    has passed check_extension.  That check makes it a system on A (+) M
    with a square-zero ideal, whose payload through any section is a
    2-cocycle, so the payload is not tested again.  cap guards C^2_rbs,
    the payload's space."""
    t = canonical_section(ext) if section is None else section
    mod = induced_bimodule(ext, t)
    sys = mod.base
    n, d = ext.hat.dim, ext.base_dim
    mu_tt = ext.hat.alg.mult_matrix().times(t, 1, n).times(t, d, 1)
    psi = ext.incl.solve(mu_tt - t @ sys.alg.mult_matrix())
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
    Complexes(sys, mod, cap).guard([(RBS, 1)])
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


def iso_from_cohomologous(sys, mod, c1, c2, gamma, cap=None):
    """The shear (a, m) -> (a, -gamma(a) + m) between cohomologous payloads.

    Requires a bimodule, c1 a cocycle (NotACocycle, from its extension's
    check) and c2 - c1 the coboundary of (gamma, (0, 0)); the map is then
    an isomorphism from the c1-extension to the c2-extension, both checked
    end to end, which is verified before returning.  cap guards C^2_rbs.
    """
    if gamma.arity != 1 or gamma.target_dim != mod.dim:
        raise ValueError("gamma must be a linear map from the base into the kernel")
    # d(gamma, (0, 0)) is the first block column of rbs_1: (delta_1, -phi_1)
    expected = Complexes(sys, mod, cap).alg_column(1) @ multimap_vector(gamma)
    check_rbs_bimodule(mod).require("not a Rota-Baxter system bimodule")
    ext1 = _checked(sys, mod, c1, NotACocycle)
    diff = (c2.as_cochain().vector) - (c1.as_cochain().vector)
    if diff != expected:
        raise ValueError("payload difference is not the coboundary of the supplied map")
    field, d, m = sys.field, sys.dim, mod.dim
    zeta = vstack([
        hstack([Matrix.identity(field, d), Matrix.zeros(field, d, m)]),
        hstack([-gamma.mat, Matrix.identity(field, m)]),
    ])
    iso = ExtensionIso(zeta)
    ext2 = _checked(sys, mod, c2)
    check_iso(ext1, ext2, iso).require("shear failed the isomorphism checks", AssertionError)
    return iso


def same_class(ext1, ext2, iso, cap=None):
    """Isomorphic extensions expose identical payloads through matched sections.

    Takes extensions that have passed check_extension and an iso that has
    passed check_iso, so that it commutes with both legs; checks that it
    restricts to the identity on the kernel, extracts through t and iso o t
    and compares the payloads componentwise.  cap guards C^2_rbs, the
    payloads' space.
    """
    z = iso.zeta
    restricted = ext2.incl.solve(z @ ext1.incl)
    if restricted is None or restricted != Matrix.identity(ext1.hat.field, ext1.fiber_dim):
        return Verdict(False, tag="kernel_restriction_not_identity")
    t1 = canonical_section(ext1)
    c1 = extract_cocycle(ext1, t1, cap)
    c2 = extract_cocycle(ext2, z @ t1, cap)
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
    degree-2 cohomology: a column of the canonical kernel basis of rbs_2,
    so a cocycle, untested as one, whose extension is checked end to end.
    Refused over the rationals, where the class set is infinite.  cap
    bounds dim H^2; dim_cap is the cochain-space guard.
    """
    if not sys.field.is_prime_field:
        raise ValueError("census requires a finite prime field")
    cx = Complexes(sys, mod, dim_cap)
    kernel = cx.kernel(RBS, 2)
    boundaries = cx.image(RBS, 1)[0]
    # the kernel columns that are pivots past a basis of the coboundaries
    # extend it, each chosen greedily in column order
    pivots = hstack([boundaries, kernel]).rref()[1]
    reps = [kernel.col(c - boundaries.cols) for c in pivots if c >= boundaries.cols]
    h2_dim = len(reps)
    if h2_dim > cap:
        raise ValueError(f"second cohomology has dimension {h2_dim}, cap is {cap}")
    check_rbs_bimodule(mod).require("not a Rota-Baxter system bimodule")
    payloads = [zero_cocycle(sys, mod)]
    payloads += [cocycle_from_cochain(sys, mod, Cochain(RBS, 2, vec)) for vec in reps]
    return [(c, _checked(sys, mod, c)) for c in payloads]
