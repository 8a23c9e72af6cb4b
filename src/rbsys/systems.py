"""Rota-Baxter systems: axioms, constructions, and morphism checks.

A Rota-Baxter system is an associative algebra A with two operators R, S
satisfying

    R(a)R(b) = R(R(a)b + aS(b))        (operator equation R)
    S(a)S(b) = S(R(a)b + aS(b))        (operator equation S)

All checks run on basis pairs; bilinearity extends them to the whole space.
"""

from __future__ import annotations

from .algebra import (
    Algebra,
    Verdict,
    check_associative,
    check_nondegenerate,
    first_failure,
    first_mismatch,
    matrix_tensor,
)
from .linalg import Matrix


class RotaBaxterSystem:
    """An algebra together with its operator pair (R, S).

    Immutable, so the verdict of check_rbs is computed once and kept.
    """

    __slots__ = ("alg", "R", "S", "_verdict")

    def __init__(self, alg, R, S):
        d = alg.dim
        for name, op in (("R", R), ("S", S)):
            if op.shape != (d, d):
                raise ValueError(f"{name} has shape {op.shape}, expected ({d}, {d})")
            if op.field != alg.field:
                raise ValueError(f"{name} lives over {op.field}, algebra over {alg.field}")
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "_verdict", None)

    def __setattr__(self, name, value):
        raise AttributeError("RotaBaxterSystem is immutable")

    @property
    def field(self):
        return self.alg.field

    @property
    def dim(self):
        return self.alg.dim

    def __eq__(self, other):
        return (
            isinstance(other, RotaBaxterSystem)
            and self.alg == other.alg
            and self.R == other.R
            and self.S == other.S
        )

    def __repr__(self):
        return f"RotaBaxterSystem({self.field}, dim={self.dim})"


def check_rbs(sys):
    """Verify both operator equations on all basis pairs.

    Raises on a non-associative algebra, on every call.
    """
    assoc = check_associative(sys.alg)
    if not assoc:
        raise ValueError(f"underlying algebra is not associative: {assoc.describe()}")
    if sys._verdict is None:
        d, mu, R, S = sys.dim, sys.alg.mult_matrix(), sys.R, sys.S
        idd = Matrix.identity(sys.field, d)
        inner = mu @ R.kron(idd) + mu @ idd.kron(S)  # (a, b) -> R(a)b + aS(b)
        verdict = first_failure(
            (tag, mu @ op.kron(op), op @ inner, (d, d)) for tag, op in (("eqR", R), ("eqS", S))
        )
        object.__setattr__(sys, "_verdict", verdict)
    return sys._verdict


def check_rb_operator(alg, R, lam):
    """Verify the weight-lam identity R(a)R(b) = R(R(a)b + aR(b) + lam ab)."""
    field, d = alg.field, alg.dim
    lam = field.coerce(lam)
    mu = alg.mult_matrix()
    idd = Matrix.identity(field, d)
    lhs = mu @ R.kron(R)
    rhs = R @ (mu @ R.kron(idd) + mu @ idd.kron(R) + mu.scale(lam))
    return first_mismatch("rb_weight", lhs, rhs, (d, d))


def from_rb_operator(alg, R, lam):
    """Both systems induced by a weight-lam Rota-Baxter operator.

    Returns ((A, R, R + lam id), (A, R + lam id, R)); raises if R fails the
    weight-lam identity.
    """
    verdict = check_rb_operator(alg, R, lam)
    if not verdict:
        raise ValueError(f"operator is not Rota-Baxter of weight {lam}: {verdict.describe()}")
    shifted = R + Matrix.identity(alg.field, alg.dim).scale(lam)
    return RotaBaxterSystem(alg, R, shifted), RotaBaxterSystem(alg, shifted, R)


class OrthogonalityReport:
    """Linearity flags plus the orthogonality and system verdicts."""

    __slots__ = (
        "r_left_linear",
        "s_right_linear",
        "criterion_holds",
        "rbs_verdict",
        "nondegenerate",
        "operators_orthogonal",
    )

    def __init__(self, r_left_linear, s_right_linear, criterion_holds,
                 rbs_verdict, nondegenerate, operators_orthogonal):
        self.r_left_linear = r_left_linear
        self.s_right_linear = s_right_linear
        self.criterion_holds = criterion_holds
        self.rbs_verdict = rbs_verdict
        self.nondegenerate = nondegenerate
        self.operators_orthogonal = operators_orthogonal

    def __repr__(self):
        return (
            f"OrthogonalityReport(r_left_linear={self.r_left_linear}, "
            f"s_right_linear={self.s_right_linear}, criterion={self.criterion_holds}, "
            f"rbs={bool(self.rbs_verdict)})"
        )


def orthogonality_criterion(alg, R, S):
    """Check the annihilation criterion for module-linear operator pairs.

    R is taken to be left A-linear when R(ab) = aR(b), S right A-linear when
    S(ab) = S(a)b.  When both hold, (A, R, S) is a system exactly when
    aR(S(b)) = 0 = S(R(a))b for all a, b; for non-degenerate A this becomes
    R o S = S o R = 0.
    """
    field, d = alg.field, alg.dim
    mu = alg.mult_matrix()
    idd = Matrix.identity(field, d)
    r_left = (R @ mu) == (mu @ idd.kron(R))
    s_right = (S @ mu) == (mu @ S.kron(idd))
    rs = R @ S
    sr = S @ R
    criterion = (mu @ idd.kron(rs)).is_zero() and (mu @ sr.kron(idd)).is_zero()
    rbs_verdict = check_rbs(RotaBaxterSystem(alg, R, S))
    nondeg = bool(check_nondegenerate(alg))
    orthogonal = rs.is_zero() and sr.is_zero()
    return OrthogonalityReport(r_left, s_right, criterion, rbs_verdict, nondeg, orthogonal)


def star_algebra(sys):
    """The algebra with product a * b = R(a)b + aS(b).

    Associativity of the new product holds because (A, R, S) is a system;
    the input is checked.
    """
    verdict = check_rbs(sys)
    if not verdict:
        raise ValueError(f"not a Rota-Baxter system: {verdict.describe()}")
    return _star_algebra_unchecked(sys)


def _star_algebra_unchecked(sys):
    field, d = sys.field, sys.dim
    mu = sys.alg.mult_matrix()
    idd = Matrix.identity(field, d)
    star_mult = mu @ sys.R.kron(idd) + mu @ idd.kron(sys.S)  # d x d^2
    return Algebra(field, d, matrix_tensor(star_mult, d, d))


def star_rbs_if_commuting(sys):
    """(A_*, R, S) when R and S commute as matrices, else None.

    The construction is re-verified; a failure would contradict the claimed
    closure property and is raised with a witness.
    """
    if sys.R @ sys.S != sys.S @ sys.R:
        return None
    star_sys = RotaBaxterSystem(star_algebra(sys), sys.R, sys.S)
    verdict = check_rbs(star_sys)
    if not verdict:
        raise AssertionError(
            f"star system of a commuting pair failed the axioms: {verdict.describe()}"
        )
    return star_sys


def check_morphism(f, src, dst):
    """Is f an algebra map intertwining both operator pairs?"""
    if f.shape != (dst.dim, src.dim):
        raise ValueError(f"morphism has shape {f.shape}, expected ({dst.dim}, {src.dim})")
    lhs = f @ src.alg.mult_matrix()
    rhs = dst.alg.mult_matrix() @ f.kron(f)
    multiplicative = first_mismatch("multiplicative", lhs, rhs, (src.dim, src.dim))
    if not multiplicative:
        return multiplicative
    if f @ src.R != dst.R @ f:
        return Verdict(False, tag="intertwine_R")
    if f @ src.S != dst.S @ f:
        return Verdict(False, tag="intertwine_S")
    return Verdict(True)


def conjugate_system(sys, P):
    """Transport the system along an invertible base change P.

    The new structure describes the same system in the basis P e_i; system
    axioms are preserved exactly.
    """
    Pinv = P.inverse()
    if Pinv is None:
        raise ValueError("base change matrix is singular")
    d = sys.dim
    alg = Algebra(sys.field, d, matrix_tensor(Pinv @ sys.alg.mult_matrix() @ P.kron(P), d, d))
    return RotaBaxterSystem(alg, Pinv @ sys.R @ P, Pinv @ sys.S @ P)
