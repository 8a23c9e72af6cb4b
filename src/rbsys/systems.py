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
)
from .linalg import Matrix


class RotaBaxterSystem:
    """An algebra together with its operator pair (R, S).

    Immutable, so the verdict of check_rbs and the star product with its
    two terms (_star_terms) are computed once and kept.
    """

    __slots__ = ("alg", "R", "S", "_verdict", "_star")

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
        object.__setattr__(self, "_star", None)

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
    check_associative(sys.alg).require("underlying algebra is not associative")
    if sys._verdict is None:
        d, (mu_r, mu_s, star) = sys.dim, _star_terms(sys)
        # mu (R (x) R) = mu (R (x) Id) (Id (x) R) and mu (S (x) S) = mu (Id
        # (x) S) (S (x) Id), each against op star
        verdict = first_failure(
            (tag, term.times(op, p, q), op @ star, (d, d))
            for tag, term, op, p, q in (("eqR", mu_r, sys.R, d, 1), ("eqS", mu_s, sys.S, 1, d))
        )
        object.__setattr__(sys, "_verdict", verdict)
    return sys._verdict


def check_rb_operator(alg, R, lam):
    """Verify the weight-lam identity R(a)R(b) = R(R(a)b + aR(b) + lam ab)."""
    field, d = alg.field, alg.dim
    lam = field.coerce(lam)
    mu = alg.mult_matrix()
    mu_r = mu.times(R, 1, d)  # mu (R (x) Id); mu (R (x) R) = mu (R (x) Id) (Id (x) R)
    rhs = R @ (mu_r + mu.times(R, d, 1) + mu.scale(lam))
    return first_mismatch("rb_weight", mu_r.times(R, d, 1), rhs, (d, d))


def from_rb_operator(alg, R, lam):
    """Both systems induced by a weight-lam Rota-Baxter operator.

    Returns ((A, R, R + lam id), (A, R + lam id, R)); raises if R fails the
    weight-lam identity.
    """
    check_rb_operator(alg, R, lam).require(f"operator is not Rota-Baxter of weight {lam}")
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
    d, mu = alg.dim, alg.mult_matrix()
    r_left = (R @ mu) == mu.times(R, d, 1)
    s_right = (S @ mu) == mu.times(S, 1, d)
    rs = R @ S
    sr = S @ R
    criterion = mu.times(rs, d, 1).is_zero() and mu.times(sr, 1, d).is_zero()
    rbs_verdict = check_rbs(RotaBaxterSystem(alg, R, S))
    nondeg = bool(check_nondegenerate(alg))
    orthogonal = rs.is_zero() and sr.is_zero()
    return OrthogonalityReport(r_left, s_right, criterion, rbs_verdict, nondeg, orthogonal)


def star_algebra(sys):
    """The algebra with product a * b = R(a)b + aS(b).

    Associativity of the new product holds because (A, R, S) is a system;
    the input is checked.
    """
    check_rbs(sys).require("not a Rota-Baxter system")
    return _star_algebra_unchecked(sys)


def _star_algebra_unchecked(sys):
    return Algebra.from_matrix(_star_terms(sys)[2])


def _star_terms(sys):
    """mu (R (x) Id), mu (Id (x) S) and their sum mu (R (x) Id + Id (x) S),
    the matrix of (a, b) -> R(a)b + aS(b), kept on the system once
    computed: check_rbs starts both sides of its equations from the terms."""
    if sys._star is None:
        mu, d = sys.alg.mult_matrix(), sys.dim
        mu_r, mu_s = mu.times(sys.R, 1, d), mu.times(sys.S, d, 1)
        object.__setattr__(sys, "_star", (mu_r, mu_s, mu_r + mu_s))
    return sys._star


def star_rbs_if_commuting(sys):
    """(A_*, R, S) when R and S commute as matrices, else None.

    The construction is re-verified; a failure would contradict the claimed
    closure property and is raised with a witness.
    """
    if sys.R @ sys.S != sys.S @ sys.R:
        return None
    star_sys = RotaBaxterSystem(star_algebra(sys), sys.R, sys.S)
    check_rbs(star_sys).require("star system of a commuting pair failed the axioms", AssertionError)
    return star_sys


def check_morphism(f, src, dst):
    """Is f an algebra map intertwining both operator pairs?"""
    if f.shape != (dst.dim, src.dim):
        raise ValueError(f"morphism has shape {f.shape}, expected ({dst.dim}, {src.dim})")
    lhs = f @ src.alg.mult_matrix()
    # f (x) f = (f (x) Id) (Id (x) f)
    rhs = dst.alg.mult_matrix().times(f, 1, dst.dim).times(f, src.dim, 1)
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
    alg = Algebra.from_matrix((Pinv @ sys.alg.mult_matrix()).times(P, 1, d).times(P, d, 1))
    return RotaBaxterSystem(alg, Pinv @ sys.R @ P, Pinv @ sys.S @ P)
