"""Bimodules over Rota-Baxter systems and the constructions built on them.

Alongside the axioms this module provides the regular bimodule, the
semidirect product A (+) M (in both directions of the characterisation),
and the doubled module D(M) = M (+) M over the star algebra with the
twisted actions

    a |> (m1, m2) = (R(a)m1 - R_M(a m2), S(a)m2 - S_M(a m2))
    (m1, m2) <| a = (m1 R(a) - R_M(m1 a), m2 S(a) - S_M(m1 a))

D(M) is materialised as explicit action matrices on a 2m-dimensional space
so the generic Hochschild machinery can consume it unchanged.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    Algebra,
    BimoduleActions,
    check_bimodule,
    first_failure,
    regular_actions,
)
from .linalg import Matrix, assemble, block_diag, hstack, vstack
from .systems import (
    RotaBaxterSystem,
    _star_algebra_unchecked,
    check_rbs,
    conjugate_system,
    star_rbs_if_commuting,
)


class RBSBimodule:
    """An A-bimodule with operators (R_M, S_M) over a system (A, R, S).

    Immutable, so the verdict of check_rbs_bimodule is computed once and kept.
    """

    __slots__ = ("base", "actions", "RM", "SM", "_verdict")

    def __init__(self, base, actions, RM, SM):
        m = actions.dim
        if actions.adim != base.dim:
            raise ValueError("actions do not match the algebra dimension")
        for name, op in (("RM", RM), ("SM", SM)):
            if op.shape != (m, m):
                raise ValueError(f"{name} has shape {op.shape}, expected ({m}, {m})")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "RM", RM)
        object.__setattr__(self, "SM", SM)
        object.__setattr__(self, "_verdict", None)

    def __setattr__(self, name, value):
        raise AttributeError("RBSBimodule is immutable")

    @property
    def dim(self):
        return self.actions.dim

    @property
    def field(self):
        return self.base.field

    def __eq__(self, other):
        return (
            isinstance(other, RBSBimodule)
            and self.base == other.base
            and self.actions == other.actions
            and self.RM == other.RM
            and self.SM == other.SM
        )

    def __repr__(self):
        return f"RBSBimodule(dim={self.dim} over {self.base!r})"


def regular_bimodule(sys):
    """The system acting on itself: M = A, R_M = R, S_M = S."""
    check_rbs(sys).require("not a Rota-Baxter system")
    return RBSBimodule(sys, regular_actions(sys.alg), sys.R, sys.S)


def check_rbs_bimodule(mod):
    """A-bimodule axioms plus the four operator equations on basis pairs."""
    if mod._verdict is None:
        object.__setattr__(mod, "_verdict", _rbs_bimodule_verdict(mod))
    return mod._verdict


def _rbs_bimodule_verdict(mod):
    sys = mod.base
    check_rbs(sys).require("base is not a Rota-Baxter system")
    base_axioms = check_bimodule(sys.alg, mod.actions)
    if not base_axioms:
        return base_axioms
    d, m = sys.dim, mod.dim
    lam, rho = mod.actions.left_matrix(), mod.actions.right_matrix()
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    # a product by op (x) op_M is one by op (x) Id_M, then one by Id_A (x)
    # op_M; lam (R (x) Id_M) and rho (R_M (x) Id_A) serve an inner map and
    # a left side each.  The inner maps are (a, m) -> R(a)m + a S_M(m) and
    # (m, a) -> R_M(m)a + m S(a)
    lam_r, rho_rm = lam.times(R, 1, m), rho.times(RM, 1, d)
    inner_am = lam_r + lam.times(SM, d, 1)
    inner_ma = rho_rm + rho.times(S, m, 1)
    return first_failure([
        ("eq1", lam_r.times(RM, d, 1), RM @ inner_am, (d, m)),
        ("eq2", rho_rm.times(R, m, 1), RM @ inner_ma, (m, d)),
        ("eq3", lam.times(S, 1, m).times(SM, d, 1), SM @ inner_am, (d, m)),
        ("eq4", rho.times(SM, 1, d).times(S, m, 1), SM @ inner_ma, (m, d)),
    ])


def semidirect_maps(field, d, m):
    """Canonical inclusion A -> A (+) M and projection A (+) M -> A."""
    iota = vstack([Matrix.identity(field, d), Matrix.zeros(field, m, d)])
    return iota, iota.transpose()


def semidirect_product(mod):
    """The system on A (+) M with (a, m)(b, n) = (ab, an + mb).

    Operators act componentwise; the result is verified, and the canonical
    inclusion and projection are morphisms by construction.
    """
    check_rbs_bimodule(mod).require("not a Rota-Baxter system bimodule")
    field, d, m = mod.field, mod.base.dim, mod.dim
    zero = Matrix.zeros(field, m, d)
    out = _square_zero_system(mod, Matrix.zeros(field, m, d * d), zero, zero)
    check_rbs(out).require("semidirect product failed the axioms", AssertionError)
    return out


def _square_zero_system(mod, psi, chi_r, chi_s):
    """The system on A (+) M with payload psi (m x d^2), chi_r, chi_s (m x d).

    (a, m)(b, n) = (ab, an + mb + psi(a, b)) and (a, m) -> (R(a), chi_r(a) +
    R_M(m)), S likewise.  Not validated: it is a system exactly when the
    payload is a 2-cocycle.
    """
    sys = mod.base
    field, d, m = mod.field, sys.dim, mod.dim
    n = d + m
    # e_i e_j has coefficient [k, i, j] at e_k; indices below d are in A
    mult = assemble((n, n, n), [
        (sys.alg.mult_matrix(), np.s_[:d, :d, :d]),
        (psi, np.s_[d:, :d, :d]),
        (mod.actions.left_matrix(), np.s_[d:, :d, d:]),
        (mod.actions.right_matrix(), np.s_[d:, d:, :d]),
    ])

    def lower(op, chi, op_m):
        return vstack([hstack([op, Matrix.zeros(field, d, m)]), hstack([chi, op_m])])

    return RotaBaxterSystem(
        Algebra.from_matrix(mult), lower(sys.R, chi_r, mod.RM), lower(sys.S, chi_s, mod.SM)
    )


def semidirect_extract(sys, actions, Rp, Sp):
    """Recover (R_M, S_M) from operators on A (+) M compatible with the legs.

    Rp, Sp must fix the A-summand through the projection and restrict to the
    M-summand (the commuting conditions with inclusion and projection); the
    lower-right blocks then define a system bimodule, which is verified.
    """
    d, m = sys.dim, actions.dim
    for name, op, base_op in (("Rp", Rp, sys.R), ("Sp", Sp, sys.S)):
        if op.shape != (d + m, d + m):
            raise ValueError(f"{name} has shape {op.shape}, expected {(d + m, d + m)}")
        if op.take_rows(0, d).take_cols(0, d) != base_op:
            raise ValueError(f"{name} does not restrict to the base operator on A")
        if not op.take_rows(d, d + m).take_cols(0, d).is_zero():
            raise ValueError(f"{name} does not send the A-summand into itself")
        if not op.take_rows(0, d).take_cols(d, d + m).is_zero():
            raise ValueError(f"{name} does not preserve the M-summand")
    RM = Rp.take_rows(d, d + m).take_cols(d, d + m)
    SM = Sp.take_rows(d, d + m).take_cols(d, d + m)
    mod = RBSBimodule(sys, actions, RM, SM)
    check_rbs_bimodule(mod).require("extracted operators fail the bimodule axioms")
    return mod


class DModule:
    """The star algebra together with the twisted actions on M (+) M."""

    __slots__ = ("star", "actions")

    def __init__(self, star, actions):
        self.star = star
        self.actions = actions

    def __repr__(self):
        return f"DModule(dim={self.actions.dim} over {self.star!r})"


def d_module(mod):
    """Build the doubled bimodule over the star algebra and verify its axioms."""
    check_rbs_bimodule(mod).require("not a Rota-Baxter system bimodule")
    dm = _d_module_unchecked(mod)
    check_bimodule(dm.star, dm.actions).require("doubled module failed the axioms", AssertionError)
    return dm


def _d_module_unchecked(mod):
    sys = mod.base
    d, m = sys.dim, mod.dim
    lam, rho = mod.actions.left_matrix(), mod.actions.right_matrix()
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    # e_i |> f_u and f_u <| e_i have coefficients [v, i, u] and [v, u, i] at f_v
    left = assemble((2 * m, d, 2 * m), [
        # e_i |> (f_u, 0) = (R(e_i) f_u, 0)
        (lam.times(R, 1, m), np.s_[:m, :, :m]),
        # e_i |> (0, f_u) = (-R_M(e_i f_u), S(e_i) f_u - S_M(e_i f_u))
        (-(RM @ lam), np.s_[:m, :, m:]),
        (lam.times(S, 1, m) - SM @ lam, np.s_[m:, :, m:]),
    ])
    right = assemble((2 * m, 2 * m, d), [
        # (f_u, 0) <| e_i = (f_u R(e_i) - R_M(f_u e_i), -S_M(f_u e_i))
        (rho.times(R, m, 1) - RM @ rho, np.s_[:m, :m, :]),
        (-(SM @ rho), np.s_[m:, :m, :]),
        # (0, f_u) <| e_i = (0, f_u S(e_i))
        (rho.times(S, m, 1), np.s_[m:, m:, :]),
    ])
    return DModule(_star_algebra_unchecked(sys), BimoduleActions.from_matrices(d, left, right))


def d_module_rbs(mod):
    """The doubled module as a bimodule over (A_*, R, S); None unless RS = SR.

    The operators act as R_M (+) R_M and S_M (+) S_M.  The construction is
    verified rather than assumed; a failing instance is raised with its
    witness.
    """
    sys = mod.base
    if sys.R @ sys.S != sys.S @ sys.R:
        return None
    star_sys = star_rbs_if_commuting(sys)
    dm = d_module(mod)
    out = RBSBimodule(
        star_sys,
        dm.actions,
        block_diag([mod.RM, mod.RM]),
        block_diag([mod.SM, mod.SM]),
    )
    check_rbs_bimodule(out).require(
        "doubled module over the star system failed the axioms", AssertionError
    )
    return out


def conjugate_bimodule(mod, P, Q):
    """Transport a bimodule along base changes P (on A) and Q (on M)."""
    Pinv, Qinv = P.inverse(), Q.inverse()
    if Pinv is None or Qinv is None:
        raise ValueError("base change matrix is singular")
    sys2 = conjugate_system(mod.base, P)
    d, m = mod.base.dim, mod.dim
    # P (x) Q = (P (x) Id) (Id (x) Q), and Q (x) P likewise
    lam = (Qinv @ mod.actions.left_matrix()).times(P, 1, m).times(Q, d, 1)
    rho = (Qinv @ mod.actions.right_matrix()).times(Q, 1, d).times(P, m, 1)
    actions = BimoduleActions.from_matrices(d, lam, rho)
    return RBSBimodule(sys2, actions, Qinv @ mod.RM @ Q, Qinv @ mod.SM @ Q)
