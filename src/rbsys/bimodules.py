"""Bimodules over Rota-Baxter systems and the constructions built on them.

Alongside the axioms this module provides the regular bimodule, the
semidirect product A (+) M (in both directions of the characterisation),
and the doubled module D(M) = M (+) M over the star algebra with the
twisted actions

    a |> (m1, m2) = (R(a)m1 - R_M(a m2), S(a)m2 - S_M(a m2))
    (m1, m2) <| a = (m1 R(a) - R_M(m1 a), m2 S(a) - S_M(m1 a))

D(M) is materialised as explicit action tensors on a 2m-dimensional space
so the generic Hochschild machinery can consume it unchanged.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    Algebra,
    BimoduleActions,
    check_bimodule,
    first_failure,
    matrix_tensor,
    regular_actions,
)
from .linalg import Matrix, block_diag, hstack, vstack
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
    verdict = check_rbs(sys)
    if not verdict:
        raise ValueError(f"not a Rota-Baxter system: {verdict.describe()}")
    return RBSBimodule(sys, regular_actions(sys.alg), sys.R, sys.S)


def check_rbs_bimodule(mod):
    """A-bimodule axioms plus the four operator equations on basis pairs."""
    if mod._verdict is None:
        object.__setattr__(mod, "_verdict", _rbs_bimodule_verdict(mod))
    return mod._verdict


def _rbs_bimodule_verdict(mod):
    sys = mod.base
    verdict = check_rbs(sys)
    if not verdict:
        raise ValueError(f"base is not a Rota-Baxter system: {verdict.describe()}")
    base_axioms = check_bimodule(sys.alg, mod.actions)
    if not base_axioms:
        return base_axioms
    field, d, m = mod.field, sys.dim, mod.dim
    lam = mod.actions.left_matrix()
    rho = mod.actions.right_matrix()
    idd = Matrix.identity(field, d)
    idm = Matrix.identity(field, m)
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    # inner maps (a, m) -> R(a)m + a S_M(m) and (m, a) -> R_M(m)a + m S(a)
    inner_am = lam @ R.kron(idm) + lam @ idd.kron(SM)
    inner_ma = rho @ RM.kron(idd) + rho @ idm.kron(S)
    return first_failure([
        ("eq1", lam @ R.kron(RM), RM @ inner_am, (d, m)),
        ("eq2", rho @ RM.kron(R), RM @ inner_ma, (m, d)),
        ("eq3", lam @ S.kron(SM), SM @ inner_am, (d, m)),
        ("eq4", rho @ SM.kron(S), SM @ inner_ma, (m, d)),
    ])


def semidirect_maps(field, d, m):
    """Canonical inclusion A -> A (+) M and projection A (+) M -> A."""
    iota = Matrix(field, np.vstack([
        np.eye(d, dtype=field.dtype),
        np.zeros((m, d), dtype=field.dtype),
    ]))
    pi = Matrix(field, np.hstack([
        np.eye(d, dtype=field.dtype),
        np.zeros((d, m), dtype=field.dtype),
    ]))
    return iota, pi


def semidirect_product(mod):
    """The system on A (+) M with (a, m)(b, n) = (ab, an + mb).

    Operators act componentwise; the result is verified, and the canonical
    inclusion and projection are morphisms by construction.
    """
    verdict = check_rbs_bimodule(mod)
    if not verdict:
        raise ValueError(f"not a Rota-Baxter system bimodule: {verdict.describe()}")
    field, d, m = mod.field, mod.base.dim, mod.dim
    zero = Matrix.zeros(field, m, d)
    out = _square_zero_system(mod, Matrix.zeros(field, m, d * d), zero, zero)
    check = check_rbs(out)
    if not check:
        raise AssertionError(f"semidirect product failed the axioms: {check.describe()}")
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
    mult = np.zeros((n, n, n), dtype=field.dtype)
    mult[:d, :d, :d] = sys.alg.mult
    mult[:d, :d, d:] = matrix_tensor(psi, d, d)
    mult[:d, d:, d:] = mod.actions.left
    mult[d:, :d, d:] = mod.actions.right

    def lower(op, chi, op_m):
        return vstack([hstack([op, Matrix.zeros(field, d, m)]), hstack([chi, op_m])])

    return RotaBaxterSystem(
        Algebra(field, n, mult), lower(sys.R, chi_r, mod.RM), lower(sys.S, chi_s, mod.SM)
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
    verdict = check_rbs_bimodule(mod)
    if not verdict:
        raise ValueError(f"extracted operators fail the bimodule axioms: {verdict.describe()}")
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
    verdict = check_rbs_bimodule(mod)
    if not verdict:
        raise ValueError(f"not a Rota-Baxter system bimodule: {verdict.describe()}")
    dm = _d_module_unchecked(mod)
    axioms = check_bimodule(dm.star, dm.actions)
    if not axioms:
        raise AssertionError(f"doubled module failed the axioms: {axioms.describe()}")
    return dm


def _d_module_unchecked(mod):
    sys = mod.base
    field, d, m = mod.field, sys.dim, mod.dim
    lam, rho = mod.actions.left_matrix(), mod.actions.right_matrix()
    idm = Matrix.identity(field, m)
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    left = np.zeros((d, 2 * m, 2 * m), dtype=field.dtype)
    right = np.zeros((2 * m, d, 2 * m), dtype=field.dtype)
    # e_i |> (f_u, 0) = (R(e_i) f_u, 0)
    left[:, :m, :m] = matrix_tensor(lam @ R.kron(idm), d, m)
    # e_i |> (0, f_u) = (-R_M(e_i f_u), S(e_i) f_u - S_M(e_i f_u))
    left[:, m:, :m] = matrix_tensor(-(RM @ lam), d, m)
    left[:, m:, m:] = matrix_tensor(lam @ S.kron(idm) - SM @ lam, d, m)
    # (f_u, 0) <| e_i = (f_u R(e_i) - R_M(f_u e_i), -S_M(f_u e_i))
    right[:m, :, :m] = matrix_tensor(rho @ idm.kron(R) - RM @ rho, m, d)
    right[:m, :, m:] = matrix_tensor(-(SM @ rho), m, d)
    # (0, f_u) <| e_i = (0, f_u S(e_i))
    right[m:, :, m:] = matrix_tensor(rho @ idm.kron(S), m, d)
    star = _star_algebra_unchecked(sys)
    return DModule(star, BimoduleActions(field, d, 2 * m, left, right))


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
    verdict = check_rbs_bimodule(out)
    if not verdict:
        raise AssertionError(
            f"doubled module over the star system failed the axioms: {verdict.describe()}"
        )
    return out


def conjugate_bimodule(mod, P, Q):
    """Transport a bimodule along base changes P (on A) and Q (on M)."""
    Pinv, Qinv = P.inverse(), Q.inverse()
    if Pinv is None or Qinv is None:
        raise ValueError("base change matrix is singular")
    sys2 = conjugate_system(mod.base, P)
    field, d, m = mod.field, mod.base.dim, mod.dim
    lam = Qinv @ mod.actions.left_matrix() @ P.kron(Q)
    rho = Qinv @ mod.actions.right_matrix() @ Q.kron(P)
    actions = BimoduleActions(field, d, m, matrix_tensor(lam, d, m), matrix_tensor(rho, m, d))
    return RBSBimodule(sys2, actions, Qinv @ mod.RM @ Q, Qinv @ mod.SM @ Q)
