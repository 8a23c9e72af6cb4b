"""Deterministic generators of valid systems, bimodules, and deformations.

Randomised acceptance runs draw from a few seed families that are valid by
construction, then scramble them with random invertible base changes (which
preserve every axiom exactly):

  * zero-multiplication algebras: any operator pair works, and any
    zero-action bimodule with arbitrary (R_M, S_M) works over them;
  * the unital line with (r, 0) or (0, s);
  * the 3-dim upper-triangular matrix algebra with R = right multiplication
    by a e_1 and S = left multiplication by b e_1 (module-linear operators
    satisfying the annihilation criterion);
  * weight-lam operators: 0, -lam id, and -lam e. for a central idempotent e.

Everything is seeded; identical seeds give identical instances.
"""

from __future__ import annotations

import random
from fractions import Fraction

from rbsys import (
    GF,
    QQ,
    Algebra,
    Matrix,
    RBSBimodule,
    RotaBaxterSystem,
    conjugate_bimodule,
    conjugate_system,
    regular_bimodule,
    zero_actions,
    zero_algebra,
)

FIELDS = (QQ, GF(2), GF(5))


def random_scalar(field, rng, small=True):
    if field.is_prime_field:
        return rng.randrange(field.p)
    return rng.randint(-2, 2) if small else rng.randint(-5, 5)


def random_matrix(field, rows, cols, rng):
    return Matrix.from_rows(
        field, [[random_scalar(field, rng) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(field, n, rng):
    while True:
        m = random_matrix(field, n, n, rng)
        if m.inverse() is not None:
            return m


def rational_base_change(n, rng):
    """An invertible matrix over Q with entries over 1, 2, 3 and 7, some
    of them multiples of 2^41: a pair transported along it has structure
    matrices with mixed denominators and numerators past 2^62."""
    while True:
        rows = [
            [Fraction(rng.randint(-3, 3) * rng.choice([1, 2**41]), rng.choice([1, 2, 3, 7])) for _ in range(n)]
            for _ in range(n)
        ]
        m = Matrix.from_rows(QQ, rows)
        if m.inverse() is not None:
            return m


# -- fixed instances ---------------------------------------------------------


def f2_zero_instance():
    """1-dim zero multiplication over GF(2) with zero operators, regular module."""
    field = GF(2)
    z = Matrix.zeros(field, 1, 1)
    sys = RotaBaxterSystem(zero_algebra(field, 1), z, z)
    return sys, regular_bimodule(sys)


def unital_line(field):
    return Algebra(field, 1, [[[1]]])


def line_system(field, r, s):
    """(K, r id, s id); a system exactly when r s = 0."""
    line = unital_line(field)
    return RotaBaxterSystem(
        line, Matrix.from_rows(field, [[r]]), Matrix.from_rows(field, [[s]])
    )


def triangular_algebra(field):
    """Upper-triangular 2x2 matrices: e0 = E11, e1 = E12, e2 = E22."""
    mult = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    mult[0][0][0] = 1
    mult[0][1][1] = 1
    mult[1][2][1] = 1
    mult[2][2][2] = 1
    return Algebra(field, 3, mult)


def triangular_system(field, a=1, b=1):
    """R = right multiplication by a e1, S = left multiplication by b e1."""
    alg = triangular_algebra(field)
    R = Matrix.from_rows(field, [[0, 0, 0], [a, 0, 0], [0, 0, 0]])
    S = Matrix.from_rows(field, [[0, 0, 0], [0, 0, b], [0, 0, 0]])
    return RotaBaxterSystem(alg, R, S)


def eq2_failing_bimodule():
    """The regular bimodule of the triangular GF(5) system with R_M[0][0]
    raised by 1: it fails eq2 at (0, 0)."""
    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    bump = Matrix.from_rows(sys.field, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    return RBSBimodule(sys, mod.actions, mod.RM + bump, mod.SM)


def eqR_failing_extension_doc():
    """The document of the semidirect extension of the triangular GF(5)
    system by its regular bimodule, with R[n-1][n-1] of the embedded system
    raised by 1: that system fails eqR."""
    from rbsys import build_extension, zero_cocycle
    from rbsys import documents as docs

    sys = triangular_system(GF(5), 1, 2)
    mod = regular_bimodule(sys)
    doc = docs.serialize_extension(build_extension(sys, mod, zero_cocycle(sys, mod)))
    R, n = doc["system"]["R"], doc["system"]["dim"]
    R[n - 1][n - 1] = (R[n - 1][n - 1] + 1) % 5
    return doc


def diagonal_algebra(field, n):
    """K x ... x K with componentwise multiplication."""
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        mult[i][i][i] = 1
    return Algebra(field, n, mult)


def idempotent_rb_operator(field, n, idx, lam):
    """R = -lam * (projection onto the coordinates in idx); weight-lam operator."""
    rows = [[0] * n for _ in range(n)]
    for i in idx:
        rows[i][i] = field.neg(field.coerce(lam))
    return Matrix.from_rows(field, rows)


def zero_mult_system(field, d, rng):
    """Any operator pair on a zero-multiplication algebra is a system."""
    return RotaBaxterSystem(
        zero_algebra(field, d), random_matrix(field, d, d, rng), random_matrix(field, d, d, rng)
    )


def zero_action_bimodule(sys, m, rng):
    """Zero actions with arbitrary operators: valid over any system."""
    field = sys.field
    return RBSBimodule(
        sys,
        zero_actions(field, sys.dim, m),
        random_matrix(field, m, m, rng),
        random_matrix(field, m, m, rng),
    )


def direct_sum(m1, m2):
    """M1 (+) M2 over their common system: block-diagonal actions and
    operators, checked by check_rbs_bimodule.  Column i m + u of the left
    action matrix is e_i . f_u, so its blocks are taken one basis vector
    e_i of the algebra at a time; the right action's column u d + i is
    block-diagonal as it stands."""
    from rbsys import BimoduleActions, block_diag, check_rbs_bimodule, hstack

    d, a1, a2 = m1.base.dim, m1.dim, m2.dim
    lam1, lam2 = m1.actions.left_matrix(), m2.actions.left_matrix()
    lam = hstack([
        block_diag([lam1.take(0, None, i * a1, (i + 1) * a1), lam2.take(0, None, i * a2, (i + 1) * a2)])
        for i in range(d)
    ])
    rho = block_diag([m1.actions.right_matrix(), m2.actions.right_matrix()])
    actions = BimoduleActions.from_matrices(d, lam, rho)
    mod = RBSBimodule(m1.base, actions, block_diag([m1.RM, m2.RM]), block_diag([m1.SM, m2.SM]))
    check_rbs_bimodule(mod).require("the direct sum is not a Rota-Baxter system bimodule")
    return mod


# -- randomized families -----------------------------------------------------


def _seed_pair(field, rng, big):
    """One valid (system, bimodule) pair before scrambling."""
    kind = rng.randrange(6)
    if kind == 0:
        d = rng.choice([1, 2, 3] if big else [1, 2])
        sys = zero_mult_system(field, d, rng)
        return sys, regular_bimodule(sys)
    if kind == 1:
        d = rng.choice([1, 2, 3] if big else [1, 2])
        m = rng.choice([1, 2, 3] if big else [1, 2])
        sys = zero_mult_system(field, d, rng)
        return sys, zero_action_bimodule(sys, m, rng)
    if kind == 2:
        r = random_scalar(field, rng)
        sys = line_system(field, r, 0) if rng.random() < 0.5 else line_system(field, 0, r)
        mod = (
            regular_bimodule(sys)
            if rng.random() < 0.5
            else zero_action_bimodule(sys, rng.choice([1, 2]), rng)
        )
        return sys, mod
    if kind == 3:
        if big:
            a = random_scalar(field, rng)
            b = random_scalar(field, rng)
            sys = triangular_system(field, a, b)
            return sys, regular_bimodule(sys)
        from rbsys import from_rb_operator

        alg = diagonal_algebra(field, 2)
        lam = random_scalar(field, rng)
        R = idempotent_rb_operator(field, 2, [0], lam)
        sys = from_rb_operator(alg, R, lam)[rng.randrange(2)]
        return sys, regular_bimodule(sys)
    if kind == 4:
        n = rng.choice([2, 3] if big else [2])
        alg = diagonal_algebra(field, n)
        lam = random_scalar(field, rng)
        idx = [i for i in range(n) if rng.random() < 0.5] or [0]
        R = idempotent_rb_operator(field, n, idx, lam)
        from rbsys import from_rb_operator

        sys = from_rb_operator(alg, R, lam)[rng.randrange(2)]
        mod = (
            regular_bimodule(sys)
            if (big or n <= 2) and rng.random() < 0.6
            else zero_action_bimodule(sys, 1, rng)
        )
        return sys, mod
    # fallback: unital line with zero operators
    sys = line_system(field, 0, 0)
    return sys, regular_bimodule(sys)


def random_system_bimodule(rng, field=None, big=None):
    """A valid scrambled (system, bimodule) pair.

    Over Q the dimensions stay small (object arithmetic); prime fields also
    draw the 3-dimensional families.
    """
    if field is None:
        field = rng.choice(FIELDS)
    if big is None:
        big = field.is_prime_field
    sys, mod = _seed_pair(field, rng, big)
    p = random_invertible(field, sys.dim, rng)
    q = random_invertible(field, mod.dim, rng)
    return conjugate_system(sys, p), conjugate_bimodule(mod, p, q)


def instance_set(count, seed=2024):
    """The deterministic randomized instance set used by the acceptance run."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        out.append(random_system_bimodule(rng))
    return out


def perturbed_phi(phi_rows, degree, seed, scale=1):
    """phi_rows with a rank-one term scale u v^T added to phi_n in one
    degree, the same term on every call, also when only a range of rows is
    built: a comparison map that is no longer a chain map.  cohomology.phi
    builds through phi_rows, so patching cohomology.phi_rows with it
    perturbs phi_n whole and by rows alike; the term is one product per
    call, made once the first part of phi_n is built."""

    def perturbed(n, sys, mod, ranges, cap=None):
        term = None
        for part, rows in zip(phi_rows(n, sys, mod, ranges, cap), ranges or [None]):
            if n == degree:
                if term is None:  # phi_n has twice as many rows as columns
                    rng = random.Random(seed)
                    u = random_matrix(sys.field, 2 * part.cols, 1, rng).scale(scale)
                    term = u @ random_matrix(sys.field, 1, part.cols, rng)
                part = part + (term if rows is None else term.take_rows(*rows))
            yield part

    return perturbed


def perturbed_slice(hochschild_slice, alg, degree, seed):
    """hochschild_slice with a rank-one term u v^T added to the degree-n
    differential of the Hochschild complex of alg (delta for the system's
    algebra), the same term on every call, also when only a range of rows
    is built: a differential whose square is no longer zero."""

    def perturbed(a, actions, n, cap=None, rows=None):
        out = hochschild_slice(a, actions, n, cap, rows)
        if a is not alg or n != degree:
            return out
        rng = random.Random(seed)
        u = random_matrix(a.field, actions.dim * a.dim ** (n + 1), 1, rng)
        term = u @ random_matrix(a.field, 1, out.cols, rng)
        return out + (term if rows is None else term.take_rows(*rows))

    return perturbed


def operator_deformation(sys, Rs, Ss):
    """The deformation of the operator families Rs and Ss with the
    multiplication held fixed: its mu series is [mu | 0 | ... | 0]."""
    from rbsys import DeformationData

    zero = Matrix.zeros(sys.field, sys.dim, sys.dim**2)
    return DeformationData(len(Rs) - 1, [sys.alg.mult_matrix()] + [zero] * (len(Rs) - 1), Rs, Ss)


def random_gauge(sys, order, rng):
    from rbsys import GaugeSeries

    field, d = sys.field, sys.dim
    psis = [Matrix.identity(field, d)]
    psis += [random_matrix(field, d, d, rng) for _ in range(order)]
    return GaugeSeries(order, psis)
