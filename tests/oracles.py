"""Independent formula-driven evaluators used as oracles.

The library assembles differentials by scattering the nonzero entries of
each Kronecker term I_p (x) X (x) I_q into one array, indexed by row-major
coordinates.  These helpers instead evaluate the written-out formulas term
by term on explicit basis tuples, so a slice and its oracle share no
assembly code.  A tiny standalone GF(2) rank routine backs the frozen
cohomology table, and sympy's DomainMatrix is a second elimination
engine for the exact kernels of rbsys.linalg.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from sympy import GF as SympyGF
from sympy import QQ as SympyQQ
from sympy.polys.matrices import DomainMatrix

from rbsys import Matrix


def basis_tuples(d, n):
    return list(product(range(d), repeat=n))


def unit(field, n, k):
    return Matrix.unit_column(field, n, k)


def apply_map(fmap, cols):
    return fmap.apply(cols)


def naive_delta_apply(alg, actions, fmap, tup):
    """Evaluate the Hochschild differential of fmap on one basis tuple."""
    field = alg.field
    n = fmap.arity
    m = actions.dim
    cols = [unit(field, alg.dim, i) for i in tup]
    total = Matrix.zeros(field, m, 1)
    first = actions.act_left(cols[0], fmap.apply(cols[1:]))
    total = total + first if (n + 1) % 2 == 0 else total - first
    for i in range(1, n + 1):
        prod_col = alg.multiply(cols[i - 1], cols[i])
        args = cols[: i - 1] + [prod_col] + cols[i + 1 :]
        term = fmap.apply(args)
        total = total + term if (n - i + 1) % 2 == 0 else total - term
    total = total + actions.act_right(fmap.apply(cols[:-1]), cols[-1])
    return total


def naive_partial_apply(sys, mod, xmap, ymap, tup):
    """Evaluate the operator-complex differential on one basis tuple.

    Uses the written-out component formulas (products through R, S and the
    module operators), not the doubled-module tensors.
    """
    field, d = sys.field, sys.dim
    m = mod.dim
    act = mod.actions
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    cols = [unit(field, d, i) for i in tup]
    n = xmap.arity

    if n == 0:
        (a,) = cols
        x1 = xmap.mat  # value at 1
        y1 = ymap.mat
        first = (
            -act.act_left(R @ a, x1)
            + RM @ act.act_left(a, y1)
            + act.act_right(x1, R @ a)
            - RM @ act.act_right(x1, a)
        )
        second = (
            -act.act_left(S @ a, y1)
            + SM @ act.act_left(a, y1)
            + act.act_right(y1, S @ a)
            - SM @ act.act_right(x1, a)
        )
        return first, second

    def star_pair(a, b):
        return sys.alg.multiply(R @ a, b) + sys.alg.multiply(a, S @ b)

    sign_outer = 1 if (n + 1) % 2 == 0 else -1
    xfirst = xmap.apply(cols[1:])
    yfirst = ymap.apply(cols[1:])
    first = act.act_left(R @ cols[0], xfirst) - RM @ act.act_left(cols[0], yfirst)
    second = act.act_left(S @ cols[0], yfirst) - SM @ act.act_left(cols[0], yfirst)
    first = first.scale(sign_outer)
    second = second.scale(sign_outer)
    for i in range(1, n + 1):
        merged = star_pair(cols[i - 1], cols[i])
        args = cols[: i - 1] + [merged] + cols[i + 1 :]
        sgn = 1 if (n - i + 1) % 2 == 0 else -1
        first = first + xmap.apply(args).scale(sgn)
        second = second + ymap.apply(args).scale(sgn)
    xlast = xmap.apply(cols[:-1])
    ylast = ymap.apply(cols[:-1])
    first = first + act.act_right(xlast, R @ cols[-1]) - RM @ act.act_right(xlast, cols[-1])
    second = second + act.act_right(ylast, S @ cols[-1]) - SM @ act.act_right(xlast, cols[-1])
    return first, second


def naive_phi_apply(sys, mod, fmap, tup):
    """Evaluate the comparison map componentwise on one basis tuple."""
    field, d = sys.field, sys.dim
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    n = fmap.arity
    if n == 0:
        return fmap.mat, fmap.mat
    cols = [unit(field, d, i) for i in tup]
    r_args = [R @ c for c in cols]
    s_args = [S @ c for c in cols]
    mixed = Matrix.zeros(field, mod.dim, 1)
    for i in range(1, n + 1):
        args = [R @ c for c in cols[: i - 1]] + [cols[i - 1]] + [S @ c for c in cols[i:]]
        mixed = mixed + fmap.apply(args)
    return fmap.apply(r_args) - RM @ mixed, fmap.apply(s_args) - SM @ mixed


def naive_dbar_apply(sys, lam, hmap, tup):
    """Evaluate the displayed weight-lam quotient differential on one basis tuple.

    dbar(h)(a_1..a_n) = (-1)^(n-1) R(a_1) h(a_2..a_n)
        + sum_{i<n} (-1)^(n-i-1) h(.. R(a_i) a_{i+1} + a_i (R+lam)(a_{i+1}) ..)
        - h(a_1..a_{n-1}) (R+lam)(a_n)
    """
    field, d = sys.field, sys.dim
    alg, R = sys.alg, sys.R
    shifted = R + Matrix.identity(field, d).scale(lam)
    cols = [unit(field, d, i) for i in tup]
    n = len(tup)
    first = alg.multiply(R @ cols[0], hmap.apply(cols[1:]))
    total = first if (n - 1) % 2 == 0 else -first
    for i in range(1, n):
        merged = alg.multiply(R @ cols[i - 1], cols[i]) + alg.multiply(cols[i - 1], shifted @ cols[i])
        term = hmap.apply(cols[: i - 1] + [merged] + cols[i + 1 :])
        total = total + term if (n - i - 1) % 2 == 0 else total - term
    return total - alg.multiply(hmap.apply(cols[:-1]), shifted @ cols[-1])


def gf2_rank(rows):
    """Rank over GF(2) of a list of 0/1 rows (lists of ints)."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    row_used = [False] * len(rows)
    for c in range(ncols):
        pivot = None
        for i, row in enumerate(rows):
            if not row_used[i] and row[c] % 2 == 1:
                pivot = i
                break
        if pivot is None:
            continue
        row_used[pivot] = True
        rank += 1
        for i, row in enumerate(rows):
            if i != pivot and row[c] % 2 == 1:
                rows[i] = [(a + b) % 2 for a, b in zip(row, rows[pivot])]
    return rank


def sympy_rref(mat):
    """RREF (nested lists of Fractions or residues) and pivots, by sympy."""
    p = mat.field.p
    if p is None:
        domain = SympyQQ
        rows = [[SympyQQ(x.numerator, x.denominator) for x in row] for row in mat.entries()]
    else:
        domain = SympyGF(p)
        rows = [[domain(x) for x in row] for row in mat.entries()]
    r, pivots = DomainMatrix(rows, mat.shape, domain).rref()
    if p is None:
        out = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in r.to_list()]
    else:
        out = [[int(x) % p for x in row] for row in r.to_list()]
    return out, tuple(pivots)


def sympy_rank(mat):
    """Rank of a Matrix by sympy."""
    return len(sympy_rref(mat)[1])
