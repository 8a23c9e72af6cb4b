"""Independent formula-driven evaluators used as oracles.

The library assembles differentials by adding each Kronecker term I_p (x)
X (x) I_q into one array through a strided view of it.  These helpers
instead evaluate the written-out formulas term by term on explicit basis
tuples, so a slice and its oracle share no assembly code.  An index-scatter
assembly and a Gauss-Jordan step that reduces its whole update mod p are
byte-for-byte references for the library's strided assembly and delayed
reduction.  A tiny standalone GF(2) rank routine backs the frozen cohomology
table, and sympy's DomainMatrix is a second elimination engine for the
exact kernels of rbsys.linalg.  The ranks of the total complex are checked
against its slices assembled whole.  The long exact sequence is checked a
second way by eliminating each column span afresh, and a third by the
four eliminations per slot that the library folds into one; the
deformation series order by order, one product per pair of orders, and the
kernel of an extension as an ideal one product per pair of basis columns.
The structures that the library builds as integer matrices (D(M), star
algebras, square-zero extensions, base changes, induced and reduced pairs)
are built again as tensors of Python scalars, block by block.  Rational
reconstruction runs as a list loop on Python ints, one list at a time.  The
axiom checks are stated as products of matrices, each Kronecker factor
formed whole, where the library multiplies stored arrays through reshapes.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import product

import numpy as np
from sympy import GF as SympyGF
from sympy import QQ as SympyQQ
from sympy.polys.matrices import DomainMatrix

from rbsys import (
    ALG,
    GF,
    RBS,
    RBSO,
    Algebra,
    BimoduleActions,
    Complexes,
    Matrix,
    RBSBimodule,
    RotaBaxterSystem,
    Verdict,
    extract_cocycle,
    hstack,
    induced_bimodule,
    vstack,
)
from rbsys.algebra import first_mismatch
from rbsys.cohomology import LesReport, LesSlot, _first_outside
from rbsys.linalg import _WHOLE_UPDATE_SIZE, _dtype_for, _of, modulo_prime, modulo_span


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
    """The nonzero rows of the RREF (nested lists of Fractions or residues)
    and the pivots, by sympy."""
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
    return out[: len(pivots)], tuple(pivots)


def sympy_rank(mat):
    """Rank of a Matrix by sympy."""
    return len(sympy_rref(mat)[1])


def slice_of(cx, tag, n):
    """The degree-n differential of the complex named by tag from the slices
    that cx holds: delta_n, partial_n, or rbs_n assembled whole from its
    blocks [[delta_n, 0], [-phi_n, -partial_(n-1)]] by placing each block."""
    if tag == ALG:
        return cx.delta(n)
    if tag == RBSO:
        return cx.partial(n)
    field, fa, fb = cx.sys.field, cx.dim(ALG, n), cx.dim(ALG, n + 1)
    out = np.zeros((cx.dim(RBS, n + 1), cx.dim(RBS, n)), dtype=object if field.p is None else np.int64)
    out[:fb, :fa] = cx.delta(n).a
    out[fb:, :fa] = (-cx.phi(n)).a
    if n:
        out[fb:, fa:] = (-cx.partial(n - 1)).a
    return Matrix(field, out)


def assembled_ranks(sys, mod, max_degree, cap=None):
    """The rank of every total differential rbs_n, n <= max_degree, each
    assembled whole from its blocks and eliminated as one matrix."""
    cx = Complexes(sys, mod, cap)
    return [slice_of(cx, RBS, n).rank() for n in range(max_degree + 1)]


def assembled_kernel(cx, n):
    """The canonical kernel basis of rbs_n, assembled whole from its blocks
    and eliminated as one matrix."""
    return slice_of(cx, RBS, n).kernel_basis()


def column_space_rank(mats):
    """Rank of the span of the columns of all given matrices together."""
    nonempty = [m for m in mats if m.cols > 0]
    if not nonempty:
        return 0
    return hstack(nonempty).rank()


def preimage_in_span(w, b):
    """Basis (as columns) of { c : w @ c lies in the column span of b }."""
    if w.cols == 0:
        return Matrix.zeros(w.field, 0, 0)
    if b.cols == 0:
        return w.kernel_basis()
    stacked = hstack([w, -b])
    ker = stacked.kernel_basis()
    return ker.take_rows(0, w.cols)


def les_slots_by_column_spans(sys, mod, max_degree, cap=None, spans=None):
    """(name, degree, image, kernel, ok) of every slot of the long exact
    sequence, by eliminating the column spans of each slot afresh: the image
    of the incoming map and the kernel of the outgoing one, each with the
    coboundaries, and both together.  A dict spans, if given, receives the
    two spanning sets (image, kernel) of each slot, keyed (name, degree)."""
    field = sys.field
    cx = Complexes(sys, mod, cap)
    kernels = {}

    def kernel(tag, p):
        if (tag, p) not in kernels:
            kernels[tag, p] = slice_of(cx, tag, p).kernel_basis()
        return kernels[tag, p]

    def image(tag, p):
        if p == 0:
            return Matrix.zeros(field, cx.dim(tag, 0), 0)
        return slice_of(cx, tag, p - 1)  # columns span the coboundaries

    def shifted(p):
        # the shift inclusion C^p_rbso -> C^(p+1)_rbs applied to the cocycles
        z = kernel(RBSO, p)
        return vstack([Matrix.zeros(field, cx.dim(ALG, p + 1), z.cols), z])

    def slot(name, p, incoming, z, outgoing_image, target_image):
        # image of the incoming map = kernel of the outgoing one, both taken
        # modulo the coboundaries of the slot; outgoing_image holds the
        # outgoing map applied to the cocycles z
        outgoing = preimage_in_span(outgoing_image, target_image)
        im_dim = column_space_rank([incoming])
        ker_members = z @ outgoing if outgoing.cols else Matrix.zeros(field, z.rows, 0)
        ker_dim = column_space_rank([ker_members, image(name, p)])
        ok = im_dim == ker_dim and column_space_rank([incoming, ker_members, image(name, p)]) == ker_dim
        if spans is not None:
            spans[name, p] = (incoming, hstack([ker_members, image(name, p)]))
        return (name, p, im_dim, ker_dim, ok)

    slots = []
    for p in range(max_degree + 1):
        # slot H^p_rbs: image of the shift inclusion = kernel of the projection
        z_rbs = kernel(RBS, p)
        projected = z_rbs.take_rows(0, cx.dim(ALG, p))
        if p == 0:
            incoming = Matrix.zeros(field, cx.dim(RBS, 0), 0)
        else:
            incoming = hstack([shifted(p - 1), image(RBS, p)])
        slots.append(slot(RBS, p, incoming, z_rbs, projected, image(ALG, p)))

        # slot H^p_alg: image of the projection = kernel of -phi into H^p_rbso
        z_alg = kernel(ALG, p)
        phi_z = cx.phi(p) @ z_alg
        incoming = hstack([projected, image(ALG, p)])
        slots.append(slot(ALG, p, incoming, z_alg, phi_z, image(RBSO, p)))

        # slot H^p_rbso: image of -phi = kernel of the shift inclusion
        if p <= max_degree - 1:
            incoming = hstack([phi_z, image(RBSO, p)])
            slots.append(slot(RBSO, p, incoming, kernel(RBSO, p), shifted(p), image(RBS, p + 1)))
    return slots


def les_check_by_slot_kernels(sys, mod, max_degree, cap=None):
    """les_check with four eliminations and products per slot: every
    coboundary span eliminated whole from its slice transposed, and at each
    slot the kernel of the outgoing residuals, the kernel members z c, their
    residuals and the echelon of those, each computed on its own."""
    field = sys.field
    cx = Complexes(sys, mod, cap)
    spans, slots = {}, []

    def span(tag, p):
        if (tag, p) not in spans:
            b = slice_of(cx, tag, p - 1) if p else Matrix.zeros(field, cx.dim(tag, 0), 0)
            spans[tag, p] = b.transpose().rref()
        return spans[tag, p]

    def slot(name, p, incoming, z, w, target):
        v, v_res, v_rank = incoming
        w_res = modulo_span(w.transpose(), span(*target))
        outgoing = Matrix.identity(field, w.cols) if w_res.is_zero() else w_res.transpose().kernel_basis()
        members = z @ outgoing
        k_res = modulo_span(members.transpose(), span(name, p))
        k_span = k_res.rref()
        base = len(span(name, p)[1])
        im_dim, ker_dim = base + v_rank, base + len(k_span[1])
        witness = _first_outside(v, modulo_span(v_res, k_span), "image_not_in_kernel")
        if witness is None and im_dim != ker_dim:
            extra = modulo_span(k_res, v_res.rref())
            witness = _first_outside(members, extra, "kernel_not_in_image")
        slots.append(LesSlot(name, p, im_dim, ker_dim, witness is None, witness))
        return w, w_res, w.cols - outgoing.cols

    start = Matrix.zeros(field, cx.dim(RBS, 0), 0)
    incoming = (start, start.transpose(), 0)
    for p in range(max_degree + 1):
        z = cx.kernel(RBS, p)
        incoming = slot(RBS, p, incoming, z, z.take_rows(0, cx.dim(ALG, p)), (ALG, p))
        z = cx.kernel(ALG, p)
        incoming = slot(ALG, p, incoming, z, cx.phi(p) @ z, (RBSO, p))
        if p < max_degree:
            z = cx.kernel(RBSO, p)
            shift = vstack([Matrix.zeros(field, cx.dim(ALG, p + 1), z.cols), z])
            incoming = slot(RBSO, p, incoming, z, shift, (RBS, p + 1))
    return LesReport(slots)


# -- deformation series, order by order ----------------------------------------
#
# The library stores a coefficient family as one stacked matrix and takes
# each truncated Cauchy product as one block-Toeplitz product.  These
# evaluate the same series on per-order lists, one Matrix product per pair
# of orders, as the formulas in the rbsys.deformation docstring read.


def series(a, b, op=operator.matmul):
    """Truncated Cauchy product: [sum_{i+j=n} op(a_i, b_j) for n < len(b)].

    a may be shorter than b; its missing coefficients are zero.
    """
    out = []
    for n in range(len(b)):
        terms = (op(a[i], b[n - i]) for i in range(1, min(n, len(a) - 1) + 1))
        out.append(sum(terms, op(a[0], b[n])))
    return out


def series_operator_residuals(mus, Rs, Ss):
    """Per-order (resR_n, resS_n); mus may be shorter than Rs and Ss."""
    idd = Matrix.identity(Rs[0].field, Rs[0].rows)
    inner = series(mus, [R.kron(idd) + idd.kron(S) for R, S in zip(Rs, Ss)])

    def residual(ops):
        twice = series(ops, ops, Matrix.kron)
        return [x - y for x, y in zip(series(mus, twice), series(ops, inner))]

    return list(zip(residual(Rs), residual(Ss)))


def series_residuals(mus, Rs, Ss):
    """Per-order (assoc_n, resR_n, resS_n) of a deformation."""
    idd = Matrix.identity(Rs[0].field, Rs[0].rows)
    assoc = series(mus, [mu.kron(idd) - idd.kron(mu) for mu in mus])
    return [(a, *res) for a, res in zip(assoc, series_operator_residuals(mus, Rs, Ss))]


def series_gauge_inverse(psis):
    """theta_0 = Id, theta_n = -sum_{j=1}^n theta_(n-j) psi_j."""
    thetas = [Matrix.identity(psis[0].field, psis[0].rows)]
    for n in range(1, len(psis)):
        terms = (thetas[n - j] @ psis[j] for j in range(2, n + 1))
        thetas.append(-sum(terms, thetas[n - 1] @ psis[1]))
    return thetas


def series_apply_gauge(mus, Rs, Ss, psis):
    """(mus', Rs', Ss') with mu' = g^-1 mu (g (x) g) and R' = g^-1 R g, S'
    likewise, truncated."""
    inv = series_gauge_inverse(psis)

    def conjugate(coeffs, right):
        return series(series(inv, coeffs), right)

    return (
        conjugate(mus, series(psis, psis, Matrix.kron)),
        conjugate(Rs, psis),
        conjugate(Ss, psis),
    )


# -- the kernel of an extension as an ideal ------------------------------------


def kernel_ideal_by_columns(ext):
    """The ideal checks of check_extension, one product per pair of columns:
    i_u i_v = 0 for all (u, v), then p(i_u e_j) = 0 and p(e_j i_u) = 0 for
    each (u, j) in turn, u-major."""
    field, n, m = ext.hat.field, ext.hat.dim, ext.fiber_dim
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
    return Verdict(True)


# -- the eager kernels ---------------------------------------------------------
#
# rbsys.linalg reduces mod p only where a residue is read, and adds each
# Kronecker term through a strided view.  These reduce every update and add
# through index arrays; the results must be the same arrays, entry for entry
# and in the same dtype.


def eager_gauss_jordan(a, p):
    """The nonzero rows of the RREF over GF(p) of a and the pivot columns,
    one pivot at a time, with every update reduced mod p; a is used as
    scratch."""
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[:, c]
        below = col[r:].nonzero()[0]
        if not len(below):
            continue
        i = r + below[0]
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(col[r]), -1, p)
        if a.size <= _WHOLE_UPDATE_SIZE:
            fac = col.copy()
            fac[r] -= 1
            a = (a - np.multiply.outer(fac, a[r] * inv % p)) % p
        else:
            rows = col.nonzero()[0]
            k = len(rows) - len(below)
            fac = col[rows]
            fac[k] -= 1
            row = a[r, c:] * inv % p
            a[rows, c:] = (a[rows, c:] - fac[:, None] * row) % p
        pivots.append(c)
        r += 1
    return a[:r].copy(), pivots


def scatter_identity_kron_sum(field, shape, terms, base=None):
    """Matrix.identity_kron_sum by index arrays: the nonzero entries of each
    term, at row ((i rows(x) + r) q + k) stride + offset and column (i
    cols(x) + c) q + k, added by one fancy-index add."""
    den, bound, dtype = 1, None, field.dtype
    if field.p is None:
        mats = [x for x, *_ in terms] + ([] if base is None else [base])
        den = math.lcm(*(x.den for x in mats))
        bound = sum(max(x._mag, 1) * (den // x.den) for x in mats)
        dtype = _dtype_for(bound)
    if base is None:
        out = np.zeros(shape, dtype=dtype)
    else:
        out = base.num.astype(dtype)
        if base.den != den:
            out *= den // base.den
    for x, p, q, sign, stride, offset in terms:
        r, c = np.nonzero(x.num)
        vals = x.num[r, c][:, None]
        if x.den != den:
            vals = vals.astype(dtype) * (den // x.den)
        blocks, inner = np.arange(p)[:, None, None], np.arange(q)
        rows = ((blocks * x.rows + r[:, None]) * q + inner) * stride + offset
        cols = (blocks * x.cols + c[:, None]) * q + inner
        if sign > 0:
            out[rows, cols] += vals
        else:
            out[rows, cols] -= vals
    return _of(field, out, den, bound)


def first_outside_by_rows(cols, res, tag):
    """les_check's witness, searched one residual row at a time: the column
    of cols at the first nonzero row of res, or None."""
    if res.is_zero():
        return None
    i = next(i for i in range(res.rows) if not res.take_rows(i, i + 1).is_zero())
    return Verdict(False, tag, [row[0] for row in cols.col(i).entries()])


# -- structure constants by the tensor route -----------------------------------
#
# rbsys keeps an algebra and a bimodule as integer matrices and places the
# blocks of a built structure into one integer array.  These build the same
# structures as arrays of Python scalars, a tensor block at a time, and
# convert them once through the tensor constructors, as the library did
# before it stored matrices.


def _tensor(mat, a, b):
    return mat.a.reshape(mat.rows, a, b).transpose(1, 2, 0)


def _blank(field, shape):
    return np.zeros(shape, dtype=field.dtype)


def star_algebra_by_tensors(sys):
    field, d = sys.field, sys.dim
    mu, idd = sys.alg.mult_matrix(), Matrix.identity(field, d)
    return Algebra(field, d, _tensor(mu @ sys.R.kron(idd) + mu @ idd.kron(sys.S), d, d))


def d_module_by_tensors(mod):
    """The star algebra and the doubled actions on M (+) M."""
    sys = mod.base
    field, d, m = mod.field, sys.dim, mod.dim
    lam, rho = mod.actions.left_matrix(), mod.actions.right_matrix()
    idm = Matrix.identity(field, m)
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    left, right = _blank(field, (d, 2 * m, 2 * m)), _blank(field, (2 * m, d, 2 * m))
    left[:, :m, :m] = _tensor(lam @ R.kron(idm), d, m)
    left[:, m:, :m] = _tensor(-(RM @ lam), d, m)
    left[:, m:, m:] = _tensor(lam @ S.kron(idm) - SM @ lam, d, m)
    right[:m, :, :m] = _tensor(rho @ idm.kron(R) - RM @ rho, m, d)
    right[:m, :, m:] = _tensor(-(SM @ rho), m, d)
    right[m:, :, m:] = _tensor(rho @ idm.kron(S), m, d)
    return star_algebra_by_tensors(sys), BimoduleActions(field, d, 2 * m, left, right)


def square_zero_by_tensors(mod, psi, chi_r, chi_s):
    """The system on A (+) M with payload (psi, chi_r, chi_s)."""
    sys = mod.base
    field, d, m = mod.field, sys.dim, mod.dim
    n = d + m
    mult = _blank(field, (n, n, n))
    mult[:d, :d, :d] = sys.alg.mult
    mult[:d, :d, d:] = _tensor(psi, d, d)
    mult[:d, d:, d:] = mod.actions.left
    mult[d:, :d, d:] = mod.actions.right

    def lower(op, chi, op_m):
        return vstack([hstack([op, Matrix.zeros(field, d, m)]), hstack([chi, op_m])])

    return RotaBaxterSystem(
        Algebra(field, n, mult), lower(sys.R, chi_r, mod.RM), lower(sys.S, chi_s, mod.SM)
    )


def _pair_by_tensors(field, mult, R, S, left, right, RM, SM):
    """The pair whose structure matrices are given, through the tensors."""
    d, m = R.rows, RM.rows
    base = RotaBaxterSystem(Algebra(field, d, _tensor(mult, d, d)), R, S)
    actions = BimoduleActions(field, d, m, _tensor(left, d, m), _tensor(right, m, d))
    return base, RBSBimodule(base, actions, RM, SM)


def conjugate_pair_by_tensors(mod, P, Q):
    """The pair transported along base changes P (on A) and Q (on M)."""
    sys = mod.base
    Pinv, Qinv = P.inverse(), Q.inverse()
    return _pair_by_tensors(
        sys.field,
        Pinv @ sys.alg.mult_matrix() @ P.kron(P),
        Pinv @ sys.R @ P,
        Pinv @ sys.S @ P,
        Qinv @ mod.actions.left_matrix() @ P.kron(Q),
        Qinv @ mod.actions.right_matrix() @ Q.kron(P),
        Qinv @ mod.RM @ Q,
        Qinv @ mod.SM @ Q,
    )


def induced_pair_by_tensors(ext, t):
    """The quotient system and the kernel bimodule of ext, through the
    section t."""
    hat, incl, proj = ext.hat, ext.incl, ext.proj
    mu_hat = hat.alg.mult_matrix()
    return _pair_by_tensors(
        hat.field,
        proj @ mu_hat @ t.kron(t),
        proj @ hat.R @ t,
        proj @ hat.S @ t,
        incl.solve(mu_hat @ t.kron(incl)),
        incl.solve(mu_hat @ incl.kron(t)),
        incl.solve(hat.R @ incl),
        incl.solve(hat.S @ incl),
    )


def modulo_prime_pair_by_tensors(sys, mod):
    acts = mod.actions
    mats = [sys.alg.mult_matrix(), sys.R, sys.S, acts.left_matrix(), acts.right_matrix(), mod.RM, mod.SM]
    reduced = modulo_prime(mats)
    return _pair_by_tensors(reduced[0].field, *reduced)


def reduced_pair_by_tensors(sys, mod, p):
    """The pair over Q reduced modulo p, entry by entry (n / L to n L^-1 mod
    p), through the tensors; p must divide no denominator."""
    acts = mod.actions
    mats = [sys.alg.mult_matrix(), sys.R, sys.S, acts.left_matrix(), acts.right_matrix(), mod.RM, mod.SM]
    field = GF(p)

    def reduced(m):
        assert all(x.denominator % p for row in m.entries() for x in row), f"{p} divides a denominator"
        return Matrix.from_rows(field, [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in m.entries()])

    return _pair_by_tensors(field, *map(reduced, mats))


def twisted_star_by_tensors(sys, lam):
    """The star algebra of (A, R, R + lam) and its twisted actions on A."""
    field, d = sys.field, sys.dim
    mu, idd = sys.alg.mult_matrix(), Matrix.identity(field, d)
    left = mu @ sys.R.kron(idd)
    right = mu @ idd.kron(sys.R + idd.scale(lam))
    star = Algebra(field, d, _tensor(left + right, d, d))
    return star, BimoduleActions(field, d, d, _tensor(left, d, d), _tensor(right, d, d))


def reconstruct_list(x, m):
    """Integers n and L with n/L = x mod m and |n|, L <= sqrt(m/2), for the
    list x of residues and one denominator L; None when there is none.  L
    starts at 1 and grows to its lcm with the denominator of the first entry
    past the bound (extended Euclid on m and that entry, stopped at the
    bound: Wang, Guy and Davenport); a denominator that does not grow or
    passes the bound fails.  A list loop on Python ints, the reference for
    the array lift of rbsys.linalg, which lifts each column this way."""
    bound, half = math.isqrt(m // 2), m // 2
    den = 1
    while True:
        num = [v * den % m for v in x]
        num = [v - m if v > half else v for v in num]
        over = next((i for i, v in enumerate(num) if abs(v) > bound), None)
        if over is None:
            return num, den
        r0, r1, t0, t1 = m, x[over], 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound or math.gcd(r1, t1) != 1:
            return None
        grown = math.lcm(den, abs(t1))
        if grown == den or grown > bound:
            return None
        den = grown


# -- axiom checks as Matrix products ------------------------------------------


def _first_mismatch_of(checks):
    """The first failing first_mismatch over (tag, lhs, rhs, dims) matrices."""
    for check in checks:
        verdict = first_mismatch(*check)
        if not verdict:
            return verdict
    return Verdict(True)


def associativity_by_products(alg):
    """check_associative as the matrix products mu (mu (x) Id) and mu (Id (x)
    mu), each Kronecker product formed whole."""
    mu, d = alg.mult_matrix(), alg.dim
    idd = Matrix.identity(alg.field, d)
    return first_mismatch("associativity", mu @ mu.kron(idd), mu @ idd.kron(mu), (d, d, d))


def operator_equations_by_products(sys):
    """check_rbs on an associative algebra, as matrix products: mu (op (x)
    op) against op mu (R (x) Id + Id (x) S) for op = R, S."""
    d, mu = sys.dim, sys.alg.mult_matrix()
    idd = Matrix.identity(sys.field, d)
    inner = mu @ sys.R.kron(idd) + mu @ idd.kron(sys.S)
    return _first_mismatch_of(
        [(tag, mu @ op.kron(op), op @ inner, (d, d)) for tag, op in (("eqR", sys.R), ("eqS", sys.S))]
    )


def bimodule_by_products(alg, actions):
    """check_bimodule as matrix products."""
    d, m = alg.dim, actions.dim
    mu, lam, rho = alg.mult_matrix(), actions.left_matrix(), actions.right_matrix()
    idd, idm = Matrix.identity(alg.field, d), Matrix.identity(alg.field, m)
    return _first_mismatch_of([
        ("left_action", lam @ mu.kron(idm), lam @ idd.kron(lam), (d, d, m)),
        ("right_action", rho @ idm.kron(mu), rho @ rho.kron(idd), (m, d, d)),
        ("middle_action", rho @ lam.kron(idd), lam @ idd.kron(rho), (d, m, d)),
    ])


def rbs_bimodule_by_products(mod):
    """The verdict of check_rbs_bimodule over a system, as matrix products:
    the bimodule axioms, then the four operator equations."""
    sys = mod.base
    base_axioms = bimodule_by_products(sys.alg, mod.actions)
    if not base_axioms:
        return base_axioms
    field, d, m = mod.field, sys.dim, mod.dim
    lam, rho = mod.actions.left_matrix(), mod.actions.right_matrix()
    idd, idm = Matrix.identity(field, d), Matrix.identity(field, m)
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    inner_am = lam @ R.kron(idm) + lam @ idd.kron(SM)
    inner_ma = rho @ RM.kron(idd) + rho @ idm.kron(S)
    return _first_mismatch_of([
        ("eq1", lam @ R.kron(RM), RM @ inner_am, (d, m)),
        ("eq2", rho @ RM.kron(R), RM @ inner_ma, (m, d)),
        ("eq3", lam @ S.kron(SM), SM @ inner_am, (d, m)),
        ("eq4", rho @ SM.kron(S), SM @ inner_ma, (m, d)),
    ])


def checked_payload(ext, section=None):
    """extract_cocycle of an extension that passed check_extension, with the
    payload tested as a cocycle of the induced bimodule, which the library
    takes it to be."""
    c = extract_cocycle(ext, section)
    mod = induced_bimodule(ext, section)
    assert Complexes(mod.base, mod).is_cocycle(c.as_cochain())
    return c
