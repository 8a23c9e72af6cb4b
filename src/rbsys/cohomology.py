"""The three cochain complexes as explicit matrices, and their cohomology.

Complexes (all over one field, m the coefficient dimension, d = dim A):

  alg   Hochschild complex of A with coefficients in M; degree-n space of
        dimension m d^n.
  rbso  Hochschild complex of the star algebra with coefficients in the
        doubled module D(M); degree-n space of dimension 2 m d^n, split as
        (x, y) pairs.
  rbs   total complex combining both: degree 0 is the alg degree 0, degree
        n >= 1 is C^n_alg (+) C^(n-1)_rbso, with differential
        d(f, (x, y)) = (delta f, -partial(x, y) - phi(f)).

One Complexes object owns the three maps delta_n, partial_n (with D(M)
built once) and phi_n for a (system, bimodule) pair and builds each at most
once; they are the only stored form of the rbs slices.  Every analysis here
and in the deformation and extension modules reads its slices from a single
Complexes per call.

Slices are assembled through strided views.  Every term of the Hochschild
differential is I_p (x) X (x) I_q for a small X (the stacked left action,
mu^T, or one right-action slice, whose rows go to stride d and offset j),
and so are the identity terms I_m (x) (R^(x)n)^T and I_m (x) (S^(x)n)^T
of phi.  Matrix.identity_kron_sum adds each term into one integer array
through one strided view of it, one signed broadcast add per term; no
Kronecker product by an identity is formed.  The rest of phi is one
Kronecker product, [[R_M], [S_M]] (x) T^T, the base of that sum; T itself
is built by one Kronecker product and one such sum per degree.

The rank and the kernel of rbs_n = [[delta_n, 0], [-phi_n, -partial_(n-1)]]
are read through its blocks.  With K the canonical kernel basis of delta_n
and N = [phi_n K | partial_(n-1)] (phi_0 K alone for n = 0), (c, g) -> (K c,
g) maps ker N onto ker rbs_n, bijectively as K is injective; signs change no
kernel.  So rank rbs_n = rank delta_n + rank N.  Every f-column comes before
every g-column and K is the identity on the free columns of delta_n, so the
free columns of rbs_n are those of N, in the same order, and the canonical
kernel basis of rbs_n is [[K Q_top], [Q_bottom]] for Q that of N.  None of
this uses that phi is a chain map or that d^2 = 0.  N is fed to
elimination by rows like every differential (see Complexes): each row
block of phi_n times K, next to the same rows of partial_(n-1), the
blocks of phi_n and partial_(n-1) cut from the stored slices or built for
N alone.  Every block is multiplied by one factor of K (Matrix.factor),
so K is converted to float64 once per N, not once per block.  N is never
stored; a memo keeps its elimination like that of delta_n, and Q is formed
on the first read of the kernel.  The cap guards the target space of
rbs_n.  Every analysis reads an image as the columns at the pivots of the
RREF (Complexes.image), for rbs_n cut from its blocks at the pivots that
the memos of delta_n and N hold; none assembles rbs_n.  Only rbs_d does.

les_check reads the long exact sequence off the ranks once it has
verified rbs_p rbs_(p-1) = 0 exactly, by products of its blocks delta
delta, partial partial and partial_(p-1) phi_(p-1) - phi_p delta_(p-1).
With rbs squaring to zero, the sequence of complexes 0 -> C_rbso[-1] ->
C_rbs -> C_alg -> 0 is short exact, and its cohomology sequence is exact
by the snake lemma, and the ranks come from one elimination each of
delta_p and M_p = [partial_(p-1) | phi_p K] (_les_ranks).  Only where the
verification fails does it compare the slots as chain-level spans, which
assumes neither that phi is a chain map nor that d^2 = 0.

hochschild_slice is the one Hochschild assembler.  Besides delta and
partial it builds the displayed cokernel differential of the weight-lambda
embedding check: the Hochschild complex of the star algebra
(A, R(a)b + a(R+lambda)(b)) with coefficients in A under the twisted
actions a.h = R(a)h and h.b = h(R+lambda)(b).

The sign convention is fixed once: the degree-n Hochschild differential is

  delta(f)(a_1..a_{n+1}) = (-1)^(n+1) a_1 f(a_2..a_{n+1})
      + sum_i (-1)^(n-i+1) f(a_1.. a_i a_{i+1} ..a_{n+1}) + f(a_1..a_n) a_{n+1}

and every other matrix is assembled against it.  Cochain coordinates are
the row-major flattenings of the m x d^n matrices, pairs concatenated x
then y.
"""

from __future__ import annotations

import bisect
import os

from .algebra import (
    Algebra,
    BimoduleActions,
    Verdict,
    multimap_from_vector,
    multimap_vector,
)
from .bimodules import RBSBimodule, _d_module_unchecked, regular_bimodule
from .linalg import (
    Matrix,
    assemble,
    hstack,
    lift_columns,
    modulo_prime,
    modulo_span,
    row_blocks,
    rref_rows,
    vstack,
)
from .systems import RotaBaxterSystem, from_rb_operator

ALG = "alg"
RBSO = "rbso"
RBS = "rbs"

DEFAULT_DIM_CAP = 20000


class DimensionCapExceeded(ValueError):
    """A requested cochain space exceeds the configured size guard."""


def resolve_cap(cap=None):
    if cap is not None:
        return cap
    env = os.environ.get("RBS_DIM_CAP")
    if not env:
        return DEFAULT_DIM_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"RBS_DIM_CAP must be an integer, got {env!r}") from None
    if cap <= 0:
        raise ValueError(f"RBS_DIM_CAP must be a positive integer, got {env!r}")
    return cap


def _guard(dim, cap):
    cap = resolve_cap(cap)
    if dim > cap:
        raise DimensionCapExceeded(f"cochain space of dimension {dim} exceeds cap {cap}")


class ComplexSlice:
    """One degree of a complex: the matrix from degree n to degree n + 1."""

    __slots__ = ("tag", "degree", "matrix")

    def __init__(self, tag, degree, matrix):
        self.tag = tag
        self.degree = degree
        self.matrix = matrix

    def __repr__(self):
        return f"ComplexSlice({self.tag}, n={self.degree}, {self.matrix.rows}x{self.matrix.cols})"


class Cochain:
    """A coordinate vector in one degree of one of the complexes."""

    __slots__ = ("tag", "degree", "vector")

    def __init__(self, tag, degree, vector):
        if vector.cols != 1:
            raise ValueError("cochain coordinates must form a column")
        self.tag = tag
        self.degree = degree
        self.vector = vector

    def __sub__(self, other):
        if (self.tag, self.degree) != (other.tag, other.degree):
            raise ValueError("cochain degree/tag mismatch")
        return Cochain(self.tag, self.degree, self.vector - other.vector)

    def __repr__(self):
        return f"Cochain({self.tag}, n={self.degree}, len={self.vector.rows})"


def hochschild_slice(alg, actions, n, cap=None, rows=None):
    """Degree-n differential of the Hochschild complex of (alg, actions), or,
    with rows = (start, stop), only those of its rows."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    field, d, m = alg.field, alg.dim, actions.dim
    _guard(m * d ** (n + 1), cap)
    # left action term Lambda (x) I_(d^n), sign (-1)^(n+1)
    terms = [(actions.stacked_left(), 1, d**n, (-1) ** (n + 1), 1, 0)]
    # inner multiplications I_m (x) I_(d^(i-1)) (x) mu^T (x) I_(d^(n-i)),
    # sign (-1)^(n-i+1)
    mu_t = alg.mult_matrix().transpose()
    for i in range(1, n + 1):
        terms.append((mu_t, m * d ** (i - 1), d ** (n - i), (-1) ** (n - i + 1), 1, 0))
    # right action term: C_j (x) I_(d^n) (x) e_j, i.e. the rows of
    # C_j (x) I_(d^n) at stride d from row j, sign +1
    for j, cj in enumerate(actions.right_slices()):
        terms.append((cj, 1, d**n, 1, d, j))
    return Matrix.identity_kron_sum(field, (m * d ** (n + 1), m * d**n), terms, rows=rows)


def phi(n, sys, mod, cap=None):
    """The comparison map from the algebra complex into the operator complex.

    phi(f) = (f o R^(x)n - R_M o T(f), f o S^(x)n - S_M o T(f)) where T(f)
    is the sum of f o (R^(x)(i-1) (x) Id (x) S^(x)(n-i)).  Degree 0 is the
    diagonal embedding.
    """
    return next(phi_rows(n, sys, mod, None, cap))


def phi_rows(n, sys, mod, ranges, cap=None):
    """phi_n by rows: one matrix per range (start, stop) of its rows in
    ranges, in turn, or all of phi_n once when ranges is None.

    T = T_n and the powers are built once, degree by degree: T_k =
    T_(k-1) (x) S + R^(x)(k-1) (x) Id and R^(x)k = R^(x)(k-1) (x) R, from T_1
    = Id (T_0 = 0 and R^(x)0 = S^(x)0 = I_1).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    field, d, m = sys.field, sys.dim, mod.dim
    _guard(2 * m * d**n, cap)
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    if n:
        t, r_pow, s_pow = Matrix.identity(field, d), R, S
    else:
        t, r_pow, s_pow = Matrix.zeros(field, 1, 1), Matrix.identity(field, 1), Matrix.identity(field, 1)
    for k in range(2, n + 1):
        t = Matrix.identity_kron_sum(field, (d**k, d**k), [(r_pow, 1, d, 1, 1, 0)], base=t.kron(S))
        r_pow, s_pow = r_pow.kron(R), s_pow.kron(S)
    # [[I_m (x) (R^(x)n)^T], [I_m (x) (S^(x)n)^T]] - [[R_M], [S_M]] (x) T^T
    half = m * d**n
    terms = [(r_pow.transpose(), m, 1, 1, 1, 0), (s_pow.transpose(), m, 1, 1, 1, half)]
    operators, t = vstack([RM, SM]), -t.transpose()
    for rows in ranges or [None]:
        dense = operators.kron(t, rows)
        yield Matrix.identity_kron_sum(field, (2 * half, half), terms, base=dense, rows=rows)


def _known(tag):
    if tag not in (ALG, RBSO, RBS):
        raise ValueError(f"unknown complex tag {tag!r}")


def rbs_dim(n, d, m):
    """Dimension of the degree-n space of the total complex."""
    if n == 0:
        return m
    return m * d**n + 2 * m * d ** (n - 1)


def rbs_d(n, sys, mod, cap=None):
    """Degree-n differential of the total complex, assembled from its blocks:
    the one assembly of rbs_n, for the benchmark and the tests."""
    cx = Complexes(sys, mod, cap)
    column = cx.alg_column(n)
    if n == 0:
        return ComplexSlice(RBS, n, column)
    partial_prev = cx.partial(n - 1)
    zero = Matrix.zeros(sys.field, cx.dim(ALG, n + 1), partial_prev.cols)
    return ComplexSlice(RBS, n, hstack([column, vstack([zero, -partial_prev])]))


class Complexes:
    """The differentials of all three complexes of one (system, bimodule) pair.

    It holds, for its own life (an analysis makes one per call), per
    delta_n, partial_n and N_n one memo of its one elimination: its RREF
    pivots, and its canonical kernel basis, formed on the first read of
    kernel from the RREF's free block that the elimination keeps until
    then, whole or streamed; and the slices delta_n, partial_n and phi_n
    that a reader applies or cuts (delta, phi and partial, called from d,
    alg_column and image), each built once through hochschild_slice and
    phi.  N = [phi_n K | partial_(n-1)] is fed to elimination and never
    stored, and rbs_n is never built.  Each differential and N reach
    elimination (linalg.rref_rows) by the row ranges of linalg.row_blocks
    (one range over Q and below 2^18 entries): a slice already stored is
    cut there by ranges; any other is built range by range as elimination
    reads it and stored nowhere, and no block is kept past the first
    kernel read.  So rank and kernel hold one elimination at a time besides
    the memos; a slice that is also applied or cut is built once if it is
    read before its elimination (image and les_check do so).  rank, kernel
    and image all read the same memo; rank and image read its pivots
    alone, and form no kernel basis.
    """

    def __init__(self, sys, mod, cap=None):
        self.sys = sys
        self.mod = mod
        # resolved once: every guard and slice builder below gets the number
        self.cap = resolve_cap(cap)
        self._built = {}
        self._dm = None

    def dim(self, tag, n):
        _known(tag)
        d, m = self.sys.dim, self.mod.dim
        if n < 0:
            return 0
        if tag == ALG:
            return m * d**n
        if tag == RBSO:
            return 2 * m * d**n
        return rbs_dim(n, d, m)

    def delta(self, n):
        return self._once((ALG, n), self._whole, ALG, n)

    def phi(self, n):
        return self._once(("phi", n), self._whole, "phi", n)

    def partial(self, n):
        return self._once((RBSO, n), self._whole, RBSO, n)

    def _whole(self, key, n):
        # delta_n (alg), partial_n (rbso) or phi_n ("phi"), built whole
        if key == "phi":
            return phi(n, self.sys, self.mod, self.cap)
        return hochschild_slice(*self._operands(key), n, self.cap)

    def _operands(self, tag):
        # the algebra and actions whose Hochschild differential is delta
        # (alg) or partial (rbso)
        if tag == ALG:
            return self.sys.alg, self.mod.actions
        if self._dm is None:
            self._dm = _d_module_unchecked(self.mod)
        return self._dm.star, self._dm.actions

    def _once(self, key, build, *args):
        if key not in self._built:
            self._built[key] = build(*args)
        return self._built[key]

    def _rows(self, key, n, blocks):
        # delta_n (alg), partial_n (rbso) or phi_n ("phi") by the row ranges
        # blocks: cut from the slice if it is stored, else each built as it
        # is read and stored nowhere (one range is the whole slice)
        stored = self._built.get((key, n))
        if stored is not None:
            return (stored.take_rows(*r) for r in blocks)
        if len(blocks) == 1:
            return [self._whole(key, n)]
        if key == "phi":
            return phi_rows(n, self.sys, self.mod, blocks, self.cap)
        return (hochschild_slice(*self._operands(key), n, self.cap, r) for r in blocks)

    def _echelon(self, tag, n):
        # the elimination of delta_n (alg), partial_n (rbso) or N_n (rbs):
        # its RREF pivots, and its canonical kernel basis formed on first read
        def build():
            if tag == RBS:
                return self._restricted(n)
            shape = (self.dim(tag, n + 1), self.dim(tag, n))
            return rref_rows(self.sys.field, shape, self._rows(tag, n, row_blocks(self.sys.field, shape)))

        return self._once(("echelon", tag, n), build)

    def _guard_rbs(self, n):
        # whichever part of rbs_n is read, the cap guards its target space
        if n < 0:
            raise ValueError("degree must be non-negative")
        self.guard([(RBS, n)])

    def guard(self, slices):
        """Check the cap on the target space of each differential (tag, n)
        in turn, before any is built.  An analysis lists the differentials
        it reads, in the order it first reads them, and so fails at once
        with the error that reading them would raise: each target space
        bounds every matrix assembled for its differential."""
        for tag, n in slices:
            _guard(self.dim(tag, n + 1), self.cap)

    def alg_column(self, n):
        """[delta_n; -phi_n], the first block column of rbs_n (all of rbs_0)."""
        self._guard_rbs(n)
        return vstack([self.delta(n), -self.phi(n)])

    def _restricted(self, n, folded=False):
        # the elimination of N = [phi_n K | partial_(n-1)], or with folded
        # of M = [partial_(n-1) | phi_n K] (phi_0 K alone for n = 0 either
        # way), K the canonical kernel basis of delta_n, fed by rows; every
        # row block of phi_n is multiplied by one factor of K, which is
        # converted for BLAS once
        self._guard_rbs(n)
        field, kernel = self.sys.field, self.kernel(ALG, n).factor()
        shape = (self.dim(RBSO, n), kernel.cols + self.dim(RBSO, n - 1))
        blocks = row_blocks(field, shape)

        def rows(phi_n, partial_prev=None):
            if not n:
                return phi_n @ kernel
            return hstack([partial_prev, phi_n @ kernel] if folded else [phi_n @ kernel, partial_prev])

        sources = [self._rows("phi", n, blocks)] + ([self._rows(RBSO, n - 1, blocks)] if n else [])
        return rref_rows(field, shape, map(rows, *sources))

    def rank(self, tag, n):
        """The rank of the degree-n differential of the complex named by tag;
        for rbs_n, rank delta_n + rank N.  It reads pivots only."""
        pivots = self._echelon(tag, n).pivots
        return len(pivots) + (self.rank(ALG, n) if tag == RBS else 0)

    def kernel(self, tag, n):
        """The canonical kernel basis of the degree-n differential of the
        complex named by tag; for rbs_n, [[K Q_top], [Q_bottom]], formed from
        the memo of N on every call."""
        basis = self._echelon(tag, n).kernel()
        if tag != RBS:
            return basis
        k = self.kernel(ALG, n)
        return vstack([k @ basis.take_rows(0, k.cols), basis.take_rows(k.cols, None)])

    def image(self, tag, n):
        """The columns of the degree-n differential of the complex named by
        tag at the pivots of its RREF, a basis of its image, and their
        indices.  For rbs_n (whose free columns are those of N_n) these are
        the pivots of delta_n and, for each pivot j of N_n, the f-column F[j]
        (j < |F|) or the g-column j - |F|, F the free columns of delta_n;
        they are cut from delta_n, phi_n and partial_(n-1), each stored
        before its elimination reads it, so each is built once."""
        _known(tag)
        if tag != RBS:
            sl = self.delta(n) if tag == ALG else self.partial(n)
            pivots = list(self._echelon(tag, n).pivots)
            return sl.columns(pivots), pivots
        self._guard_rbs(n)
        delta_n, phi_n = self.delta(n), self.phi(n)
        partial_prev = self.partial(n - 1) if n else None
        piv, n_piv = self._echelon(ALG, n).pivots, self._echelon(RBS, n).pivots
        free = _free(piv, delta_n.cols)
        f_cols = sorted(list(piv) + [free[j] for j in n_piv if j < len(free)])
        g_cols = [j - len(free) for j in n_piv if j >= len(free)]
        basis = vstack([delta_n.columns(f_cols), -phi_n.columns(f_cols)])
        if g_cols:
            zero = Matrix.zeros(self.sys.field, delta_n.rows, len(g_cols))
            basis = hstack([basis, vstack([zero, -partial_prev.columns(g_cols)])])
        return basis, f_cols + [delta_n.cols + j for j in g_cols]

    def d(self, cochain):
        """The differential of the cochain's complex applied to its vector."""
        self._check(cochain)
        return self.apply(cochain.tag, cochain.degree, cochain.vector)

    def apply(self, tag, n, v):
        """The degree-n differential of the complex named by tag applied to
        the columns of v; on rbs block by block: (delta_n f, -phi_n f -
        partial_(n-1) x)."""
        if tag != RBS:
            _known(tag)
            return (self.delta(n) if tag == ALG else self.partial(n)) @ v
        self._guard_rbs(n)
        f = v.take_rows(0, self.dim(ALG, n))
        top, bottom = self.delta(n) @ f, -(self.phi(n) @ f)
        if n:
            bottom = bottom - self.partial(n - 1) @ v.take_rows(f.rows, None)
        return vstack([top, bottom])

    def is_cocycle(self, cochain):
        return self.d(cochain).is_zero()

    def coboundary_preimage(self, cochain):
        """The echelon solution x of d(x) = cochain in the cochain's complex
        (zero at the free columns of d), or None; degree 0 has no source.
        It is solved on the basis of the image and placed at its indices."""
        self._check(cochain)
        n = cochain.degree
        if n == 0:
            return None
        basis, pivots = self.image(cochain.tag, n - 1)
        y = basis.solve(cochain.vector)
        if y is None:
            return None
        x = assemble((self.dim(cochain.tag, n - 1), y.cols), [(y, (pivots, slice(None)))])
        return Cochain(cochain.tag, n - 1, x)

    def _check(self, cochain):
        if cochain.vector.rows != self.dim(cochain.tag, cochain.degree):
            raise ValueError("cochain coordinate length does not match its degree")


class BettiReport:
    """Per-degree dimensions: space, rank, kernel, image from below,
    cohomology; and per degree how its rank was found (see betti)."""

    __slots__ = ("tag", "rows", "proofs")

    def __init__(self, tag, rows, proofs):
        self.tag = tag
        self.rows = rows
        self.proofs = proofs

    @property
    def h(self):
        return [row["h"] for row in self.rows]

    def __repr__(self):
        return f"BettiReport({self.tag}, H={self.h})"


def betti(tag, sys, mod, max_degree, cap=None):
    """Exact cohomology dimensions of one complex up to max_degree.

    Over GF(p) the rank of each differential d_n is that of its elimination
    (Complexes.rank), and every proof reads "elimination".  Over Q only the
    ranks are needed, never a basis.  The pair is reduced once modulo a
    prime p (linalg.modulo_prime: 2^28 - 57 unless it divides a
    denominator) and checked no further, as the reduction of a valid pair
    is valid; the same prime-field path gives L_n = rank_p d_n in every
    degree.  A minor that is nonzero mod p is nonzero over Q, so L_n <=
    rank_Q d_n.  Each rank_Q d_n is then proven in one of three ways,
    named per degree in BettiReport.proofs:

    * "bounds": h^p_n = dim C^n - L_n - L_(n-1) is 0 (L_(-1) = 0), or
      h^p_(n+1) is.  As im d_(n-1) lies in ker d_n, rank_Q d_n +
      rank_Q d_(n-1) <= dim C^n, and with each rank at least its L a zero
      h^p_n makes both equal to their L.  This rests on d^2 = 0, which the
      paper proves for every valid pair and the tier-1 oracles pin
      (criterion 1 of the acceptance tests); nothing over Q is built.
    * "witnesses": elsewhere every canonical kernel column of d_n mod p,
      dim C^n - L_n of them, is lifted to Q by rational reconstruction over
      a denominator of its own (linalg.lift_columns), and d_n v = 0 is
      checked for all of them by one exact product over Q (Complexes.apply).
      A lift is congruent mod p to a nonzero multiple of its column, and
      the columns are independent mod p (the identity on the free
      columns), so the lifts are independent over Q: rank_Q d_n <= L_n.
      When every column passes, this part assumes nothing of d.  When some
      (the set X) have no lift or fail the check, coboundaries take their
      place: the lifts that pass must vanish on the free rows F_X of X, and
      the rows F_X of d_(n-1) mod p must have rank |X| (one small
      elimination).  Then |X| columns of d_(n-1) over Q, cocycles by d^2 =
      0, together with the lifts that pass, are independent mod p (block
      triangular on the free rows) and so over Q.  The census picks its
      classes past the coboundaries in the same way.
    * "certified": otherwise (p divides a minor of d_n, or an entry needs
      more than one prime to lift), or where some h^p_n < 0, so that the
      reduction is no complex: the rank of the multimodular elimination
      over Q, certified exactly (Complexes.rank).

    The proof of rank d_n is settled once L_(n+1) is known, and only then
    is the mod-p kernel of d_n formed, from the elimination that gave L_n;
    so at most two degrees hold one at a time.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    cx = Complexes(sys, mod, cap)
    cx.guard((tag, n) for n in range(max_degree + 1))
    if sys.field.is_prime_field:
        ranks = [cx.rank(tag, n) for n in range(max_degree + 1)]
        proofs = ["elimination"] * len(ranks)
    else:
        ranks, proofs = _rational_ranks(cx, tag, max_degree)
    rows = []
    prev_rank = 0
    for n, rank in enumerate(ranks):
        dim = cx.dim(tag, n)
        kernel = dim - rank
        rows.append(
            {
                "n": n,
                "dim": dim,
                "rank": rank,
                "kernel": kernel,
                "image_below": prev_rank,
                "h": kernel - prev_rank,
            }
        )
        prev_rank = rank
    return BettiReport(tag, rows, proofs)


def _rational_ranks(cx, tag, top):
    """The ranks over Q of d_0 .. d_top of the complex named by tag, from
    cx, and the proof of each (see betti)."""
    cp = Complexes(*_modulo_prime_pair(cx.sys, cx.mod), cx.cap)
    low, h, proofs = [], [], []

    def settle(n):
        # the proof of rank d_n, once h^p_(n+1) is known or n is the top
        if h[n] == 0 or (n < top and h[n + 1] == 0):
            proofs.append("bounds")
        else:
            proofs.append("witnesses" if _witnessed(cx, cp, tag, n, cp.kernel(tag, n)) else "certified")

    for n in range(top + 1):
        low.append(cp.rank(tag, n))
        h.append(cx.dim(tag, n) - low[n] - (low[n - 1] if n else 0))
        if h[n] < 0:
            return [cx.rank(tag, k) for k in range(top + 1)], ["certified"] * (top + 1)
        if n:
            settle(n - 1)
    settle(top)
    ranks = [cx.rank(tag, n) if proof == "certified" else low[n] for n, proof in enumerate(proofs)]
    return ranks, proofs


def _witnessed(cx, cp, tag, n, kernel):
    """Whether the canonical kernel basis of d_n mod p (from cp) witnesses
    rank_Q d_n <= kernel.cols, through cx over Q (see betti)."""
    lifted, failed = lift_columns(kernel)
    bad = set(failed).union(cx.apply(tag, n, lifted).nonzero_cols())
    if not bad:
        return True
    if not n:
        return False
    # column j of the canonical basis is the identity at its free row F_j,
    # its last nonzero row; the cocycles mod p are the vectors v = sum_j
    # v[F_j] K_j, so the columns that pass and the coboundaries span them
    # exactly when the passing columns vanish on the rows F_bad and the
    # rows F_bad of d_(n-1) have rank |bad|
    free = kernel.last_nonzero_rows()
    good, rows = [j for j in range(kernel.cols) if j not in bad], [free[j] for j in bad]
    if not lifted.columns(good).rows_at(rows).is_zero():
        return False
    return cp.image(tag, n - 1)[0].rows_at(rows).rank() == len(bad)


def _modulo_prime_pair(sys, mod):
    """The pair reduced modulo the prime that linalg.modulo_prime picks for
    its structure constants and operators; no axiom is checked again."""
    acts = mod.actions
    mats = [sys.alg.mult_matrix(), sys.R, sys.S, acts.left_matrix(), acts.right_matrix(), mod.RM, mod.SM]
    mult, R, S, left, right, RM, SM = modulo_prime(mats)
    base = RotaBaxterSystem(Algebra.from_matrix(mult), R, S)
    return base, RBSBimodule(base, BimoduleActions.from_matrices(sys.dim, left, right), RM, SM)


# -- cochain packing -------------------------------------------------------


def pack_rbs_cochain(f, x, y):
    """Degree-n cochain of the total complex from maps (f, (x, y)).

    f has arity n, x and y arity n - 1, all into the same coefficient space.
    """
    n = f.arity
    if x.arity != n - 1 or y.arity != n - 1:
        raise ValueError("component arities must be (n, n-1, n-1)")
    vec = vstack([multimap_vector(f), multimap_vector(x), multimap_vector(y)])
    return Cochain(RBS, n, vec)


def unpack_rbs_cochain(cochain, sys, mod):
    """Split a degree-n (n >= 1) total cochain back into (f, (x, y))."""
    d, m = sys.dim, mod.dim
    n = cochain.degree
    if n < 1:
        raise ValueError("degree-0 cochains have no operator part")
    fa = m * d**n
    xa = m * d ** (n - 1)
    vec = cochain.vector
    f = multimap_from_vector(sys.alg, n, m, vec.take_rows(0, fa))
    x = multimap_from_vector(sys.alg, n - 1, m, vec.take_rows(fa, fa + xa))
    y = multimap_from_vector(sys.alg, n - 1, m, vec.take_rows(fa + xa, fa + 2 * xa))
    return f, x, y


# -- long exact sequence ---------------------------------------------------


class LesSlot:
    """Exactness at one slot; witness (None when ok) is a Verdict whose
    witness holds the coordinates of a cochain of the slot: an image member
    outside the kernel, or else a kernel member outside the image."""

    __slots__ = ("name", "degree", "image_dim", "kernel_dim", "ok", "witness")

    def __init__(self, name, degree, image_dim, kernel_dim, ok, witness):
        self.name = name
        self.degree = degree
        self.image_dim = image_dim
        self.kernel_dim = kernel_dim
        self.ok = ok
        self.witness = witness

    def __repr__(self):
        status = "ok" if self.ok else "FAIL"
        return f"LesSlot({self.name}^{self.degree}: im={self.image_dim}, ker={self.kernel_dim}, {status})"


class LesReport:
    __slots__ = ("slots",)

    def __init__(self, slots):
        self.slots = slots

    @property
    def ok(self):
        return all(s.ok for s in self.slots)

    def __repr__(self):
        return f"LesReport(ok={self.ok}, slots={len(self.slots)})"


def les_check(sys, mod, max_degree, cap=None):
    """Exactness of the degreewise sequence relating the three cohomologies.

    The sequence runs  ... -> H^p_rbs -> H^p_alg -> H^p_rbso -> H^(p+1)_rbs
    -> ...  with the projection, the map induced by -phi, and the shift
    inclusion (x, y) -> (0, (x, y)).  Each slot reports the dimension of the
    image of the incoming map and of the kernel of the outgoing one, each
    taken at chain level together with the coboundaries B of the slot.

    First rbs_p rbs_(p-1) = 0 is verified exactly for p = 1..max_degree
    by exact products of its blocks, delta_p delta_(p-1), partial_(p-1)
    partial_(p-2) and partial_(p-1) phi_(p-1) - phi_p delta_(p-1), on every
    field (_squares_to_zero; one route, as it made les_sweep faster on the
    prime fields too).  Below max_degree it multiplies the stored slices.
    delta_max_degree and phi_max_degree are read by the row ranges of
    row_blocks: one range is stored and cut again by elimination, several
    are checked block by block against the stored factors of degree
    max_degree - 1, so a tall slice is never held whole.  With these blocks
    zero the three complexes are complexes, and the shift inclusion and the
    projection are chain maps by the block form of rbs, whatever phi is.
    Then 0 -> C_rbso[-1] -> C_rbs -> C_alg -> 0 is a short exact sequence
    of complexes, -phi is its connecting map, and its cohomology sequence
    is exact (the snake lemma; Weibel, An Introduction to Homological
    Algebra, Thm 1.3.1); up to H^max_degree_alg it reads degrees <=
    max_degree only.  So every slot is ok, with no witness, and both of its
    dimensions are b + r: b = rank d_(p-1) in the slot's complex (0 at p =
    0), and r the rank of the incoming map on cohomology, 0 at H^0_rbs.
    The next slot's r is h - r, h = dim C^p - rank d_p - rank d_(p-1) the
    dimension of this slot's cohomology.  The ranks are read off one
    elimination each of delta_p and M_p = [partial_(p-1) | phi_p K]
    (_les_ranks).

    Where the verification fails, the slots are compared at chain level
    (_les_by_spans), which assumes neither that phi is a chain map nor that
    d^2 = 0, and a failing slot carries a witness.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    cx = Complexes(sys, mod, cap)
    # the slots of degree p read rbs_p and, below max_degree, partial_p
    cx.guard((tag, p) for p in range(max_degree + 1) for tag in (RBS, RBSO) if tag == RBS or p < max_degree)
    if not _squares_to_zero(cx, max_degree):
        return _les_by_spans(cx, max_degree)
    ranks, slots, r = _les_ranks(cx, max_degree), [], 0
    for p in range(max_degree + 1):
        for tag in (RBS, ALG, RBSO) if p < max_degree else (RBS, ALG):
            b = ranks[tag, p - 1] if p else 0
            slots.append(LesSlot(tag, p, b + r, b + r, True, None))
            r = cx.dim(tag, p) - ranks[tag, p] - b - r
    return LesReport(slots)


def _les_ranks(cx, top):
    """The ranks that les_check reads on a valid pair, keyed (tag, n): of
    delta_p and rbs_p for p <= top and of partial_p for p < top, from one
    elimination each of delta_p and M_p = [partial_(p-1) | phi_p K] (phi_0
    K at p = 0).  M_p is N_p with its blocks swapped, so its pivots count
    rank N_p; row operations act on its leading columns as on
    partial_(p-1) alone, so the pivots among them count rank partial_(p-1).
    The only kernel bases formed are the K of delta_p."""
    ranks = {}
    for p in range(top + 1):
        ranks[ALG, p] = cx.rank(ALG, p)
        pivots = cx._restricted(p, folded=True).pivots
        ranks[RBS, p] = ranks[ALG, p] + len(pivots)
        if p:
            ranks[RBSO, p - 1] = bisect.bisect_left(pivots, cx.dim(RBSO, p - 1))
    return ranks


def _squares_to_zero(cx, top):
    """Whether rbs_p rbs_(p-1) = 0 for p = 1..top, decided exactly by
    products of its blocks; it stops at the first degree where it does not.

    With rbs_n = [[delta_n, 0], [-phi_n, -partial_(n-1)]] the product is
    [[delta_p delta_(p-1), 0], [partial_(p-1) phi_(p-1) - phi_p delta_(p-1),
    partial_(p-1) partial_(p-2)]] (rbs_0 = [delta_0; -phi_0] has no second
    column), so it is zero exactly when delta_p delta_(p-1) = 0,
    partial_(p-1) partial_(p-2) = 0 for p >= 2, and partial_(p-1) phi_(p-1)
    = phi_p delta_(p-1), checked in that order by exact products on every
    field.  No elimination is read and no rbs_n is assembled.

    The slices of degree below top are read whole, so stored, before any
    elimination: the check multiplies them, the eliminations cut them, and
    the chain-level slots read them, so each is built once.  delta_top and
    phi_top are read by the row ranges of row_blocks: one range is stored,
    so that elimination cuts it and it is built once; several are each
    built, multiplied by the stored factors of degree top - 1 and dropped,
    so a tall slice is never held whole (elimination builds them again).

    One route serves every field: on the prime fields, too, these products
    cost less than testing the pivot columns of rbs_(p-1), cut through
    Complexes.image, against the kernel bases of delta_p and N_p
    (les_sweep job_p50_ms fell 7.8 %, faster in 29 of 30 alternating
    pairs, on a 2-vCPU Xeon with one BLAS thread).
    """
    for p in range(1, top + 1):
        delta_prev, phi_prev, partial_prev = cx.delta(p - 1), cx.phi(p - 1), cx.partial(p - 1)
        if any(not (part @ delta_prev).is_zero() for _, part in _by_rows(cx, ALG, p, top)):
            return False
        if p > 1 and not (partial_prev @ cx.partial(p - 2)).is_zero():
            return False
        right = partial_prev @ phi_prev
        if any(part @ delta_prev != right.take_rows(*r) for r, part in _by_rows(cx, "phi", p, top)):
            return False
    return True


def _by_rows(cx, key, n, top):
    """delta_n (alg) or phi_n ("phi") as (row range, rows) pairs: whole and
    stored below top, and at top by the ranges of row_blocks, stored when
    there is one (see _squares_to_zero)."""
    whole = cx.delta if key == ALG else cx.phi
    rows = cx.dim(ALG, n + 1) if key == ALG else cx.dim(RBSO, n)
    blocks = row_blocks(cx.sys.field, (rows, cx.dim(ALG, n)))
    if n < top or len(blocks) == 1:
        return [((0, rows), whole(n))]
    return zip(blocks, cx._rows(key, n, blocks))


def _free(pivots, n):
    """The columns 0..n-1 that are not pivots, in order."""
    pivots = set(pivots)
    return [j for j in range(n) if j not in pivots]


def _les_by_spans(cx, max_degree):
    """The slots of les_check compared as chain-level spans, on any blocks.

    Each B is eliminated once, to the echelon (R, P) of its columns, and
    every other span is reduced modulo it: reduce(X) = X^T - X^T[:, P] R.
    For any X, rank [X, B] = |P| + rank reduce(X), and X c lies in B exactly
    when c^T reduce(X) = 0.  Both hold for any B and X, so no step assumes
    that phi is a chain map or that d^2 = 0: on a broken map the dimensions
    are those of the spans themselves.  The pivot columns of a slice's RREF
    span its columns, so B is the image basis of the differential one degree
    lower (Complexes.image), at the pivots that the eliminations for its
    kernel found, and no slice is eliminated twice.

    A slot takes one elimination.  Write W for the outgoing map on the
    cocycles z and G = [reduce(W) | reduce(z)], one row per cocycle.  The
    kernel at the slot is spanned by B and the z c with c^T reduce(W) = 0,
    so its dimension is |P| + rank K, K the rows c^T reduce(z) over those
    c: the z-parts of the rows of G's row space whose W-part is zero.  A
    row of that space is the sum of the RREF(G) rows weighted by its
    entries at their pivots, so those with a zero W-part are spanned by the
    RREF rows whose pivot lies right of reduce(W).  Their z-part is
    therefore the RREF of K (the RREF of a row space is unique), and the
    pivots left of it count rank reduce(W).  The incoming image is the
    previous slot's W against this slot's B: its residual and that rank
    carry over, and it lies in the kernel when its residual is zero modulo
    the echelon of K.  Only when the dimensions differ are the kernel
    members z c formed, for the witness.
    """
    field = cx.sys.field
    spans, slots = {}, []

    def span(tag, p):
        # the echelon of the coboundaries in degree p
        if (tag, p) not in spans:
            b = cx.image(tag, p - 1)[0] if p else Matrix.zeros(field, cx.dim(tag, 0), 0)
            spans[tag, p] = b.transpose().rref()
        return spans[tag, p]

    def slot(name, p, incoming, z, w, target):
        # incoming: the previous slot's W, its residuals modulo span(name, p)
        # and their rank; w: the outgoing map on the cocycles z, whose
        # coboundaries target names; returns the same triple for the next slot
        v, v_res, v_rank = incoming
        w_res = modulo_span(w.transpose(), span(*target))
        z_res = modulo_span(z.transpose(), span(name, p))
        g, piv = hstack([w_res, z_res]).rref()
        w_rank = bisect.bisect_left(piv, w_res.cols)
        k_span = g.take(w_rank, None, w_res.cols, None), tuple(c - w_res.cols for c in piv[w_rank:])
        base = len(span(name, p)[1])
        im_dim, ker_dim = base + v_rank, base + len(k_span[1])
        witness = _first_outside(v, modulo_span(v_res, k_span), "image_not_in_kernel")
        if witness is None and im_dim != ker_dim:
            outgoing = Matrix.identity(field, w.cols) if w_res.is_zero() else w_res.transpose().kernel_basis()
            members = z @ outgoing
            k_res = modulo_span(members.transpose(), span(name, p))
            extra = modulo_span(k_res, v_res.rref())
            witness = _first_outside(members, extra, "kernel_not_in_image")
        slots.append(LesSlot(name, p, im_dim, ker_dim, witness is None, witness))
        return w, w_res, w_rank

    start = Matrix.zeros(field, cx.dim(RBS, 0), 0)
    incoming = (start, start.transpose(), 0)
    for p in range(max_degree + 1):
        # the slots apply phi_p, and below max_degree the coboundary spans
        # one degree up cut delta_p, phi_p and partial_p: read before their
        # kernels are eliminated, each is built once
        cx.phi(p)
        if p < max_degree:
            cx.delta(p)
            cx.partial(p)
        # H^p_rbs: image of the shift inclusion = kernel of the projection
        z = cx.kernel(RBS, p)
        incoming = slot(RBS, p, incoming, z, z.take_rows(0, cx.dim(ALG, p)), (ALG, p))
        # H^p_alg: image of the projection = kernel of -phi into H^p_rbso
        z = cx.kernel(ALG, p)
        incoming = slot(ALG, p, incoming, z, cx.phi(p) @ z, (RBSO, p))
        # H^p_rbso: image of -phi = kernel of the shift inclusion, which
        # pads the cocycles with zero f-coordinates
        if p < max_degree:
            z = cx.kernel(RBSO, p)
            shift = vstack([Matrix.zeros(field, cx.dim(ALG, p + 1), z.cols), z])
            incoming = slot(RBSO, p, incoming, z, shift, (RBS, p + 1))
    return LesReport(slots)


def _first_outside(cols, res, tag):
    """A failing Verdict holding the column of cols at the first nonzero row
    of the residuals res, or None when res is zero."""
    i = res.first_nonzero_row()
    if i is None:
        return None
    return Verdict(False, tag, [row[0] for row in cols.col(i).entries()])


# -- embedding of the weight-lambda operator complex ------------------------


def _dbar_display_slice(sys, lam, n, cap=None):
    """The displayed quotient differential Hom(A^(n-1), A) -> Hom(A^n, A).

    dbar(h)(a_1..a_n) = (-1)^(n-1) R(a_1) h(a_2..a_n)
        + sum_{i<n} (-1)^(n-i-1) h(.. R(a_i)a_{i+1} + a_i (R+lam)(a_{i+1}) ..)
        - h(a_1..a_{n-1}) (R+lam)(a_n)

    is minus the degree-(n-1) Hochschild differential of the star algebra
    (A, R(a)b + a(R+lam)(b)) with coefficients in A under the twisted
    actions a.h = R(a)h and h.b = h(R+lam)(b).
    """
    return -hochschild_slice(*_twisted_star(sys, lam), n - 1, cap)


def _twisted_star(sys, lam):
    """The star algebra (A, R(a)b + a(R+lam)(b)) and its twisted actions
    a.h = R(a)h and h.b = h(R+lam)(b) on A."""
    mu, d = sys.alg.mult_matrix(), sys.dim
    left = mu.times(sys.R, 1, d)
    right = mu.times(sys.R + Matrix.identity(sys.field, d).scale(lam), d, 1)
    return Algebra.from_matrix(left + right), BimoduleActions.from_matrices(sys.dim, left, right)


class EmbeddingReport:
    __slots__ = ("ok", "details")

    def __init__(self, ok, details):
        self.ok = ok
        self.details = details

    def __repr__(self):
        return f"EmbeddingReport(ok={self.ok})"


def rba_embedding_check(alg, R, lam, max_degree, cap=None):
    """Verify the embedding (f, g) -> (f, (g, g)) of the weight-lam operator
    complex in the total complex of (A, R, R + lam id) with regular
    coefficients, degreewise, on the blocks of rbs_n = [[delta_n, 0],
    [-phi_n, -P]], P = partial_(n-1) in x/y quadrants.  It is injective by
    construction: the (f, x) coordinates are a left inverse.  Its image is
    closed, and the induced differential a chain map, exactly when the
    x-rows of phi_n equal its y-rows and P_xx + P_xy = P_yx + P_yy; the
    quotient (f, x, y) -> y - x after rbs_n is then dbar (y - x) for dbar =
    P_xy - P_yy, which must equal the displayed formula (_dbar_display_slice).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be at least 0")
    sys = from_rb_operator(alg, R, lam)[0]
    cx = Complexes(sys, regular_bimodule(sys), cap)
    cx.guard((RBS, n) for n in range(max_degree + 1))
    details = []
    ok = True
    for n in range(max_degree + 1):
        # the x-rows of phi_n and partial_(n-1) come first, then the y-rows;
        # each slice is read at one degree only, so none is stored
        half, phi_n = cx.dim(ALG, n), cx._whole("phi", n)
        closed = phi_n.take_rows(0, half) == phi_n.take_rows(half, None)
        quotient_ok = True
        if n:
            partial_prev, ga = cx._whole(RBSO, n - 1), cx.dim(ALG, n - 1)
            xx, xy = partial_prev.take(0, half, 0, ga), partial_prev.take(0, half, ga, None)
            yx, yy = partial_prev.take(half, None, 0, ga), partial_prev.take(half, None, ga, None)
            closed = closed and xx + xy == yx + yy
            quotient_ok = closed and xy - yy == _dbar_display_slice(sys, lam, n, cx.cap)
        ok = ok and closed and quotient_ok
        details.append(
            {
                "n": n,
                "injective": True,
                "image_closed": closed,
                "chain_map": closed,
                "quotient_matches_display": quotient_ok,
            }
        )
    return EmbeddingReport(ok, details)
