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
this uses that phi is a chain map or that d^2 = 0.  phi_n K comes from the
RREF of delta_n (linalg.on_kernel), or from K where delta_n is too tall to
be held (see Complexes).  The cap guards the target space of
rbs_n either way.  rbs_n is assembled only for its image (the coboundary
spans of les_check and the census), for a preimage and for the embedding
check, which compares its entries.

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
    matrix_tensor,
    multimap_from_vector,
    multimap_vector,
)
from .bimodules import _d_module_unchecked, regular_bimodule
from .linalg import (
    Matrix,
    echelon_kernel,
    hstack,
    modulo_span,
    on_kernel,
    pivot_columns,
    row_blocks,
    rref_rows,
    vstack,
)
from .systems import from_rb_operator

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
        return int(env)
    except ValueError:
        raise ValueError(f"RBS_DIM_CAP must be an integer, got {env!r}") from None


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

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and (self.tag, self.degree) == (other.tag, other.degree)
            and self.vector == other.vector
        )

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
    """Degree-n differential of the total complex, as Complexes.rbs assembles it."""
    return ComplexSlice(RBS, n, Complexes(sys, mod, cap).rbs(n))


class Complexes:
    """The differentials of all three complexes of one (system, bimodule) pair.

    It holds, for its own life (an analysis makes one per call), delta_n,
    partial_n and phi_n once one is read whole, each built once through
    the module-level hochschild_slice and phi and keeping the RREF that its
    rank or kernel memoises, and the canonical kernel basis K of delta_n
    and of partial_n once read.  rbs(n) assembles rbs_n afresh, and N =
    [phi_n K | partial_(n-1)] is built per call; neither is stored.  A
    slice that elimination takes in row blocks (linalg.row_blocks: over a
    prime field, at least 2^18 entries) is never held whole by rank and
    kernel: they build it, and N from rows of phi_n and partial_(n-1), block
    by block as elimination reads it (linalg.rref_rows), and keep only K.
    """

    def __init__(self, sys, mod, cap=None):
        self.sys = sys
        self.mod = mod
        self.cap = cap
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
        return self._once((ALG, n), hochschild_slice, *self._operands(ALG), n, self.cap)

    def phi(self, n):
        return self._once(("phi", n), phi, n, self.sys, self.mod, self.cap)

    def partial(self, n):
        return self._once((RBSO, n), hochschild_slice, *self._operands(RBSO), n, self.cap)

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

    def _blocks(self, tag, n):
        # the row blocks in which delta_n (alg) or partial_n (rbso) is fed
        # to elimination, or None when it is eliminated whole
        return row_blocks(self.sys.field, (self.dim(tag, n + 1), self.dim(tag, n)))

    def _kernel(self, tag, n):
        # K of delta_n (alg) or partial_n (rbso), built once
        def build():
            blocks = self._blocks(tag, n)
            if blocks is None:
                return self.slice(tag, n).kernel_basis()
            shape = (self.dim(tag, n + 1), self.dim(tag, n))
            rows = (hochschild_slice(*self._operands(tag), n, self.cap, r) for r in blocks)
            return echelon_kernel(rref_rows(self.sys.field, shape, rows))

        return self._once(("kernel", tag, n), build)

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

    def rbs(self, n):
        """rbs_n, assembled from its blocks afresh on every call."""
        column = self.alg_column(n)
        if n == 0:
            return column
        partial_prev = self.partial(n - 1)
        zero = Matrix.zeros(self.sys.field, self.dim(ALG, n + 1), partial_prev.cols)
        return hstack([column, vstack([zero, -partial_prev])])

    def slice(self, tag, n):
        """The degree-n differential of the complex named by tag."""
        _known(tag)
        if tag == ALG:
            return self.delta(n)
        if tag == RBSO:
            return self.partial(n)
        return self.rbs(n)

    def _restricted(self, n):
        # the RREF of N = [phi_n K | partial_(n-1)] (phi_0 K alone for n =
        # 0), K the canonical kernel basis of delta_n
        self._guard_rbs(n)
        field = self.sys.field
        # phi_n K from the RREF of delta_n, or from K when delta_n is not held
        kernel = None if self._blocks(ALG, n) is None else self._kernel(ALG, n)

        def rows(phi_n, partial_prev):
            restricted = on_kernel(phi_n, self.delta(n)) if kernel is None else phi_n @ kernel
            return hstack([restricted, partial_prev]) if n else restricted

        shape = (self.dim(RBSO, n), self.dim(ALG, n) - self.rank(ALG, n) + self.dim(RBSO, n - 1))
        blocks = row_blocks(field, shape)
        if blocks is None:
            return rows(self.phi(n), self.partial(n - 1) if n else None).rref()
        partials = (hochschild_slice(*self._operands(RBSO), n - 1, self.cap, r) if n else None for r in blocks)
        return rref_rows(field, shape, map(rows, phi_rows(n, self.sys, self.mod, blocks, self.cap), partials))

    def rank(self, tag, n):
        """The rank of the degree-n differential of the complex named by tag."""
        if tag == RBS:
            return len(self._restricted(n)[1]) + self.rank(ALG, n)
        if self._blocks(tag, n) is None:
            return self.slice(tag, n).rank()
        return self.dim(tag, n) - self._kernel(tag, n).cols

    def kernel(self, tag, n):
        """The canonical kernel basis of the degree-n differential of the
        complex named by tag; for rbs_n, [[K Q_top], [Q_bottom]]."""
        _known(tag)
        if tag != RBS:
            return self._kernel(tag, n)
        q = echelon_kernel(self._restricted(n))
        k = self._kernel(ALG, n)
        return vstack([k @ q.take_rows(0, k.cols), q.take_rows(k.cols, None)])

    def d(self, cochain):
        """The differential of the cochain's complex applied to its vector;
        on rbs block by block: (delta_n f, -phi_n f - partial_(n-1) x)."""
        self._check(cochain)
        tag, n, v = cochain.tag, cochain.degree, cochain.vector
        if tag != RBS:
            return self.slice(tag, n) @ v
        self._guard_rbs(n)
        f = v.take_rows(0, self.dim(ALG, n))
        top, bottom = self.delta(n) @ f, -(self.phi(n) @ f)
        if n:
            bottom = bottom - self.partial(n - 1) @ v.take_rows(f.rows, None)
        return vstack([top, bottom])

    def is_cocycle(self, cochain):
        return self.d(cochain).is_zero()

    def coboundary_preimage(self, cochain):
        """Some x with d(x) = cochain in the cochain's complex, or None;
        degree 0 has no source."""
        self._check(cochain)
        n = cochain.degree
        if n == 0:
            return None
        x = self.slice(cochain.tag, n - 1).solve(cochain.vector)
        return None if x is None else Cochain(cochain.tag, n - 1, x)

    def _check(self, cochain):
        if cochain.vector.rows != self.dim(cochain.tag, cochain.degree):
            raise ValueError("cochain coordinate length does not match its degree")


class BettiReport:
    """Per-degree dimensions: space, rank, kernel, image from below, cohomology."""

    __slots__ = ("tag", "rows")

    def __init__(self, tag, rows):
        self.tag = tag
        self.rows = rows

    @property
    def h(self):
        return [row["h"] for row in self.rows]

    def __repr__(self):
        return f"BettiReport({self.tag}, H={self.h})"


def betti(tag, sys, mod, max_degree, cap=None):
    """Exact cohomology dimensions of one complex up to max_degree."""
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    cx = Complexes(sys, mod, cap)
    cx.guard((tag, n) for n in range(max_degree + 1))
    rows = []
    prev_rank = 0
    for n in range(max_degree + 1):
        rank = cx.rank(tag, n)
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
    return BettiReport(tag, rows)


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


def pack_rbso_cochain(x, y):
    """Degree-n operator-complex cochain from the pair (x, y) of arity n."""
    if x.arity != y.arity:
        raise ValueError("component arities must agree")
    return Cochain(RBSO, x.arity, vstack([multimap_vector(x), multimap_vector(y)]))


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
    inclusion (x, y) -> (0, (x, y)).  At each slot the image of the incoming
    map and the kernel of the outgoing one are compared as chain-level
    spans, each taken together with the coboundaries B of the slot.

    Each B is eliminated once, to the echelon (R, P) of its columns, and
    every other span is reduced modulo it: reduce(X) = X^T - X^T[:, P] R.
    For any X, rank [X, B] = |P| + rank reduce(X), and X c lies in B exactly
    when c^T reduce(X) = 0.  Both hold for any B and X, so no step assumes
    that phi is a chain map or that d^2 = 0: on a broken map the dimensions
    are those of the spans themselves.  The pivot columns of a slice's RREF
    span its columns, so B of alg and rbso is read from the slice one degree
    lower restricted to the pivots of the RREF that its kernel already
    computed; rbs_(p-1) has no stored RREF and is eliminated whole.

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
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    field = sys.field
    cx = Complexes(sys, mod, cap)
    # the slots of degree p read rbs_p and, below max_degree, partial_p
    cx.guard((tag, p) for p in range(max_degree + 1) for tag in (RBS, RBSO) if tag == RBS or p < max_degree)
    spans, slots = {}, []

    def span(tag, p):
        # the echelon of the coboundaries in degree p
        if (tag, p) not in spans:
            if p == 0:
                b = Matrix.zeros(field, cx.dim(tag, 0), 0)
            elif tag == RBS:
                b = cx.rbs(p - 1)
            else:
                b = pivot_columns(cx.slice(tag, p - 1))
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
    field, d = sys.field, sys.dim
    mu, idd = sys.alg.mult_matrix(), Matrix.identity(field, d)
    left = mu @ sys.R.kron(idd)
    right = mu @ idd.kron(sys.R + idd.scale(lam))
    star = Algebra(field, d, matrix_tensor(left + right, d, d))
    twisted = BimoduleActions(field, d, d, matrix_tensor(left, d, d), matrix_tensor(right, d, d))
    return -hochschild_slice(star, twisted, n - 1, cap)


class EmbeddingReport:
    __slots__ = ("ok", "details")

    def __init__(self, ok, details):
        self.ok = ok
        self.details = details

    def __repr__(self):
        return f"EmbeddingReport(ok={self.ok})"


def rba_embedding_check(alg, R, lam, max_degree, cap=None):
    """Verify the embedding of the weight-lam operator complex, degreewise.

    Builds the system (A, R, R + lam id) with regular coefficients, embeds
    pairs (f, g) as (f, (g, g)), checks that the embedding is injective and
    closed under the total differential, and that the induced differential
    on the cokernel (f, x, y) -> y - x matches the displayed formula entry
    for entry.  The displayed formula is minus the Hochschild differential
    of the star algebra (A, R(a)b + a(R+lam)(b)) with coefficients in A
    under the twisted actions a.h = R(a)h and h.b = h(R+lam)(b), one degree
    lower.  The embedding, the quotient and its section are 0/1 maps, so
    they are applied as row copies, column sums and row differences of the
    total differential, never as matrix products.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be at least 0")
    sys = from_rb_operator(alg, R, lam)[0]
    mod = regular_bimodule(sys)
    cx = Complexes(sys, mod, cap)
    cx.guard((RBS, n) for n in range(max_degree + 1))
    field, d = sys.field, sys.dim
    m = d
    details = []
    ok = True
    for n in range(max_degree + 1):
        d_n = cx.rbs(n)
        # C^n_rbs = (f, x, y): f has fa coordinates, x and y have ga each
        fa, ga = m * d**n, (m * d ** (n - 1) if n else 0)
        fb, gb = m * d ** (n + 1), m * d**n
        psi = _embed(Matrix.identity(field, fa + ga), fa, ga)
        # the (f, x) coordinates are a left inverse of the embedding
        injective = psi.take_rows(0, fa + ga) == Matrix.identity(field, fa + ga)
        # d_n after the embedding: (f, g) -> d_n (f, g, g)
        x_cols, y_cols = d_n.take_cols(fa, fa + ga), d_n.take_cols(fa + ga, fa + 2 * ga)
        dpsi = hstack([d_n.take_cols(0, fa), x_cols + y_cols])
        image_closed = dpsi.take_rows(fb, fb + gb) == dpsi.take_rows(fb + gb, fb + 2 * gb)
        # chain map property: the induced differential is read off the f- and
        # x-rows, and embedding it must give back d_n after the embedding
        chain_ok = True
        if image_closed:
            chain_ok = _embed(dpsi.take_rows(0, fb + gb), fb, gb) == dpsi
        # quotient differential against the displayed formula
        quotient_ok = True
        if n >= 1:
            # the quotient after d_n, and dbar = that on the section h -> (0, 0, h)
            qd = d_n.take_rows(fb + gb, fb + 2 * gb) - d_n.take_rows(fb, fb + gb)
            dbar = qd.take_cols(fa + ga, fa + 2 * ga)
            # dbar after the quotient must equal the quotient after d_n
            quotient_ok = qd == hstack([Matrix.zeros(field, gb, fa), -dbar, dbar])
            display = _dbar_display_slice(sys, lam, n, cap)
            quotient_ok = quotient_ok and dbar == display
        degree_ok = injective and image_closed and chain_ok and quotient_ok
        ok = ok and degree_ok
        details.append(
            {
                "n": n,
                "injective": injective,
                "image_closed": image_closed,
                "chain_map": chain_ok,
                "quotient_matches_display": quotient_ok,
            }
        )
    return EmbeddingReport(ok, details)


def _embed(v, fa, ga):
    """(f, g) -> (f, g, g) on the columns of v; f has fa rows and g has ga."""
    return vstack([v, v.take_rows(fa, fa + ga)])
