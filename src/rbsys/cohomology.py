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
built once) and phi_n for a (system, bimodule) pair, builds each at most
once, and assembles the rbs slices from those blocks.  Every analysis here
and in the deformation and extension modules reads its slices from a single
Complexes per call; CochainComplex is a per-tag view over one.

Slices are assembled by index scatter.  Every term of the Hochschild
differential is I_p (x) X (x) I_q for a small X (the stacked left action,
mu^T, or one right-action slice, whose rows go to stride d and offset j),
and so are the identity terms I_m (x) (R^(x)n)^T and I_m (x) (S^(x)n)^T
of phi.  Matrix.identity_kron_sum adds the nonzero entries of each term
into one integer array through index arrays, one signed add per term; no
Kronecker product by an identity is formed.  The rest of phi is one
Kronecker product, [[R_M], [S_M]] (x) T^T, the base of that sum.

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

import os

from .algebra import (
    Algebra,
    BimoduleActions,
    matrix_tensor,
    multimap_from_vector,
    multimap_vector,
)
from .bimodules import _d_module_unchecked, regular_bimodule
from .linalg import Matrix, column_space_rank, hstack, kron_all, vstack
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
    return int(env) if env else DEFAULT_DIM_CAP


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


def hochschild_slice(alg, actions, n, cap=None):
    """Degree-n differential of the Hochschild complex of (alg, actions)."""
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
    return Matrix.identity_kron_sum(field, (m * d ** (n + 1), m * d**n), terms)


def delta(n, alg, actions, cap=None):
    """Hochschild differential of A with coefficients in M, as a slice."""
    return ComplexSlice(ALG, n, hochschild_slice(alg, actions, n, cap))


def partial(n, sys, mod, cap=None):
    """Differential of the operator complex: Hochschild of (A_*, D(M))."""
    return ComplexSlice(RBSO, n, Complexes(sys, mod, cap).partial(n))


def phi(n, sys, mod, cap=None):
    """The comparison map from the algebra complex into the operator complex.

    phi(f) = (f o R^(x)n - R_M o T(f), f o S^(x)n - S_M o T(f)) where T(f)
    is the sum of f o (R^(x)(i-1) (x) Id (x) S^(x)(n-i)).  Degree 0 is the
    diagonal embedding.
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    field, d, m = sys.field, sys.dim, mod.dim
    _guard(2 * m * d**n, cap)
    R, S, RM, SM = sys.R, sys.S, mod.RM, mod.SM
    t = Matrix.zeros(field, d**n, d**n)
    for i in range(1, n + 1):
        t = t + kron_all(
            field, [R] * (i - 1) + [Matrix.identity(field, d)] + [S] * (n - i)
        )
    # [[I_m (x) (R^(x)n)^T], [I_m (x) (S^(x)n)^T]] - [[R_M], [S_M]] (x) T^T
    half = m * d**n
    terms = [
        (kron_all(field, [R] * n).transpose(), m, 1, 1, 1, 0),
        (kron_all(field, [S] * n).transpose(), m, 1, 1, 1, half),
    ]
    dense = vstack([RM, SM]).kron(-t.transpose())
    return Matrix.identity_kron_sum(field, (2 * half, half), terms, base=dense)


def rbs_dim(n, d, m):
    """Dimension of the degree-n space of the total complex."""
    if n == 0:
        return m
    return m * d**n + 2 * m * d ** (n - 1)


def rbs_d(n, sys, mod, cap=None):
    """Degree-n differential of the total complex.

    Block form [[delta, 0], [-phi, -partial]]; degree 0 maps f to
    (delta f, -phi f).
    """
    return ComplexSlice(RBS, n, Complexes(sys, mod, cap).rbs(n))


class Complexes:
    """The differentials of all three complexes of one (system, bimodule) pair.

    delta_n, partial_n and phi_n are each built at most once, through the
    module-level hochschild_slice and phi, and the rbs slices are assembled
    from them.  A block is stored on its own until the rbs slice holding it
    is assembled; after that it is cut back out of that slice when asked
    for, so no block is stored twice.  Memoised for the life of the object
    only: an analysis makes one per call.
    """

    def __init__(self, sys, mod, cap=None):
        self.sys = sys
        self.mod = mod
        self.cap = cap
        self._built = {}
        self._dm = None

    def dim(self, tag, n):
        d, m = self.sys.dim, self.mod.dim
        if n < 0:
            return 0
        if tag == ALG:
            return m * d**n
        if tag == RBSO:
            return 2 * m * d**n
        return rbs_dim(n, d, m)

    def delta(self, n):
        return self._block(
            (ALG, n), n, lambda: hochschild_slice(self.sys.alg, self.mod.actions, n, self.cap)
        )

    def phi(self, n):
        return self._block(("phi", n), n, lambda: phi(n, self.sys, self.mod, self.cap))

    def partial(self, n):
        if self._dm is None:
            self._dm = _d_module_unchecked(self.mod)
        dm = self._dm
        return self._block(
            (RBSO, n), n + 1, lambda: hochschild_slice(dm.star, dm.actions, n, self.cap)
        )

    def _block(self, key, degree, build):
        if key not in self._built:
            whole = self._built.get((RBS, degree))
            self._built[key] = build() if whole is None else self._cut(whole, key[0], degree)
        return self._built[key]

    def _cut(self, whole, kind, n):
        # rbs_n = [[delta_n, 0], [-phi_n, -partial_(n-1)]]
        top, left = self.dim(ALG, n + 1), self.dim(ALG, n)
        if kind == ALG:
            return whole.take(0, top, 0, left)
        if kind == RBSO:
            return -whole.take(top, None, left, None)
        return -whole.take(top, None, 0, left)

    def rbs(self, n):
        if (RBS, n) not in self._built:
            if n < 0:
                raise ValueError("degree must be non-negative")
            _guard(rbs_dim(n + 1, self.sys.dim, self.mod.dim), self.cap)
            delta_n, phi_n = self.delta(n), self.phi(n)
            if n == 0:
                whole = vstack([delta_n, -phi_n])
            else:
                partial_prev = self.partial(n - 1)
                zero = Matrix.zeros(self.sys.field, delta_n.rows, partial_prev.cols)
                whole = vstack([hstack([delta_n, zero]), hstack([-phi_n, -partial_prev])])
            for key in ((ALG, n), ("phi", n), (RBSO, n - 1)):
                self._built.pop(key, None)
            self._built[RBS, n] = whole
        return self._built[RBS, n]

    def slice(self, tag, n):
        """The degree-n differential of the complex named by tag."""
        if tag == ALG:
            return self.delta(n)
        if tag == RBSO:
            return self.partial(n)
        return self.rbs(n)

    def is_cocycle(self, cochain):
        self._check(cochain)
        return (self.slice(cochain.tag, cochain.degree) @ cochain.vector).is_zero()

    def _check(self, cochain):
        if cochain.vector.rows != self.dim(cochain.tag, cochain.degree):
            raise ValueError("cochain coordinate length does not match its degree")


class CochainComplex:
    """One of the three complexes, as a view over a Complexes."""

    def __init__(self, tag, sys, mod, cap=None):
        if tag not in (ALG, RBSO, RBS):
            raise ValueError(f"unknown complex tag {tag!r}")
        self.tag = tag
        self.complexes = Complexes(sys, mod, cap)

    def dim(self, n):
        return self.complexes.dim(self.tag, n)

    def slice(self, n):
        return ComplexSlice(self.tag, n, self.complexes.slice(self.tag, n))

    def is_cocycle(self, cochain):
        self._check(cochain)
        return self.complexes.is_cocycle(cochain)

    def coboundary_preimage(self, cochain):
        """Some x with d(x) = cochain, or None; degree 0 has no source."""
        self._check(cochain)
        n = cochain.degree
        if n == 0:
            return None
        x = self.complexes.slice(self.tag, n - 1).solve(cochain.vector)
        return None if x is None else Cochain(self.tag, n - 1, x)

    def _check(self, cochain):
        if cochain.tag != self.tag:
            raise ValueError(f"cochain tag {cochain.tag!r} does not match complex {self.tag!r}")
        self.complexes._check(cochain)


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
    if tag not in (ALG, RBSO, RBS):
        raise ValueError(f"unknown complex tag {tag!r}")
    cx = Complexes(sys, mod, cap)
    rows = []
    prev_rank = 0
    for n in range(max_degree + 1):
        mat = cx.slice(tag, n)
        rank = mat.rank()
        kernel = mat.cols - rank
        rows.append(
            {
                "n": n,
                "dim": mat.cols,
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


def _preimage_in_span(w, b):
    """Basis (as columns) of { c : w @ c lies in the column span of b }."""
    if w.cols == 0:
        return Matrix.zeros(w.field, 0, 0)
    if b.cols == 0:
        return w.kernel_basis()
    stacked = hstack([w, -b])
    ker = stacked.kernel_basis()
    return ker.take_rows(0, w.cols)


class LesSlot:
    __slots__ = ("name", "degree", "image_dim", "kernel_dim", "ok")

    def __init__(self, name, degree, image_dim, kernel_dim, ok):
        self.name = name
        self.degree = degree
        self.image_dim = image_dim
        self.kernel_dim = kernel_dim
        self.ok = ok

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
    inclusion (x, y) -> (0, (x, y)).  Exactness at each slot is verified by
    comparing column spans of chain-level data.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    field = sys.field
    cx = Complexes(sys, mod, cap)
    kernels = {}

    def kernel(tag, p):
        if (tag, p) not in kernels:
            kernels[tag, p] = cx.slice(tag, p).kernel_basis()
        return kernels[tag, p]

    def image(tag, p):
        if p == 0:
            return Matrix.zeros(field, cx.dim(tag, 0), 0)
        return cx.slice(tag, p - 1)  # columns span the coboundaries

    def shifted(p):
        # the shift inclusion C^p_rbso -> C^(p+1)_rbs applied to the cocycles
        z = kernel(RBSO, p)
        return vstack([Matrix.zeros(field, cx.dim(ALG, p + 1), z.cols), z])

    def slot(name, p, incoming, z, outgoing_image, target_image):
        # exactness at one slot: image of the incoming map = kernel of the
        # outgoing one, both taken modulo the coboundaries of the slot;
        # outgoing_image holds the outgoing map applied to the cocycles z
        outgoing = _preimage_in_span(outgoing_image, target_image)
        im_dim = column_space_rank([incoming])
        ker_members = z @ outgoing if outgoing.cols else Matrix.zeros(field, z.rows, 0)
        ker_dim = column_space_rank([ker_members, image(name, p)])
        ok = im_dim == ker_dim and column_space_rank([incoming, ker_members, image(name, p)]) == ker_dim
        return LesSlot(name, p, im_dim, ker_dim, ok)

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
    return LesReport(slots)


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
    sys = from_rb_operator(alg, R, lam)[0]
    mod = regular_bimodule(sys)
    cx = Complexes(sys, mod, cap)
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
