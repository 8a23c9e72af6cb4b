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

The sign convention is fixed once: the degree-n Hochschild differential is

  delta(f)(a_1..a_{n+1}) = (-1)^(n+1) a_1 f(a_2..a_{n+1})
      + sum_i (-1)^(n-i+1) f(a_1.. a_i a_{i+1} ..a_{n+1}) + f(a_1..a_n) a_{n+1}

and every other matrix is assembled against it.  Cochain coordinates are
the row-major flattenings of the m x d^n matrices, pairs concatenated x
then y.
"""

from __future__ import annotations

import os

import numpy as np

from .algebra import multimap_from_vector, multimap_vector
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
    idm = Matrix.identity(field, m)
    idn = Matrix.identity(field, d**n)
    mu = alg.mult_matrix()

    total = Matrix.zeros(field, m * d ** (n + 1), m * d**n)
    # left action term, sign (-1)^(n+1)
    left = actions.stacked_left().kron(idn)
    total = total - left if n % 2 == 0 else total + left
    # inner multiplications, sign (-1)^(n-i+1)
    for i in range(1, n + 1):
        k = kron_all(
            field,
            [Matrix.identity(field, d ** (i - 1)), mu, Matrix.identity(field, d ** (n - i))],
        )
        term = idm.kron(k.transpose())
        total = total + term if (n - i) % 2 == 1 else total - term
    # right action term, sign +1
    for j, cj in enumerate(actions.right_slices()):
        ej = Matrix.unit_column(field, d, j)
        total = total + cj.kron(idn).kron(ej)
    return total


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
    idm = Matrix.identity(field, m)
    kr = kron_all(field, [R] * n)
    ks = kron_all(field, [S] * n)
    t = Matrix.zeros(field, d**n, d**n)
    for i in range(1, n + 1):
        t = t + kron_all(
            field, [R] * (i - 1) + [Matrix.identity(field, d)] + [S] * (n - i)
        )
    top = idm.kron(kr.transpose()) - RM.kron(t.transpose())
    bottom = idm.kron(ks.transpose()) - SM.kron(t.transpose())
    return vstack([top, bottom])


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
            return Matrix(whole.field, whole.a[:top, :left])
        if kind == RBSO:
            return -Matrix(whole.field, whole.a[top:, left:])
        return -Matrix(whole.field, whole.a[top:, :left])

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

    def proj(p):
        # C^p_rbs -> C^p_alg
        idp = Matrix.identity(field, cx.dim(ALG, p))
        return hstack([idp, Matrix.zeros(field, cx.dim(ALG, p), cx.dim(RBSO, p - 1))])

    def incl(p):
        # C^p_rbso -> C^(p+1)_rbs
        return vstack(
            [
                Matrix.zeros(field, cx.dim(ALG, p + 1), cx.dim(RBSO, p)),
                Matrix.identity(field, cx.dim(RBSO, p)),
            ]
        )

    kernels = {}

    def kernel(tag, p):
        if (tag, p) not in kernels:
            kernels[tag, p] = cx.slice(tag, p).kernel_basis()
        return kernels[tag, p]

    def image(tag, p):
        if p == 0:
            return Matrix.zeros(field, cx.dim(tag, 0), 0)
        return cx.slice(tag, p - 1)  # columns span the coboundaries

    def slot(name, p, incoming, outgoing_map, z, target_image):
        # exactness at one slot: image of the incoming map = kernel of the
        # outgoing one, both taken modulo the coboundaries of the slot
        outgoing = _preimage_in_span(outgoing_map @ z, target_image)
        im_dim = column_space_rank([incoming])
        ker_members = z @ outgoing if outgoing.cols else Matrix.zeros(field, z.rows, 0)
        ker_dim = column_space_rank([ker_members, image(name, p)])
        ok = im_dim == ker_dim and column_space_rank([incoming, ker_members, image(name, p)]) == ker_dim
        return LesSlot(name, p, im_dim, ker_dim, ok)

    slots = []
    for p in range(max_degree + 1):
        # slot H^p_rbs: image of the shift inclusion = kernel of the projection
        z_rbs = kernel(RBS, p)
        if p == 0:
            incoming = Matrix.zeros(field, cx.dim(RBS, 0), 0)
        else:
            incoming = hstack([incl(p - 1) @ kernel(RBSO, p - 1), image(RBS, p)])
        slots.append(slot(RBS, p, incoming, proj(p), z_rbs, image(ALG, p)))

        # slot H^p_alg: image of the projection = kernel of -phi into H^p_rbso
        z_alg = kernel(ALG, p)
        incoming = hstack([proj(p) @ z_rbs, image(ALG, p)])
        slots.append(slot(ALG, p, incoming, cx.phi(p), z_alg, image(RBSO, p)))

        # slot H^p_rbso: image of -phi = kernel of the shift inclusion
        if p <= max_degree - 1:
            incoming = hstack([cx.phi(p) @ z_alg, image(RBSO, p)])
            slots.append(slot(RBSO, p, incoming, incl(p), kernel(RBSO, p), image(RBS, p + 1)))
    return LesReport(slots)


# -- embedding of the weight-lambda operator complex ------------------------


def _dbar_display_slice(sys, lam, n, cap=None):
    """The displayed quotient differential Hom(A^(n-1), A) -> Hom(A^n, A).

    dbar(h)(a_1..a_n) = (-1)^(n-1) R(a_1) h(a_2..a_n)
        + sum_{i<n} (-1)^(n-i-1) h(.. R(a_i)a_{i+1} + a_i (R+lam)(a_{i+1}) ..)
        - h(a_1..a_{n-1}) (R+lam)(a_n)
    """
    field, d = sys.field, sys.dim
    _guard(d**n * d, cap)
    alg = sys.alg
    mu = alg.mult_matrix()
    R = sys.R
    Rlam = sys.R + Matrix.identity(field, d).scale(lam)
    idd = Matrix.identity(field, d)
    src = d ** (n - 1)
    total = Matrix.zeros(field, d * d**n, d * src)

    # left term: R(a_1) h(tail); stacked tensor B[(v, i), u] for b -> R(e_i) b
    stacked = np.zeros((d * d, d), dtype=field.dtype)
    for i in range(d):
        for u in range(d):
            for v in range(d):
                stacked[v * d + i, u] = field.coerce(
                    sum(R[k, i] * alg.constant(k, u, v) for k in range(d))
                )
    left = Matrix(field, stacked).kron(Matrix.identity(field, src))
    total = total + left if (n - 1) % 2 == 0 else total - left

    # middle terms with the twisted product W(a, b) = R(a) b + a (R+lam)(b)
    w = mu @ R.kron(idd) + mu @ idd.kron(Rlam)
    for i in range(1, n):
        k = kron_all(
            field,
            [Matrix.identity(field, d ** (i - 1)), w, Matrix.identity(field, d ** (n - 1 - i))],
        )
        term = idd.kron(k.transpose())
        total = total + term if (n - i - 1) % 2 == 0 else total - term

    # right term: -h(front) (R+lam)(a_n)
    for j in range(d):
        cj = np.zeros((d, d), dtype=field.dtype)
        for u in range(d):
            for v in range(d):
                cj[v, u] = field.coerce(
                    sum(Rlam[k, j] * alg.constant(u, k, v) for k in range(d))
                )
        ej = Matrix.unit_column(field, d, j)
        total = total - Matrix(field, cj).kron(Matrix.identity(field, src)).kron(ej)
    return total


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
    for entry.
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
        # psi at degree n and n + 1
        psi_n = _psi_matrix(field, d, m, n)
        psi_next = _psi_matrix(field, d, m, n + 1)
        dpsi = d_n @ psi_n
        fa = m * d ** (n + 1)
        xa = m * d**n
        image_closed = dpsi.take_rows(fa, fa + xa) == dpsi.take_rows(fa + xa, fa + 2 * xa)
        injective = psi_n.rank() == psi_n.cols
        # chain map property for the induced differential
        chain_ok = True
        if image_closed:
            induced = psi_next.solve(dpsi)
            chain_ok = induced is not None and (psi_next @ induced) == dpsi
        # quotient differential against the displayed formula
        quotient_ok = True
        if n >= 1:
            q_n = _quotient_matrix(field, d, m, n)
            q_next = _quotient_matrix(field, d, m, n + 1)
            section = _quotient_section(field, d, m, n)
            dbar = q_next @ d_n @ section
            quotient_ok = (dbar @ q_n) == (q_next @ d_n)
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


def _psi_matrix(field, d, m, n):
    """(f, g) -> (f, (g, g)) in coordinates; degree 0 is the identity."""
    if n == 0:
        return Matrix.identity(field, m)
    fa = m * d**n
    ga = m * d ** (n - 1)
    idf = Matrix.identity(field, fa)
    idg = Matrix.identity(field, ga)
    top = hstack([idf, Matrix.zeros(field, fa, ga)])
    mid = hstack([Matrix.zeros(field, ga, fa), idg])
    return vstack([top, mid, mid])


def _quotient_matrix(field, d, m, n):
    """(f, x, y) -> y - x; zero map in degree 0."""
    if n == 0:
        return Matrix.zeros(field, 0, m)
    fa = m * d**n
    xa = m * d ** (n - 1)
    idx = Matrix.identity(field, xa)
    return hstack([Matrix.zeros(field, xa, fa), -idx, idx])


def _quotient_section(field, d, m, n):
    """h -> (0, (0, h)), a right inverse of the quotient map."""
    fa = m * d**n
    xa = m * d ** (n - 1)
    return vstack(
        [Matrix.zeros(field, fa, xa), Matrix.zeros(field, xa, xa), Matrix.identity(field, xa)]
    )
