"""Exact scalars and dense matrices over the rationals or a prime field.

Everything downstream (structure tensors, differentials, cohomology ranks)
runs on these matrices.  Entries stay exact end to end: ints/Fractions over
Q, canonical residues in [0, p) over GF(p).  Floats are rejected outright,
since ranks and cohomology dimensions are discontinuous in the entries.

Matrices are immutable after construction and all operations are pure, so
values can be shared freely.  Elimination uses a fixed pivoting order and
reduced-echelon normalisation, which makes every derived object (kernel
bases, particular solutions, cocycle representatives) reproducible.

One kernel, ``_rref_array``, does every elimination (rref, rank,
kernel_basis, solve, inverse), on one of two paths:

* GF(p): Gauss-Jordan elimination mod p.  For p < 2^31 it runs in int64,
  which is exact because a product of two residues stays below 2^62; larger
  primes run the same code on Python ints.
* Q: elimination modulo primes, then an exact certificate.  Scaling each
  row by its common denominator gives an integer matrix B with the same
  RREF.  B is reduced modulo primes below 2^31, largest first; the primes
  of the highest rank r and, at that rank, of the lexicographically first
  pivot list P are kept, combined by CRT, and the entries rationally
  reconstructed (Wang, Guy and Davenport) into a candidate R with a common
  denominator L.  R is returned only if B L = B[:, P] (L R) holds exactly.
  Proof sketch: that identity puts every row of B in the row space of R,
  so rank_Q B <= r; a kept prime has rank_p B = r, and no prime raises
  the rank, so rank_Q B = r and row(B) = row(R).  R is in reduced echelon
  form, and the RREF of a row space is unique, so R is the RREF.  A failed
  reconstruction or check adds a prime.  This ends: a prime whose rank or
  pivots differ from those over Q divides a nonzero minor of B, so there
  are finitely many such primes, and once the product of the kept primes is
  large enough the reconstruction is the RREF.  Over Q the result is a
  Fraction array, as from elimination in Fractions (a zero matrix is
  returned as given).

Products over Q (``@`` and ``kron``) do no Fraction arithmetic.  The rows
of the left factor and the columns of the right one are scaled to integers
by ``_integer_rows``, the helper the RREF uses; the integer product runs in
int64 when max|x| max|y| k < 2^62 (each maximum taken as at least 1) bounds
every sum of k entry products, and over Python ints otherwise; only the
nonzero results become Fractions again.  Factors that hold only Python ints
are multiplied as they are.  Prime fields multiply their stored arrays and
reduce mod p.  Every ``kron`` is one outer product of the two arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# Matrix stores int64 only below this prime: a product sums a whole row of
# entry products, which must stay below 2^63.  Elimination works entry by
# entry and runs in int64 for every prime below _ELIM_PRIME_LIMIT.
_INT64_PRIME_LIMIT = 1 << 15
_ELIM_PRIME_LIMIT = 1 << 31
# Up to this many entries, per-call numpy overhead dominates elimination
# mod p, and updating the whole array beats updating only the rows that
# change; timed crossover (int64, GF(5)): between 256 and 900 entries.
_WHOLE_UPDATE_SIZE = 256


# Miller-Rabin on the primes up to 41 is deterministic below this bound
# (Sorenson and Webster, 2015); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    if not isinstance(n, int) or n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large (limit {_MR_LIMIT})")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (p is None) or the integers modulo a prime p."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @property
    def is_prime_field(self):
        return self.p is not None

    @property
    def dtype(self):
        if self.p is not None and self.p < _INT64_PRIME_LIMIT:
            return np.int64
        return object

    def coerce(self, x):
        """Bring a scalar into canonical form.  Floats and booleans are refused."""
        if isinstance(x, (float, complex, np.floating)):
            raise TypeError("floating-point values are not allowed in exact arithmetic")
        if isinstance(x, (bool, np.bool_)):
            raise TypeError(f"boolean {x!r} is not a scalar")
        if self.p is None:
            if isinstance(x, (int, np.integer)):
                return int(x)
            if isinstance(x, Fraction):
                return x
            if isinstance(x, str):
                try:
                    return Fraction(x)
                except ZeroDivisionError:
                    raise ValueError(f"{x!r} has a zero denominator") from None
            raise TypeError(f"cannot interpret {x!r} as a rational")
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, (int, np.integer)):
            return int(x) % self.p
        raise TypeError(f"cannot interpret {x!r} as an element of GF({self.p})")

    def inv(self, x):
        if self.p is None:
            if x == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1, 1) / x
        return pow(int(x), self.p - 2, self.p)

    def neg(self, x):
        if self.p is None:
            return -x
        return (-int(x)) % self.p

    def scalar_token(self, x):
        """JSON-friendly form: int, or 'a/b' for a non-integral rational."""
        if self.p is not None:
            return int(x)
        if isinstance(x, Fraction) and x.denominator != 1:
            return f"{x.numerator}/{x.denominator}"
        return int(x)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field(None)

_GF_CACHE = {}


def GF(p):
    """The prime field with p elements (cached)."""
    if p not in _GF_CACHE:
        _GF_CACHE[p] = Field(p)
    return _GF_CACHE[p]


def _freeze(a):
    a.setflags(write=False)
    return a


class Matrix:
    """Immutable dense matrix over a Field, stored row-major."""

    __slots__ = ("field", "a", "_rref")

    def __init__(self, field, array):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", _freeze(array))
        object.__setattr__(self, "_rref", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _wrap(cls, field, array):
        if field.p is not None:
            array = array % field.p
        return cls(field, array)

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, np.zeros((rows, cols), dtype=field.dtype))

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=field.dtype))

    @classmethod
    def from_rows(cls, field, rows):
        rows = list(rows)
        ncols = len(rows[0]) if rows else 0
        a = np.empty((len(rows), ncols), dtype=field.dtype)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, x in enumerate(row):
                a[i, j] = field.coerce(x)
        return cls(field, a)

    @classmethod
    def column(cls, field, entries):
        return cls.from_rows(field, [[x] for x in entries])

    @classmethod
    def unit_column(cls, field, n, k):
        a = np.zeros((n, 1), dtype=field.dtype)
        a[k, 0] = 1
        return cls(field, a)

    # -- shape / access ------------------------------------------------

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    @property
    def shape(self):
        return self.a.shape

    def __getitem__(self, ij):
        i, j = ij
        x = self.a[i, j]
        return int(x) if isinstance(x, np.integer) else x

    def entries(self):
        """All entries as Python scalars, row-major nested lists."""
        return [[self[i, j] for j in range(self.cols)] for i in range(self.rows)]

    def col(self, j):
        return Matrix(self.field, self.a[:, j : j + 1].copy())

    def take_rows(self, start, stop):
        return Matrix(self.field, self.a[start:stop, :].copy())

    def take_cols(self, start, stop):
        return Matrix(self.field, self.a[:, start:stop].copy())

    # -- arithmetic ----------------------------------------------------

    def _same_field(self, other):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other):
        self._same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix._wrap(self.field, self.a + other.a)

    def __sub__(self, other):
        self._same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Matrix._wrap(self.field, self.a - other.a)

    def __neg__(self):
        return Matrix._wrap(self.field, -self.a)

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix._wrap(self.field, self.a * c)

    def __matmul__(self, other):
        self._same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        if self.field.p is None:
            return Matrix(self.field, _rational_dot(self.a, other.a))
        return Matrix._wrap(self.field, self.a.dot(other.a))

    def kron(self, other):
        self._same_field(other)
        if self.field.p is None:
            return Matrix(self.field, _rational_kron(self.a, other.a))
        return Matrix._wrap(self.field, _kron(self.a, other.a))

    def transpose(self):
        return Matrix(self.field, self.a.T.copy())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def is_zero(self):
        return not np.any(self.a)

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form and the tuple of pivot columns."""
        if self._rref is None:
            r, piv = _rref_array(self.a, self.field)
            object.__setattr__(self, "_rref", (Matrix(self.field, r), tuple(piv)))
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Columns form the canonical basis of the null space."""
        r, piv = self.rref()
        pivots = set(piv)
        free = [c for c in range(self.cols) if c not in pivots]
        basis = np.zeros((self.cols, len(free)), dtype=self.field.dtype)
        basis[free, range(len(free))] = 1
        neg = -r.a[: len(piv), free]
        basis[list(piv)] = neg if self.field.p is None else neg % self.field.p
        return Matrix(self.field, basis)

    def solve(self, b):
        """Particular solution x of self @ x = b, or None if inconsistent.

        b may have several columns; all are solved simultaneously.  Free
        variables are set to zero, so the result is the echelon solution.
        """
        self._same_field(b)
        if b.rows != self.rows:
            raise ValueError(f"rhs has {b.rows} rows, expected {self.rows}")
        aug = np.concatenate([self.a, b.a], axis=1)
        r, piv = _rref_array(aug, self.field)
        if any(pc >= self.cols for pc in piv):
            return None
        x = np.zeros((self.cols, b.cols), dtype=self.field.dtype)
        x[piv] = r[: len(piv), self.cols :]
        return Matrix(self.field, x)

    def inverse(self):
        """Inverse of a square matrix, or None if singular."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        return self.solve(Matrix.identity(self.field, self.rows))


def _rref_array(a, field):
    """Reduced row echelon form of array a over field, and the pivot columns."""
    p = field.p
    if p is None:
        return _rref_rational(a)
    if p < _ELIM_PRIME_LIMIT:
        r, pivots = _rref_mod(a.astype(np.int64), p)
        return r.astype(field.dtype, copy=False), pivots
    return _rref_mod(a.copy(), p)


def _rref_mod(a, p):
    """RREF over GF(p) of a (entries in [0, p)), and the pivot columns.

    a is int64 for p < 2^31, where every product of two residues stays
    below 2^62, and holds Python ints otherwise; it is used as scratch, so
    the result is the returned array.  On a matrix of more than
    _WHOLE_UPDATE_SIZE entries a pivot step touches only the rows with a
    nonzero entry in the pivot column, and only the columns from the pivot
    on (the pivot row is zero left of it); on a smaller one it updates the
    whole array, which there costs less than gathering and scattering rows.
    """
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
        # one update scales the pivot row and clears column c in the other
        # rows: the pivot row's own factor is its pivot minus one
        inv = pow(int(col[r]), -1, p)
        if a.size <= _WHOLE_UPDATE_SIZE:
            fac = col.copy()
            fac[r] -= 1
            a = (a - np.multiply.outer(fac, a[r] * inv % p)) % p
        else:
            # the nonzero rows of column c: k rows above r, then r and below
            rows = col.nonzero()[0]
            k = len(rows) - len(below)
            fac = col[rows]
            fac[k] -= 1
            row = a[r, c:] * inv % p
            a[rows, c:] = (a[rows, c:] - fac[:, None] * row) % p
        pivots.append(c)
        r += 1
    return a, pivots


_ZERO, _ONE = Fraction(0), Fraction(1)


@functools.cache
def _prime(i):
    """The i-th prime below _ELIM_PRIME_LIMIT, counting down from the largest."""
    q = _ELIM_PRIME_LIMIT - 1 if i == 0 else _prime(i - 1) - 2
    while not _is_prime(q):
        q -= 2
    return q


def _rref_rational(a):
    """RREF over Q by elimination modulo primes, certified exactly.

    Each row of a is scaled to integers (same RREF).  Among the primes
    tried, those of the highest rank and, at that rank, of the
    lexicographically first pivot list are kept; their RREFs are combined
    by CRT and the entries right of the pivots rationally reconstructed.
    A candidate is returned only once it passes the exact check of
    _certified; otherwise one more prime is tried.
    """
    b, _, _ = _integer_rows(a)
    bmax = _max_abs(b)
    b = np.array(b, dtype=_dtype_for(bmax)).reshape(a.shape)
    if bmax == 0:
        return a.copy(), []
    best = None
    for p in map(_prime, itertools.count()):
        rp, pivots = _rref_mod((b % p).astype(np.int64, copy=False), p)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, modulus = key, p
            taken = set(pivots)
            free = np.array([c for c in range(b.shape[1]) if c not in taken], dtype=np.int64)
            x = rp[: len(pivots), free].ravel().tolist()
        elif key == best:
            # CRT: the residue mod modulus * p that is x mod modulus and rp mod p
            inv = pow(modulus, -1, p)
            y = rp[: len(pivots), free].ravel().tolist()
            x = [u + modulus * ((v - u) * inv % p) for u, v in zip(x, y)]
            modulus *= p
        else:
            continue
        candidate = _reconstruct(x, modulus)
        if candidate is None:
            continue
        num, den = candidate
        nmax = max(map(abs, num), default=0)
        block = np.array(num, dtype=_dtype_for(nmax)).reshape(len(pivots), free.size)
        if _certified(b, bmax * (den + len(pivots) * nmax), pivots, free, block, den):
            break
    r = np.full(a.shape, _ZERO, dtype=object)
    r[range(len(pivots)), pivots] = _ONE
    r[: len(pivots), free] = np.array(
        [Fraction(v, den) if v else _ZERO for v in num], dtype=object
    ).reshape(block.shape)
    return r, pivots


def _dtype_for(bound):
    return np.int64 if bound < 1 << 62 else object


def _integer_rows(a):
    """The entries of a as a flat list, row by row, with every row times
    the lcm of its denominators; the row lcms; and whether every entry of
    a is a Python int."""
    flat = a.ravel().tolist()
    ints = all(type(x) is int for x in flat)
    if ints:
        nums, lcms = flat, [1] * a.shape[0]
    else:
        k = a.shape[1]
        dens = [x.denominator for x in flat]
        lcms = [math.lcm(*dens[i : i + k]) for i in range(0, len(dens), k)]
        nums = [
            x.numerator * (lcms[i // k] // u)
            for i, (x, u) in enumerate(zip(flat, dens))
        ]
    return nums, lcms, ints


def _max_abs(nums):
    """max |x| over a list of ints, 0 for an empty list."""
    return max(max(nums), -min(nums)) if nums else 0


def _rational_dot(a, b):
    """a @ b over Q, from the rows of a and the columns of b scaled to integers.

    The integer product runs in int64 when max|x| max|y| k < 2^62, which
    bounds every sum of k entry products, and over Python ints otherwise.
    Each of the three factors of the bound is taken as at least 1, so a
    zero factor or k = 0 cannot let an unbounded other factor into int64.
    Two factors of Python ints are multiplied as they are: that is exact
    already, and on the small products where it occurs it costs less than
    converting to int64 and back.
    """
    x, rden, xints = _integer_rows(a)
    y, cden, yints = _integer_rows(b.T)
    if xints and yints:
        return a.dot(b)
    bound = max(_max_abs(x), 1) * max(_max_abs(y), 1) * max(a.shape[1], 1)
    dtype = _dtype_for(bound)
    x = np.array(x, dtype=dtype).reshape(a.shape)
    y = np.array(y, dtype=dtype).reshape(b.shape[::-1])
    return _over(x.dot(y.T), rden, cden)


def _rational_kron(a, b):
    """The Kronecker product over Q, from the rows of a and b scaled to
    integers; in int64 when max|x| max|y| < 2^62 (each at least 1)."""
    x, xden, xints = _integer_rows(a)
    y, yden, yints = _integer_rows(b)
    if xints and yints:
        return _kron(a, b)
    dtype = _dtype_for(max(_max_abs(x), 1) * max(_max_abs(y), 1))
    x = np.array(x, dtype=dtype).reshape(a.shape)
    y = np.array(y, dtype=dtype).reshape(b.shape)
    c = _kron(x, y)
    return _over(c, [u * v for u in xden for v in yden], [1] * c.shape[1])


def _kron(x, y):
    """np.kron(x, y) of two matrices, as one outer product."""
    c = np.multiply.outer(x, y).transpose(0, 2, 1, 3)
    return c.reshape(x.shape[0] * y.shape[0], x.shape[1] * y.shape[1])


def _over(c, rden, cden):
    """The Q array of c[i, j] / (rden[i] cden[j]) for an integer array c.

    Zeros are the int 0.  When every denominator is 1 the entries are the
    Python ints of c; otherwise each nonzero entry becomes a Fraction.
    """
    out = c.astype(object)
    if max(rden, default=1) > 1 or max(cden, default=1) > 1:
        i, j = c.nonzero()
        out[i, j] = [
            Fraction(v, rden[r] * cden[s])
            for v, r, s in zip(c[i, j].tolist(), i.tolist(), j.tolist())
        ]
    return out


def _reconstruct(x, m):
    """Integers n and L with n/L = x mod m, |n|, L <= sqrt(m/2); or None.

    L is a common denominator, grown from the first entry that needs more.
    Rationals this small are unique when they exist (Wang, Guy and
    Davenport), so the candidate is the RREF once m is large enough.
    """
    bound, half = math.isqrt(m // 2), m // 2
    den = 1
    while True:
        num = [v * den % m for v in x] if den > 1 else x
        num = [v - m if v > half else v for v in num]
        over = next((i for i, v in enumerate(num) if abs(v) > bound), None)
        if over is None:
            return num, den
        grown = _wang_denominator(x[over], m, bound)
        if grown is None:
            return None
        grown = math.lcm(den, grown)
        if grown == den or grown > bound:
            return None
        den = grown


def _wang_denominator(u, m, bound):
    """Denominator of the rational n/d = u mod m with |n|, d <= bound, or None."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return abs(t1)


def _certified(b, h, pivots, free, num, den):
    """Whether b[:, free] den == b[:, pivots] num holds over the integers.

    num is den times the candidate RREF on the free columns, and h bounds
    both sides in absolute value: the identity is tested in int64 when
    h < 2^62, and over Python ints otherwise.
    """
    if h >= 1 << 62:
        b, num = b.astype(object), num.astype(object)
    return bool((b[:, free] * den == b[:, pivots] @ num).all())


def hstack(mats):
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise ValueError("field mismatch in hstack")
    return Matrix(field, np.concatenate([m.a for m in mats], axis=1))


def vstack(mats):
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise ValueError("field mismatch in vstack")
    return Matrix(field, np.concatenate([m.a for m in mats], axis=0))


def block_diag(mats):
    field = mats[0].field
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    a = np.zeros((rows, cols), dtype=field.dtype)
    r = c = 0
    for m in mats:
        a[r : r + m.rows, c : c + m.cols] = m.a
        r += m.rows
        c += m.cols
    return Matrix(field, a)


def kron_all(field, mats, empty_dim=1):
    """Kronecker product of a list of matrices; empty list gives identity."""
    if not mats:
        return Matrix.identity(field, empty_dim)
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return out


def column_space_rank(mats):
    """Rank of the span of the columns of all given matrices together."""
    nonempty = [m for m in mats if m.cols > 0]
    if not nonempty:
        return 0
    return hstack(nonempty).rank()
