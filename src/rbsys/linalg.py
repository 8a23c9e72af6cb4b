"""Exact scalars and dense matrices over the rationals or a prime field.

Everything downstream (structure tensors, differentials, cohomology ranks)
runs on these matrices.  Entries stay exact end to end: ints/Fractions over
Q, canonical residues in [0, p) over GF(p).  Floats are rejected outright,
since ranks and cohomology dimensions are discontinuous in the entries.

Matrices are immutable after construction and all operations are pure, so
values can be shared freely.  Elimination uses a fixed pivoting order and
reduced-echelon normalisation, which makes every derived object (kernel
bases, particular solutions, cocycle representatives) reproducible.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# primes at or above this bound use object arrays (no int64 overflow risk)
_INT64_PRIME_LIMIT = 1 << 15


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
        prod = self.a.dot(other.a)
        return Matrix._wrap(self.field, prod)

    def kron(self, other):
        self._same_field(other)
        return Matrix._wrap(self.field, np.kron(self.a, other.a))

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
    a = np.array(a, dtype=field.dtype)
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = field.inv(a[r, c] if field.p is None else int(a[r, c]))
        a[r] = a[r] * inv
        if field.p is not None:
            a[r] %= field.p
        fac = a[:, c].copy()
        fac[r] = 0
        a = a - np.outer(fac, a[r])
        if field.p is not None:
            a %= field.p
        pivots.append(c)
        r += 1
    return a, pivots


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
