"""Exact scalars and dense matrices over the rationals or a prime field.

Everything downstream (structure tensors, differentials, cohomology ranks)
runs on these matrices.  Entries stay exact end to end: ints/Fractions over
Q, canonical residues in [0, p) over GF(p).  Floats are rejected outright,
since ranks and cohomology dimensions are discontinuous in the entries.

Matrices are immutable after construction and all operations are pure, so
values can be shared freely.  Elimination uses a fixed pivoting order and
reduced-echelon normalisation, which makes every derived object (kernel
bases, particular solutions, cocycle representatives) reproducible.

Storage is integer arrays, and only this module reads it.  Over GF(p) a
matrix stores its residues, in int64 for every p < 2^31 and as Python ints
above.  Over Q it stores one integer numerator array and one positive
denominator in canonical form: the gcd of the denominator and all the
numerators is 1, so equal matrices store equal arrays.  The numerators are
int64 while every |n| < 2^62 and Python ints otherwise.  Over Q,
``Matrix.a`` is a view of the entries for the readers outside this module,
built on first use and kept: an int for each integral entry and a Fraction
for each other one.  A matrix built from Python scalars keeps them as that
view, and every entry of an RREF's view is a Fraction.

Arithmetic is integer array arithmetic and builds no Fraction.  Over Q a
sum brings both numerator arrays to the lcm of the denominators, and a
product (``@``, ``times``, ``kron``) multiplies numerators and
denominators; the result is brought back to canonical form.  Sums and
``kron`` run in int64 when a bound on every result is below 2^62, and over
Python ints otherwise.  Every ``kron`` is one outer product of the two
arrays.  A product by I_p (x) x (x) I_q, the form of every structure
identity (mu (mu (x) Id) = mu (Id (x) mu), the operator and bimodule
equations, the square-zero extension), is ``times``: one product by x of
the matrix with its columns regrouped, with no identity and no Kronecker
product formed; ``@`` is its case p = q = 1.

Every exact integer product, over Q, mod p and in the certificate below,
is one ``_dot`` of a bound on every partial sum, and one rule picks its
arithmetic: float64 BLAS when the bound is below 2^53, where every partial
sum, in whatever order BLAS adds, is an integer exact in float64, and the
product is large enough to pay for the conversions (_FLOAT_RATIO); else
int64 when the bound is below 2^63, and Python ints above.  No entry is
ever a float; float64 holds only these exact integers inside a product
(numpy's int64 product is no BLAS call, and 40x slower at 2187 x 729 x
378).  For ``@`` and ``times`` over Q with inner dimension k the bound is
max|x| max|y| k over the numerators, each of the three factors taken as
at least 1, from the bounds that the matrices carry or, where those reach
2^62, from the measured maxima.  Over GF(p) it is k (p - 1)^2, as residues are
non-negative: one ``_dot`` when that is below 2^63, else one per run of
floor((2^63 - 1) / (p - 1)^2) inner terms, each reduced mod p; this is the
delayed reduction of Dumas, Giorgi and Pernet (FFLAS-FFPACK), exact for
every p < 2^31, and residues past 2^31 take one product on Python ints.
An int64 array of at least _FLOOR_DIVIDE_SIZE entries is reduced mod p by
floor division, x - (x // p) p, which numpy runs without a hardware
division per entry (see ``_mod``): product results, slices assembled over
GF(p), the periodic and final reductions of elimination, and the matrix
reduced mod each prime over Q.

Every rational reconstruction is one ``_lift`` (Wang, Guy and Davenport):
each column of a residue array mod m lifts with a denominator of its own,
in int64 for m < 2^31 and on Python ints for a product of primes.
``lift_columns`` lifts the columns of a matrix over GF(p), and the
multimodular RREF below lifts its free entries as one column.

One kernel, ``_rref_array``, does every elimination (rref, rank,
kernel_basis, solve, inverse), and gives one result on every path: the
pivot columns P and the RREF's free block, the RREF on the free columns F
(one row per pivot, over one denominator over Q), in an array of its own;
the RREF is the identity on P.  It only reads the stored integer array.
``rref`` rebuilds the RREF from the block, ``solve`` reads its solution off
the block's last columns, and ``_kernel``, the one builder of a canonical
kernel basis, puts the identity on F and minus the block on P.
``rref_rows`` feeds the kernel a matrix by the ranges of ``row_blocks``:
whole over Q and below _STREAM_SIZE entries, else as a stream of row
blocks, of which elimination holds one at a time with its echelon form,
kept transposed, so that a tall slice is never held whole, and whose block
is read off that form without gathering the RREF.  Either way it keeps the
block until the kernel basis is first read, and forms none for a reader of
the pivots alone.  It runs on one of three paths:

* GF(2): each row is packed into one Python int, bit j for column j, one
  block of rows at a time, so that one XOR adds two rows, and the rows are
  inserted one at a time into a reduced echelon form (see ``_rref_gf2``).
  No numpy call is made per pivot.  Against the next path on a 2-vCPU
  Xeon: 3-4x faster over the GF(2) eliminations of one document set of
  each benchmark workload that has them, 0.24 s -> 0.05 s on a 4096 x 1024
  slice of rank 816, 3.0 s -> 0.17 s on a dense random 1024 x 4096, and
  1.6x on a dense random 2048 x 1024.
* GF(p), p odd: elimination mod p, in int64 for p < 2^31 (a product of two
  residues stays below 2^62) and on Python ints above.  A matrix of fewer
  than two blocks of rows runs Gauss-Jordan elimination one pivot at a
  time.  A taller one is reduced block by block against the RREF of the
  rows before the block, with two products per block in place of one
  rank-one update per pivot and row (see ``_reduce_blocks``); the RREF of
  a row space is unique, so both give the same array.  The block height grows
  with the number of columns (``_block_rows``).  Gauss-Jordan on more than
  _WHOLE_UPDATE_SIZE entries delays its reductions too: a pivot step
  subtracts without reducing mod p and moves an entry by at most (p -
  1)^2, so only the pivot column and the pivot row are reduced, where
  they are read, and the rest after every floor((2^62 - p) / (p - 1)^2)
  steps and once at the end.  That is every step near 2^31, every 64
  steps at the primes of the Q path, and more than 2^32 steps apart below
  2^15.
* Q: two routes, chosen by the size of the numerator array B, which has
  the same RREF as the matrix.  B of at most _FRACTION_FREE_SIZE entries
  is eliminated by fraction-free Gauss-Jordan on Python ints (Bareiss),
  exact by construction and with no prime (see ``_fraction_free``): after
  k pivot steps every pivot is the k x k minor D of B on the pivot rows
  and columns, every other entry of a pivot row is D with one column
  exchanged (Cramer), and every entry of another row is a (k + 1) x (k + 1)
  minor of B; so each division by the previous pivot is exact, and the
  RREF is the pivot rows over the last pivot.  A larger B runs the
  multimodular route: elimination modulo primes, then an exact
  certificate.  B is reduced modulo primes below 2^28, largest first.
  There an int64 product of inner size k makes ceil(k/128) numpy calls
  and Gauss-Jordan reduces every 64 pivot steps, against k/2 calls and
  every step near 2^31, and one prime still reconstructs every |n|, L <=
  sqrt(p/2), about 2^13.5.  The primes of the highest rank r and, at that
  rank, of the lexicographically first pivot list P are kept, combined by
  CRT, and the entries lifted as one column into a candidate R with a
  common denominator L.  Its block is returned only if B L = B[:, P] (L R)
  holds exactly, checked by one ``_dot``.  Proof sketch: that identity
  puts every row of B in the row space of R, so rank_Q B <= r; a kept
  prime has rank_p B = r, and no prime raises the rank, so rank_Q B = r
  and row(B) = row(R).  R is in reduced echelon form, and the RREF of a
  row space is unique, so R is the RREF.  A failed reconstruction or check
  adds a prime.  This ends: a prime whose rank or pivots differ from those
  over Q divides a nonzero minor of B, so there are finitely many such
  primes, and once the product of the kept primes is large enough the
  reconstruction is the RREF.  The Hadamard bound on the minors bounds both,
  so the primes tried are bounded (``_prime_budget``), and a kernel that has
  not certified by then is at fault and raises AssertionError.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# The one int64 limit: below it a field stores int64 residues, and products
# of two residues stay below 2^62.
_INT64_PRIME_LIMIT = 1 << 31
# The multimodular RREF over Q takes its primes from below this limit, where
# delayed reduction pays (see _prime).
_Q_PRIME_LIMIT = 1 << 28
# Integer arrays over Q are int64 while every |entry| is below this bound,
# so that a sum of two of them cannot wrap.
_INT64_BOUND = 1 << 62
# An integer array over Q of at most this many entries is eliminated by
# fraction-free Gauss-Jordan on Python ints, a larger one modulo primes; the
# timings that set it are in _fraction_free.
_FRACTION_FREE_SIZE = 128
# Up to this many entries, per-call numpy overhead dominates elimination
# mod p, and updating the whole array beats updating only the rows that
# change; timed crossover (int64, GF(5)): between 256 and 900 entries.
_WHOLE_UPDATE_SIZE = 256
# Elimination mod p takes the rows in blocks of _block_rows(cols) rows (see
# _rref_mod and the rule there).  A matrix over GF(p) of at least this many
# entries (2 MiB of int64) is fed to it in such blocks as it is assembled
# (row_blocks), so it is never held whole; below it row_blocks gives one
# range, the whole matrix, as assembling it by blocks would cost more calls
# than it saves memory.
_STREAM_SIZE = 1 << 18
# An exact product (_dot) whose bound allows it runs in float64 BLAS when m
# k n >= _FLOAT_RATIO (m k + k n + m n): the multiply-adds outnumber the
# entries converted to and from float64 by that factor.  Timed on the same
# machine (GF(5), GF(40009)): above 3.5 float64 is 1.5-15x faster, below 1
# it is about 2x slower; 3 x 3 x 3 takes 2.0 us in int64 and 3.7 us in
# float64, 405 x 135 x 135 8.0 ms and 0.9 ms.
_FLOAT_RATIO = 4
# Every integer of magnitude below this bound is exact in float64.
_FLOAT_EXACT = 1 << 53
# An int64 array of at least this many entries is reduced mod p by floor
# division (see _mod), a smaller one by %.  Timed on every int64 array that
# one document set of each benchmark workload reduces (35,000 arrays; the
# same machine): below 64 entries % takes 1.2 us and floor division 3.1 us,
# at 512-767 entries they tie (4.2 us), at 2048-4095 floor division is 1.8x
# faster and above 16384 2.7x; the workloads' total is within 1 % of its
# least for any cut-over from 384 to 1024 entries.
_FLOOR_DIVIDE_SIZE = 512


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
        """The dtype of arrays of scalars: Python objects over Q."""
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


def _int_dtype(field):
    """The dtype of a new integer array of field: int64 over Q."""
    return np.int64 if field.p is None else field.dtype


class Matrix:
    """Immutable dense matrix over a Field, stored row-major.

    The entries are num / den: over GF(p) num holds the residues and den is
    1; over Q num and den are in canonical form (see the module docstring),
    and _mag bounds max |num|.
    """

    # _view: the Python scalars of ``a`` once built; before that None, or
    # Fraction for an RREF, every entry of whose view is a Fraction.
    # _float: None, or for a factor (see ``factor``) a list that keeps the
    # entries as float64 once a product has made them
    __slots__ = ("field", "num", "den", "_mag", "_view", "_rref", "_float")

    def __new__(cls, field, array):
        """The matrix of an array of scalars of field: Python ints and
        Fractions over Q (kept as the view ``a``), integers over GF(p)."""
        if field.p is not None:
            return _new(field, array if array.dtype == field.dtype else array.astype(field.dtype))
        nums, den = array.ravel().tolist(), 1
        if not set(map(type, nums)) <= {int}:
            den = math.lcm(*(x.denominator for x in nums))
            nums = [x.numerator * (den // x.denominator) for x in nums]
        mag = max(max(nums), -min(nums)) if nums else 0
        m = _new(field, np.array(nums, dtype=_dtype_for(mag)).reshape(array.shape), den, mag)
        if array.dtype == object:
            _SET_VIEW(m, _freeze(array))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return _new(field, np.zeros((rows, cols), dtype=_int_dtype(field)), 1, 0)

    @classmethod
    def identity(cls, field, n):
        return _new(field, np.eye(n, dtype=_int_dtype(field)), 1, min(n, 1))

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
    def rational(cls, nums, den, shape):
        """The matrix over Q of the integers nums, row-major in the given
        shape, over the positive denominator den; no Fraction is built."""
        mag = max(max(nums), -min(nums)) if nums else 0
        return _of(QQ, np.array(nums, dtype=_dtype_for(mag)).reshape(shape), den, mag)

    @classmethod
    def column(cls, field, entries):
        values = [field.coerce(x) for x in entries]
        a = np.empty((len(values), 1), dtype=field.dtype)
        a[:, 0] = values
        return cls(field, a)

    @classmethod
    def unit_column(cls, field, n, k):
        a = np.zeros((n, 1), dtype=_int_dtype(field))
        a[k, 0] = 1
        return _new(field, a, 1, 1)

    # -- shape / access ------------------------------------------------

    @property
    def rows(self):
        return self.num.shape[0]

    @property
    def cols(self):
        return self.num.shape[1]

    @property
    def shape(self):
        return self.num.shape

    @property
    def a(self):
        """The entries as an array: the residues over GF(p); over Q Python
        ints and Fractions, built on first use."""
        if self.field.p is not None:
            return self.num
        view = self._view
        if view is None or view is Fraction:
            view = _freeze(_rationals(self.num, self.den, view is Fraction))
            _SET_VIEW(self, view)
        return view

    def __getitem__(self, ij):
        i, j = ij
        x = self.a[i, j]
        return int(x) if isinstance(x, np.integer) else x

    def entries(self):
        """All entries as Python scalars, row-major nested lists."""
        return self.a.tolist()

    def take(self, r0, r1, c0, c1):
        """Rows r0:r1 and columns c0:c1, sharing storage with self."""
        num = self.num[r0:r1, c0:c1]
        if self.field.p is not None:
            return _new(self.field, num)
        return _of(self.field, num, self.den, self._mag)

    def col(self, j):
        return self.take(None, None, j, j + 1)

    def take_rows(self, start, stop):
        return self.take(start, stop, None, None)

    def take_cols(self, start, stop):
        return self.take(None, None, start, stop)

    def columns(self, index):
        """The columns at the indices in the list index, copied."""
        num = self.num[:, index]
        return _new(self.field, num) if self.field.p is not None else _of(self.field, num, self.den, self._mag)

    def rows_at(self, index):
        """The rows at the indices in the list index, copied."""
        return self.transpose().columns(index).transpose()

    def reshape(self, rows, cols):
        """The same entries, row-major, as a rows x cols matrix."""
        return _new(self.field, self.num.reshape(rows, cols), self.den, self._mag)

    # -- arithmetic ----------------------------------------------------

    @classmethod
    def identity_kron_sum(cls, field, shape, terms, base=None, rows=None):
        """base (zero if None) plus the terms sign (I_p (x) x (x) I_q), as
        one matrix of the given shape, or, with rows = (start, stop), only
        its rows start to stop - 1 (base then has that many rows).

        terms holds (x, p, q, sign, stride, offset): row r of the term's
        Kronecker product lands on row r stride + offset.  Its entry x[r, c]
        sits at row (i rows(x) + r) q + k and column (i cols(x) + c) q + k,
        for i < p and k < q.  Each of i, r, c and k moves these positions by
        a fixed number of bytes, so they are one strided view of the output
        of shape (p, rows(x), cols(x), q), built as an ndarray on the
        output's buffer at the byte offset of row offset (numpy checks that
        it fits the buffer; this costs a quarter of as_strided and works on
        object storage too), and the term is one broadcast add of x into it.
        The positions are distinct, so the view never overlaps itself.  A
        range of rows takes a run of the (i, r, k) grid, which splits into
        at most five such views (_boxes).  Over Q every term is brought to
        one denominator and the sum is taken in integers; over GF(p) the sum
        is reduced mod p in place.
        """
        start, stop = (0, shape[0]) if rows is None else rows
        den, bound, dtype = 1, None, field.dtype
        if field.p is None:
            mats = [x for x, *_ in terms] + ([] if base is None else [base])
            den = math.lcm(*(x.den for x in mats))
            bound = sum(max(x._mag, 1) * (den // x.den) for x in mats)
            dtype = _dtype_for(bound)
        if base is None:
            out = np.zeros((stop - start, shape[1]), dtype=dtype)
        else:
            out = base.num.astype(dtype)
            if base.den != den:
                out *= den // base.den
        row_step, col_step = out.strides
        for x, p, q, sign, stride, offset in terms:
            height, width = x.shape
            if p * width * q > shape[1] or (p * height * q - 1) * stride + offset >= shape[0]:
                raise ValueError(f"term I_{p} (x) {height}x{width} (x) I_{q} does not fit {shape}")
            vals = x.num
            if x.den != den:
                vals = vals.astype(dtype) * (den // x.den)
            r_step, c_step = q * stride * row_step, q * col_step
            strides = (height * r_step + width * c_step, r_step, c_step, stride * row_step + col_step)
            op = np.add if sign > 0 else np.subtract
            if rows is None:  # one view, without the cost of splitting a range
                view = np.ndarray(
                    (p, height, width, q), out.dtype, buffer=out, offset=offset * row_step, strides=strides
                )
                op(view, vals[None, :, :, None], out=view)
                continue
            # the term's rows t with start <= t stride + offset < stop
            first = max(-((offset - start) // stride), 0)
            last = min(-((offset - stop) // stride), p * height * q)
            for (i0, i1), (r0, r1), (k0, k1) in _boxes(first, last, (p, height, q)):
                row = ((i0 * height + r0) * q + k0) * stride + offset - start
                view = np.ndarray(
                    (i1 - i0, r1 - r0, width, k1 - k0),
                    out.dtype,
                    buffer=out,
                    offset=row * row_step + (i0 * width * q + k0) * col_step,
                    strides=strides,
                )
                op(view, vals[None, r0:r1, :, None], out=view)
        if field.p is not None:
            return _new(field, _mod(out, field.p, out=out))
        return _of(field, out, den, bound)

    def _same_field(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def _sum(self, other, op):
        self._same_field(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        x, y, den = self.num, other.num, self.den
        if self.field.p is not None:
            return _of(self.field, op(x, y))
        if other.den == den:
            # |x|, |y| < 2^62 when both are int64, so x + y cannot wrap
            bound = self._mag + other._mag
        else:
            den = math.lcm(self.den, other.den)
            u, v = den // self.den, den // other.den
            bound = max(self._mag, 1) * u + max(other._mag, 1) * v
            dtype = _dtype_for(bound)
            x, y = x.astype(dtype) * u, y.astype(dtype) * v
        return _of(self.field, op(x, y), den, bound)

    def __add__(self, other):
        return self._sum(other, np.add)

    def __sub__(self, other):
        return self._sum(other, np.subtract)

    def __neg__(self):
        if self.field.p is not None:
            return _of(self.field, -self.num)
        return _new(self.field, -self.num, self.den, self._mag)

    def scale(self, c):
        c = self.field.coerce(c)
        if self.field.p is not None:
            return _of(self.field, self.num * c)
        n, d = c.numerator, c.denominator
        bound = max(self._mag, 1) * max(abs(n), 1)
        num = self.num.astype(_dtype_for(bound), copy=False) * n
        return _of(self.field, num, self.den * d, bound)

    def times(self, x, p=1, q=1):
        """self @ (I_p (x) x (x) I_q), canonical, with no identity and no
        Kronecker product formed (see _times); ``@`` is times(x)."""
        return self._times(x, p, q)

    def __matmul__(self, other):
        return self._times(other, 1, 1)

    def _times(self, x, p, q):
        """The product of times and of ``@``, so that each product is one
        call of one of them: the columns (i, s, k) of self, i < p, s <
        rows(x), k < q, are regrouped into the rows (row, i, k) of one
        product by x, whose columns (i, t, k) are put back in place."""
        self._same_field(x)
        (r, cols), (a, b) = self.shape, x.shape
        if cols != p * a * q:
            raise ValueError(f"cannot multiply {self.shape} by I_{p} (x) {a}x{b} (x) I_{q}")
        y = self.num
        if q > 1:
            y = y.reshape(r * p, a, q).transpose(0, 2, 1)
        y = y.reshape(r * p * q, a)
        if self.field.p is not None:
            num = _dot_mod(y, x.num, self.field.p, x._float)
        else:
            # max|x| max|y| k bounds every sum of k entry products; each
            # factor is taken as at least 1, so a zero factor or k = 0
            # cannot let an unbounded other factor into int64.  The stored
            # bounds may be loose (a sum adds them), so past int64 the
            # factors are measured.
            k = max(a, 1)
            bound = max(self._mag, 1) * max(x._mag, 1) * k
            if bound >= _INT64_BOUND:
                bound = max(_mag(self.num), 1) * max(_mag(x.num), 1) * k
            num = _dot(y, x.num, bound)
        if q > 1:
            num = num.reshape(r * p, q, b).transpose(0, 2, 1)
        num = num.reshape(r, p * b * q)
        if self.field.p is not None:
            return _new(self.field, num)
        return _of(self.field, num, self.den * x.den, bound)

    def factor(self):
        """This matrix as the right factor of many products: a matrix of the
        same entries, sharing them, that over GF(p) keeps its entries as
        float64 from the first product by it that runs in float64 (see
        _dot_mod) for its own life, where any other matrix converts them
        again in each such product.  Every product equals the one by self."""
        m = _new(self.field, self.num, self.den, self._mag)
        _SET_FLOAT(m, [])
        return m

    def kron(self, other, rows=None):
        """self (x) other, or, with rows = (start, stop), only its rows
        start to stop - 1: row i rows(other) + j is self[i] (x) other[j]."""
        self._same_field(other)
        x, y, bound = self.num, other.num, None
        if self.field.p is None:
            bound = max(self._mag, 1) * max(other._mag, 1)
            dtype = _dtype_for(bound)
            x, y = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
        cols = x.shape[1] * y.shape[1]
        if rows is None:
            c = np.multiply.outer(x, y).transpose(0, 2, 1, 3).reshape(x.shape[0] * y.shape[0], cols)
        else:
            parts = [
                np.multiply.outer(x[i0:i1], y[j0:j1]).transpose(0, 2, 1, 3).reshape((i1 - i0) * (j1 - j0), cols)
                for (i0, i1), (j0, j1) in _boxes(*rows, (x.shape[0], y.shape[0]))
            ]
            c = np.concatenate(parts)
        return _of(self.field, c, self.den * other.den, bound)

    def transpose(self):
        return _new(self.field, self.num.T.copy(), self.den, self._mag)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.shape == other.shape
            and self.den == other.den
            and bool(np.array_equal(self.num, other.num))
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def is_zero(self):
        return not self.num.any()

    def first_nonzero_row(self):
        """The index of the first nonzero row, or None."""
        return _first_true(self.num.any(axis=1))

    def first_nonzero_col(self):
        """The index of the first nonzero column, or None."""
        return _first_true(self.num.any(axis=0))

    def last_nonzero_rows(self):
        """The index of the last nonzero row of each column, -1 for a zero
        column."""
        hits = self.num[::-1] != 0
        return np.where(hits.any(axis=0), self.rows - 1 - hits.argmax(axis=0), -1).tolist()

    def nonzero_cols(self):
        """The indices of the nonzero columns."""
        return np.flatnonzero(self.num.any(axis=0)).tolist()

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"

    # -- elimination ---------------------------------------------------

    def rref(self):
        """The nonzero rows of the reduced row echelon form, one per pivot,
        and the tuple of pivot columns; a zero matrix is not eliminated.
        The result is memoised on the matrix."""
        if self._rref is None:
            block, den, pivots = _eliminate(self)
            r = np.zeros((len(pivots), self.cols), dtype=_holding(block, den))
            r[range(len(pivots)), pivots] = den
            r[:, _free_mask(self.cols, pivots)] = block
            r = _new(self.field, r) if self.field.p is not None else _of(self.field, r, den)
            _SET_VIEW(r, Fraction)  # over Q every entry of its view is a Fraction
            object.__setattr__(self, "_rref", (r, tuple(pivots)))
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Columns form the canonical basis of the null space."""
        return _kernel(self.field, *_eliminate(self))

    def solve(self, b):
        """Particular solution x of self @ x = b, or None if inconsistent.

        b may have several columns; all are solved simultaneously.  Free
        variables are set to zero, so the result is the echelon solution.
        """
        self._same_field(b)
        if b.rows != self.rows:
            raise ValueError(f"rhs has {b.rows} rows, expected {self.rows}")
        block, den, piv = _rref_array(_concat([self, b], 1).num, self.field)
        if any(pc >= self.cols for pc in piv):
            return None
        # every column of b is free: the last b.cols columns of the block
        x = np.zeros((self.cols, b.cols), dtype=block.dtype)
        x[piv] = block[:, block.shape[1] - b.cols :]
        return _of(self.field, x, den)

    def inverse(self):
        """Inverse of a square matrix, or None if singular."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        return self.solve(Matrix.identity(self.field, self.rows))


def _eliminate(m):
    """_rref_array of the matrix m; a zero matrix is not eliminated."""
    if m.is_zero():
        return np.zeros((0, m.cols), dtype=_int_dtype(m.field)), 1, []
    return _rref_array(m.num, m.field)


def _first_true(mask):
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _boxes(start, stop, dims):
    """The positions start to stop - 1 of the row-major grid of shape dims
    as boxes, in order: each box is a tuple of one range (first, stop) per
    axis and covers a run of consecutive positions.  Recursion on the first
    axis splits a run into a part of one row, a box of whole rows and a
    part of one row, so at most 2 len(dims) - 1 boxes are needed."""
    whole = math.prod(dims)
    if start == 0 and stop == whole:
        return [tuple((0, n) for n in dims)]
    if start >= stop:
        return []
    inner = whole // dims[0]
    first, last = -(-start // inner), stop // inner  # the whole rows
    if first > last:  # inside row last
        start, stop = start - last * inner, stop - last * inner
        return [((last, last + 1),) + box for box in _boxes(start, stop, dims[1:])]
    head = [((first - 1, first),) + box for box in _boxes(start - (first - 1) * inner, inner, dims[1:])]
    body = [((first, last),) + tuple((0, n) for n in dims[1:])] if first < last else []
    tail = [((last, last + 1),) + box for box in _boxes(0, stop - last * inner, dims[1:])]
    return head + body + tail


def _dtype_for(bound):
    return np.int64 if bound < _INT64_BOUND else object


def _mag(num):
    """max |n| over an integer array, 0 when it is empty."""
    if not num.size:
        return 0
    if num.dtype == object:
        flat = num.ravel().tolist()
        return max(max(flat), -min(flat))
    return int(np.abs(num).max())


def _of(field, num, den=1, bound=None):
    """The matrix num / den of an integer array num and a positive den
    over Q, brought to canonical form; bound, if given, bounds max |num|.
    Over GF(p), the matrix of the residues of num."""
    p = field.p
    if p is not None:
        return _new(field, _mod(num, p))
    if den != 1:
        # g is at most max |n| unless num is zero, where it is den, which
        # may not fit the int64 of num; a zero matrix is zero over 1
        g = math.gcd(int(np.gcd.reduce(num, axis=None)), den)
        if g == den and not num.any():
            den = 1
        elif g > 1:
            num, den = num // g, den // g
            bound = bound and bound // g
    num, mag = _store(num, bound)
    return _new(field, num, den, mag)


def _new(field, num, den=1, mag=None):
    """A Matrix of storage that is already canonical.  Its slots are set
    through their descriptors, since Matrix refuses attribute assignment;
    the view and the RREF come later."""
    m = object.__new__(Matrix)
    num.setflags(write=False)
    _SET_FIELD(m, field)
    _SET_NUM(m, num)
    _SET_DEN(m, den)
    _SET_MAG(m, mag)
    _SET_VIEW(m, None)
    _SET_RREF(m, None)
    _SET_FLOAT(m, None)
    return m


_SET_FIELD, _SET_NUM, _SET_DEN, _SET_MAG, _SET_VIEW, _SET_RREF, _SET_FLOAT = (
    vars(Matrix)[name].__set__ for name in Matrix.__slots__
)


def _store(num, bound):
    """An integer array in its storage dtype (int64 while every |n| < 2^62)
    and a bound on max |n|: bound itself when it is below 2^62 and num is
    int64, else the exact maximum."""
    if bound is not None and bound < _INT64_BOUND and num.dtype == np.int64:
        return num, bound
    mag = _mag(num)
    if (mag < _INT64_BOUND) != (num.dtype == np.int64):
        num = num.astype(np.int64 if mag < _INT64_BOUND else object)
    return num, mag


def _rationals(num, den, fractions):
    """The Q array num / den as Python scalars: every entry a Fraction if
    fractions, else an int for each integral entry and a Fraction for each
    other one."""
    if den == 1 and not fractions:
        return num.astype(object)
    vals = (Fraction(n, den) for n in num.ravel().tolist())
    vals = [x.numerator if x.denominator == 1 and not fractions else x for x in vals]
    return np.array(vals, dtype=object).reshape(num.shape)


def _dot(x, y, bound, floats=None):
    """x @ y of two integer arrays, where bound bounds |every partial sum|
    of every entry, in whatever order it is summed.

    The one rule for an exact integer product: float64 BLAS when bound <
    2^53, where every partial sum is exact in float64, and the product is
    large enough to pay for converting its operands and its result
    (_FLOAT_RATIO); there y is converted to float64, or, when floats is a
    list (a factor's, see ``Matrix.factor``), taken from it, once put there.
    Otherwise int64 when bound < 2^63, so no partial sum wraps, and Python
    ints above: the result is int64, or an object array when the bound or an
    operand (a Q numerator array past 2^62) is.
    """
    m, k = x.shape
    n = y.shape[1]
    if bound < _FLOAT_EXACT and m * k * n >= _FLOAT_RATIO * (m * k + k * n + m * n):
        if floats is not None:
            if not floats:
                floats.append(y.astype(np.float64))
            y = floats[0]
        return (x.astype(np.float64) @ y.astype(np.float64, copy=False)).astype(np.int64)
    if bound >= 2**63:
        x, y = x.astype(object, copy=False), y.astype(object, copy=False)
    return x.dot(y)


def _dot_mod(x, y, p, floats=None):
    """x @ y mod p of two residue arrays, through _dot: one product when k
    (p - 1)^2 < 2^63 for the inner size k, else one per run of floor((2^63
    - 1) / (p - 1)^2) inner terms, each reduced mod p (the delayed
    reduction of Dumas, Giorgi and Pernet).  Residues past 2^31 are Python
    ints and take one product.
    """
    if x.dtype == object:
        return _mod(x.dot(y), p)
    k, square = x.shape[1], (p - 1) ** 2
    if k * square < 2**63:
        return _mod(_dot(x, y, k * square, floats), p)
    step = (2**63 - 1) // square
    out = _mod(_dot(x[:, :step], y[:step], step * square), p)
    for s in range(step, k, step):
        out += _mod(_dot(x[:, s : s + step], y[s : s + step], step * square), p)
    return _mod(out, p, out=out)


def _mod(x, p, out=None):
    """x mod p of an integer array, every entry above p - 2^63; written into
    out, which may be x itself, when it is given.

    An int64 array of at least _FLOOR_DIVIDE_SIZE entries is reduced by
    floor division, x - (x // p) p: numpy divides an int64 array by a
    scalar through multiplications (libdivide), where % takes one hardware
    division per entry.  (x // p) p lies in (x - p, x], so it cannot wrap,
    and the result equals x % p, dtype included.  Smaller arrays, where the
    two extra numpy calls cost more, and Python ints take %.  The products,
    eliminations and GF(p) matrices of this module reduce here; only a
    Gauss-Jordan step reduces its pivot column and row, and a whole array
    of at most _WHOLE_UPDATE_SIZE entries, by % directly.
    """
    if x.dtype == object or x.size < _FLOOR_DIVIDE_SIZE:
        return np.remainder(x, p, out=out)
    q = x // p
    q *= p
    return np.subtract(x, q, out=q if out is None else out)


@functools.cache
def _block_rows(cols):
    """How many rows _rref_mod reduces per block of a matrix of cols
    columns: 3 sqrt(cols), and at least 48.

    With R of r rows, a block of h rows costs two products of about h r cols
    multiply-adds in all, which BLAS runs at one rate whatever h is; the
    gathers and updates of R's columns, about r cols entries per block;
    and Gauss-Jordan on the block, one numpy step per pivot over h rows.
    Over the whole matrix the second falls as 1/h and the third grows as h,
    so h grows as sqrt(cols).  Every blocked elimination input of one
    document set of each benchmark workload has at most 270 columns and
    gets 48 rows, the height timed best for them (32-64 were within 5 %).
    Seconds, best of two, on the GF(5) idem d = 4 slices of degrees 4 and 5
    (a 2-vCPU Xeon, one BLAS thread; N = [phi_5 K | partial_4]; the rule
    gives 96, 192 and 159 rows; runs repeat within about 15 %):

        rows per block          48    96   128   192   256   384   rule
        delta_4  4096 x 1024  0.26  0.23  0.25  0.30  0.38  0.42   0.28
        delta_5 16384 x 4096 10.35  6.89  6.13  6.56  6.87  7.20   6.51
        N        8192 x 2864  5.23  3.88  3.91  4.01  3.86  4.44   4.28
    """
    return max(48, 3 * math.isqrt(cols))


def _rref_array(a, field):
    """Elimination of the integer array a over field, or over GF(p) of a
    _Rows stream of its row blocks: (block, den, pivots), where the RREF is
    the identity on the pivot columns P and block / den on the free columns
    F, one row per pivot and one column per free column, in order; den is 1
    over GF(p), where block holds residues.  a is only read, and block
    shares no storage with it.
    """
    p = field.p
    if p is None:
        return _rref_rational(a)
    block, pivots = _rref_mod(a, p)
    return block, 1, pivots


class _Rows:
    """A matrix given as its row blocks (arrays), top to bottom, read once."""

    __slots__ = ("shape", "blocks")

    def __init__(self, shape, blocks):
        self.shape = shape
        self.blocks = blocks


def _rref_mod(a, p):
    """The RREF over GF(p) of a, as _rref_array gives it: (block, pivots),
    a an array of residues (int64 for p < 2^31, Python ints above) or a
    _Rows stream of such blocks.  A read-only array (a matrix's storage) is
    only read; a writeable one was made for this elimination alone (the
    residues of _rref_rational) and may serve as its scratch.

    Over GF(2) every matrix goes to _rref_gf2, which packs its rows into
    Python ints.  Otherwise an array of fewer than two blocks of
    _block_rows(cols) rows goes to _gauss_jordan whole; the block is the
    free columns of the RREF they give.  A taller one is reduced in such
    blocks, and a stream in its own blocks, by _reduce_blocks; the block is
    the rows of the transposed RREF it leaves at the free columns, its
    columns put in pivot order, and the RREF is never gathered.  The RREF
    of a row space is unique, so the result is that of _gauss_jordan on the
    whole matrix, however the rows are blocked.
    """
    ncols = a.shape[1]
    if p == 2 or isinstance(a, np.ndarray) and len(a) < 2 * _block_rows(ncols):
        r, pivots = _rref_gf2(a) if p == 2 else _gauss_jordan(a if a.flags.writeable else a.copy(), p)
        return r[:, _free_mask(ncols, pivots)], pivots
    if isinstance(a, np.ndarray):
        height = _block_rows(ncols)
        a = _Rows(a.shape, [a[s : s + height] for s in range(0, len(a), height)])
    rt, pivots, free = _reduce_blocks(a, p)
    return rt[np.ix_(free, np.argsort(pivots))].T, sorted(pivots)


def _free_mask(ncols, pivots):
    """The free columns of an RREF of ncols columns with these pivots, as a
    boolean mask."""
    free = np.ones(ncols, dtype=bool)
    free[list(pivots)] = False
    return free


def _reduce_blocks(a, p):
    """The RREF R over GF(p), p odd, of the _Rows stream a, transposed:
    (rt, pivots, free), where column i of rt is the row of R whose pivot is
    pivots[i], in the order the pivots were found, the columns of rt past
    the rank are zero, and free is the mask of the free columns.

    rt is one array of min(rows, cols) columns (a column of R is a row of
    rt, so gathering and updating columns of R moves whole rows).  Each
    block X is reduced against R of the rows before it, with pivot columns
    P: one product, Y = X - X[:, P] R, is zero on P; _gauss_jordan reduces
    Y on the other columns to rows R_Y with pivots P_Y; one more product, R
    - R[:, P_Y] R_Y, clears R on P_Y, and R_Y joins R.  R is then the RREF
    of the rows seen, up to the order of its rows; once R has a pivot in
    every column no more blocks are read.
    """
    nrows, ncols = a.shape
    rt = np.zeros((ncols, min(nrows, ncols)), dtype=GF(p).dtype)  # R^T
    pivots, free = [], np.ones(ncols, dtype=bool)
    for x in a.blocks:
        k0, columns = len(pivots), free.nonzero()[0]
        y = x.take(columns, axis=1)
        if k0:
            y -= _dot_mod(x.take(pivots, axis=1), rt[columns, :k0].T, p)
            _mod(y, p, out=y)
        # Y's zero rows add nothing, and its zero columns stay zero
        rows, used = y.any(axis=1), y.any(axis=0)
        if not used.any():
            continue
        y, new = _gauss_jordan(y[np.ix_(rows, used)], p)
        cols = columns[used]
        k, found = len(new), cols[new]
        if k0:
            update = _dot_mod(y.T, rt[found, :k0], p)
            np.subtract(rt[cols, :k0], update, out=update)
            rt[cols, :k0] = _mod(update, p, out=update)
            del update  # up to a quarter of rt: not held into the next block
        rt[cols, k0 : k0 + k] = y.T
        pivots += found.tolist()
        free[found] = False
        if k0 + k == ncols:
            break
    return rt, pivots, free


def _rref_gf2(a):
    """RREF over GF(2) of a (entries 0 and 1; an array or a _Rows stream),
    and the pivot columns, on rows packed into Python ints: bit j of a row
    is column j, and XOR adds two rows in one step (the idea of M4RI:
    Albrecht, Bard and Hart, 2010).

    The rows enter one at a time a reduced echelon {pivot column: row},
    each row of which is zero on the other pivot columns.  A row x is
    reduced by the echelon rows at the set bits of x & mask, mask the pivot
    columns, in one pass: adding the row of pivot c changes x at no other
    pivot column.  What remains is zero on every pivot column; if it is
    nonzero, its lowest set bit is a new pivot, which is cleared from the
    echelon rows that have it before the row joins.  The rank cannot pass
    min(m, n), so the rows after it are not read.  The RREF of a row space
    is unique, so this is the array and the pivots that _gauss_jordan gives;
    a is only read, one block packed at a time.
    """
    nrows, ncols = a.shape
    width = (ncols + 7) // 8
    echelon, mask, full = {}, 0, min(nrows, ncols)
    for block in (a,) if isinstance(a, np.ndarray) else a.blocks:
        packed = np.packbits(block, axis=1, bitorder="little").tobytes()
        for i in range(len(block)):
            if len(echelon) == full:
                break
            x = int.from_bytes(packed[i * width : (i + 1) * width], "little")
            y = x & mask
            while y:
                low = y & -y
                x ^= echelon[low.bit_length() - 1]
                y ^= low
            if x:
                low = x & -x
                for c, row in echelon.items():
                    if row & low:
                        echelon[c] = row ^ x
                echelon[low.bit_length() - 1] = x
                mask |= low
    pivots = sorted(echelon)
    rows = b"".join(echelon[c].to_bytes(width, "little") for c in pivots)
    bits = np.frombuffer(rows, dtype=np.uint8).reshape(len(pivots), width)
    return np.unpackbits(bits, axis=1, count=ncols, bitorder="little").astype(np.int64), pivots


def _gauss_jordan(a, p):
    """RREF over GF(p) of a (entries in [0, p)), and the pivot columns, by
    Gauss-Jordan elimination one pivot at a time; a is used as scratch.

    On a matrix of at most _WHOLE_UPDATE_SIZE entries a pivot step updates
    the whole array and reduces it mod p, which there costs less than
    gathering and scattering rows.  On a larger one a pivot step touches
    only the rows with a nonzero entry in the pivot column, and only the
    columns from the pivot on (the pivot row is zero left of it), and it
    reduces mod p only what is read (delayed reduction):

    * the pivot column, before its nonzero rows are searched, and the pivot
      row, before it is scaled by the inverse of its pivot (the scaled row
      is reduced again);
    * everything, once _unreduced_steps(p) steps have run since the last
      such reduction, and the columns never read once every row holds a
      pivot.

    While every entry is still a residue (at the start, and after each
    reduction of everything) nothing is reduced before it is read.  A step
    subtracts f x from an entry, with f a residue or the pivot minus one and
    x a residue, so it moves the entry by at most (p - 1)^2; from residues,
    _unreduced_steps(p) steps keep every entry below 2^62 in absolute value.
    A column once read is never updated again, and the step that reads it
    leaves it reduced, so the result is the array of residues that reducing
    every update gives.
    """
    nrows, ncols = a.shape
    whole = a.size <= _WHOLE_UPDATE_SIZE
    period = left = _unreduced_steps(p)
    clean = True  # every entry of a is a residue
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            if not clean:
                _mod(a[:, c:], p, out=a[:, c:])
            break
        col = a[:, c]
        if not clean:
            col %= p
        below = col[r:].nonzero()[0]
        if not len(below):
            continue
        i = r + below[0]
        if i != r:
            row = a[i].copy()
            a[i] = a[r]
            a[r] = row
        # one update scales the pivot row and clears column c in the other
        # rows: the pivot row's own factor is its pivot minus one
        inv = pow(int(col[r]), -1, p)
        if whole:
            fac = col.copy()
            fac[r] -= 1
            a = (a - np.multiply.outer(fac, a[r] * inv % p)) % p
        else:
            # the nonzero rows of column c: k rows above r, then r and below
            rows = col.nonzero()[0]
            k = len(rows) - len(below)
            fac = col[rows]
            fac[k] -= 1
            pivot = a[r, c:]
            if not clean:
                pivot %= p
            row = pivot * inv % p
            left -= 1
            if left:
                a[rows, c:] -= fac[:, None] * row
            else:
                # the rows left out of this update are residues when the
                # step began with residues only (every step near 2^31)
                a[rows, c:] = _mod(a[rows, c:] - fac[:, None] * row, p)
                if not clean:
                    _mod(a[:, c + 1 :], p, out=a[:, c + 1 :])
                left = period
            clean = left == period
        pivots.append(c)
    rank = len(pivots)  # the rows below are zero
    return a[:rank].copy(), pivots


@functools.cache
def _unreduced_steps(p):
    """How many pivot steps of _gauss_jordan mod p may run between two
    reductions: each moves an entry by at most (p - 1)^2, and from a residue
    floor((2^62 - p) / (p - 1)^2) of them stay below 2^62.  At least one,
    which above 2^31 (Python ints) reduces after every step."""
    return max((2**62 - p) // (p - 1) ** 2, 1)


@functools.cache
def _prime(i):
    """The i-th prime below _Q_PRIME_LIMIT = 2^28, counting down from the
    largest, 2^28 - 57; about 7 10^6 primes lie between 2^27 and 2^28.

    Over Q these primes take the place of those just below 2^31, where an
    int64 product mod p reduces after every 2 inner terms and Gauss-Jordan
    after every pivot step.  Below 2^28 a product of inner size k makes
    ceil(k / 128) numpy calls (_dot_mod) and Gauss-Jordan reduces every 64
    steps (_unreduced_steps), the delayed reduction of the prime-field path;
    one prime still reconstructs every |n|, L <= sqrt(p / 2), about 2^13.5.
    """
    q = _Q_PRIME_LIMIT - 1 if i == 0 else _prime(i - 1) - 2
    while not _is_prime(q):
        q -= 2
    return q


def _rref_rational(b):
    """RREF over Q of the integer array b, as _rref_array gives it: (block,
    den, pivots), the numerators of its free columns over den > 0, their
    gcd with den 1.  Two routes give it, chosen by the size of b: at most
    _FRACTION_FREE_SIZE entries, fraction-free Gauss-Jordan on Python ints
    (_fraction_free), exact by construction; above, elimination modulo
    primes, certified exactly.  The RREF is unique, so both return the same
    arrays.

    On the multimodular route, among the primes tried, those of the highest
    rank and, at that rank, of the lexicographically first pivot list are
    kept; their blocks are combined by CRT and rationally reconstructed as
    one column (_lift).  A candidate is returned only once it passes the
    exact check of _certified; otherwise one more prime is tried, up to
    _prime_budget primes.  By then a correct kernel mod p has certified, so
    running out is a kernel bug: AssertionError.
    """
    if b.size <= _FRACTION_FREE_SIZE:
        return _fraction_free(b)
    bmax = _mag(b)
    if bmax == 0:
        return b[:0].copy(), 1, []
    best = None
    for p in map(_prime, range(_prime_budget(b.shape, bmax))):
        # the residues are a new, writeable array: _rref_mod's scratch
        rp, pivots = _rref_mod(_mod(b, p).astype(np.int64, copy=False), p)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, modulus, free = key, p, _free_mask(b.shape[1], pivots)
            x = rp.ravel()
        elif key == best:
            # CRT: the residue mod modulus * p that is x mod modulus and rp
            # mod p, on Python ints
            x = x.astype(object)
            x += modulus * ((rp.ravel() - x) * pow(modulus, -1, p) % p)
            modulus *= p
        else:
            continue
        num, dens, failed = _lift(x[:, None], modulus)
        if failed:
            continue
        den, nmax = int(dens[0]), _mag(num)
        block = num.astype(_dtype_for(nmax), copy=False).reshape(len(pivots), b.shape[1] - len(pivots))
        if _certified(b, bmax * (den + len(pivots) * nmax), pivots, free, block, den):
            return block, den, pivots
    raise AssertionError(f"no certified RREF of a {b.shape[0]}x{b.shape[1]} matrix from its prime budget")


def _fraction_free(b):
    """RREF over Q of the integer array b as _rref_rational gives it, by
    fraction-free Gauss-Jordan on Python ints (Bareiss, Math. Comp. 22,
    1968): no prime, no reconstruction and no certificate.

    A pivot step on the pivot q in column c, with d the previous pivot (1 at
    first), replaces every other row by (q row - f pivot_row) / d, f its
    entry in column c.  After k steps, let D be the k x k minor of b on the
    pivot rows and columns so far.  Every pivot entry is D; every other
    entry of a pivot row is, by Cramer's rule, D with one column exchanged
    for another column of b; every entry of another row is, up to sign, the
    (k + 1) x (k + 1) minor of b that adds that row and that column to D's.
    All are integers, so each division is exact, and the pivot rows over
    the last pivot are the RREF.  Their free columns are the block, brought
    to den > 0 and gcd 1.

    Replayed on the Q elimination inputs of document set 0 of the les_sweep
    and deform_extend benchmark workloads: ms for all inputs of a size, min
    of 25 alternating rounds (a 2-vCPU Xeon; three runs, the middle one;
    the ratios repeat within about 15 %, none of the inputs has 193-256
    entries):

        entries          1-16  17-64  65-96  97-128  129-192  257-512  513-1024
        inputs            215     56     23      12        4       17         2
        modulo primes    16.6    6.3    2.7     1.9     0.68      5.4      0.71
        fraction-free     2.0    1.6    1.7     1.7     0.72     13.7      1.69

    So _FRACTION_FREE_SIZE is 128: up to there the per-call numpy cost,
    reconstruction and certificate outweigh Python's row arithmetic, which
    grows as rows x cols x rank; past it the rows lose to numpy's.
    """
    rows = b.tolist()
    m, n = b.shape
    pivots, d = [], 1
    for c in range(n):
        r = len(pivots)
        for i in range(r, m):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i], rows[r] = rows[r], prow
        q = prow[c]
        for k, row in enumerate(rows):
            f = row[c]
            if k == r:
                continue
            if f:
                rows[k] = [(q * x - f * y) // d for x, y in zip(row, prow)]
            elif q != d and (k < r or any(row)):
                # f = 0 only scales the row, and a zero row below stays zero
                rows[k] = [q * x // d for x in row]
        pivots.append(c)
        d = q
        if r + 1 == m:
            break
    if not pivots:
        return b[:0].copy(), 1, []
    free = _free_mask(n, pivots).nonzero()[0].tolist()
    flat = [row[c] for row in rows[: len(pivots)] for c in free]
    if d < 0:
        flat, d = [-x for x in flat], -d
    g = math.gcd(d, *flat)
    if g > 1:
        flat, d = [x // g for x in flat], d // g
    big = max(map(abs, flat), default=0)
    return np.array(flat, dtype=_dtype_for(big)).reshape(len(pivots), len(free)), d, pivots


def _prime_budget(shape, bmax):
    """How many primes _rref_rational may try on an integer array of this
    shape with max |entry| bmax before a correct kernel must have certified.

    Let r be the rank over Q and P the pivots.  Every RREF entry is a ratio
    of two r x r minors over one nonzero minor D = det B[I, P] (some rows
    I), and each minor is at most H = (sqrt(r) bmax)^r (Hadamard), r at
    most the smaller side.  A prime that does not divide D keeps P
    independent, so it has rank r and pivots P (no prime raises a rank),
    and its RREF is that over Q mod p: such a prime is kept from the first
    on.  Every prime tried exceeds 2^27 (_prime: about 7 10^6 primes lie
    between 2^27 and 2^28), so at most log_(2^27) H of them divide D; and
    reconstruction (|n|, L <= H) succeeds once the kept primes multiply
    past 2 H^2, that is after ceil(log2(2 H^2) / 27) of them.  bits bounds
    log2 H^2 = r log2(r bmax^2).
    """
    r = min(shape)
    bits = r * (r * bmax * bmax).bit_length()
    return -(-bits // 54) + -(-(bits + 1) // 27)


def _lift(x, m):
    """Each column of the residue array x mod m lifted to Q by rational
    reconstruction with a denominator of its own: (num, dens, failed), where
    n = L c mod m and |n|, L <= sqrt(m/2) for the column c, its numerators n
    (column j of num) and L = dens[j]; a column with no such lift is listed
    in failed, with zero numerators and L = 0.

    L starts at 1 and grows to its lcm with the denominator of the first
    entry past the bound (_wang_denominator) until no entry is past it; a
    denominator that does not grow or passes the bound fails the column.
    Rationals this small are unique when they exist (Wang, Guy and
    Davenport).  The arithmetic is int64 for m < 2^31 (x L < 2^46) and
    Python ints above, where m is a product of primes (CRT).
    """
    x = x.astype(np.int64 if m < _INT64_PRIME_LIMIT else object, copy=False)
    half, bound = m // 2, math.isqrt(m // 2)
    num, cols, dens, failed = np.empty_like(x), np.arange(x.shape[1]), np.ones(x.shape[1], dtype=x.dtype), []
    while cols.size:
        part = x[:, cols] * dens[cols] % m
        part[part > half] -= m
        num[:, cols] = part
        over = np.abs(part) > bound
        redo = over.any(axis=0).nonzero()[0]
        for i in redo.tolist():
            j = cols[i]
            grown = _wang_denominator(int(x[over[:, i].argmax(), j]), m, bound)
            grown = grown and math.lcm(int(dens[j]), grown)
            if grown is None or grown == dens[j] or grown > bound:
                failed.append(int(j))
                grown = 0  # the column's numerators are zero on the next pass
            dens[j] = grown
        cols = cols[redo]
    return num, dens, failed


def _wang_denominator(u, m, bound):
    """Denominator of the rational n/d = u mod m with |n|, d <= bound, or None."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return abs(t1)


def modulo_prime(mats):
    """The matrices over Q modulo one prime, as matrices over GF(p): each
    entry n / L becomes n L^-1 mod p.  p is the first prime of the Q path
    (_prime(0) = 2^28 - 57, then counting down) that divides none of
    their denominators.  A product, sum or Kronecker product of such
    matrices has no denominator that p divides, and its reduction mod p is
    the same operation on the reductions."""
    i = 0
    while any(m.den % _prime(i) == 0 for m in mats):
        i += 1
    p = _prime(i)
    field = GF(p)
    out = []
    for m in mats:
        residues = _mod(m.num, p).astype(np.int64, copy=False)
        out.append(_of(field, residues * pow(m.den, -1, p)))
    return out


def lift_columns(m):
    """Each column of the matrix m over GF(p), p < 2^31, lifted to Q by
    rational reconstruction with one denominator of its own (_lift).
    Returns the matrix over Q of the integer columns n with n = L c mod p,
    with a zero column for each column that has no such lift, and the list
    of those columns."""
    num, _, failed = _lift(m.num, m.field.p)
    return _of(QQ, num), failed


def _certified(b, h, pivots, free, num, den):
    """Whether b[:, free] den == b[:, pivots] num holds over the integers.

    num is den times the candidate RREF on the free columns (free is a
    boolean mask), and h bounds both sides in absolute value: the product is
    one _dot of bound h, and b[:, free] den is taken in int64 when h < 2^62
    and over Python ints otherwise.
    """
    left = b[:, free].astype(_dtype_for(h), copy=False) * den
    return bool((left == _dot(b[:, pivots], num, h)).all())


def _common(mats, what):
    """The field of mats, their common denominator, and each numerator
    array brought to it (in one dtype)."""
    field = mats[0].field
    for m in mats[1:]:
        if m.field != field:
            raise ValueError(f"field mismatch in {what}")
    if field.p is not None:
        return field, 1, None, [m.num for m in mats]
    den = math.lcm(*(m.den for m in mats))
    mag = max(max(m._mag, 1) * (den // m.den) for m in mats)
    dtype = _dtype_for(mag)
    nums = [m.num.astype(dtype, copy=False) for m in mats]
    return field, den, mag, [x if m.den == den else x * (den // m.den) for x, m in zip(nums, mats)]


def _concat(mats, axis):
    field, den, mag, nums = _common(mats, "vstack" if axis == 0 else "hstack")
    return _stacked(field, np.concatenate(nums, axis=axis), den, mag)


def hstack(mats):
    return _concat(mats, 1)


def vstack(mats):
    return _concat(mats, 0)


def block_diag(mats):
    blocks, r, c = [], 0, 0
    for m in mats:
        blocks.append((m, np.s_[r : r + m.rows, c : c + m.cols]))
        r, c = r + m.rows, c + m.cols
    return assemble((r, c), blocks)


def assemble(shape, blocks):
    """The matrix whose entries, as an array of the given shape, are zero but
    at the disjoint indices key (slices or index lists) of (x, key) in
    blocks, which hold the matrix x row-major; over Q at the blocks' common
    denominator."""
    field, den, mag, nums = _common([x for x, _ in blocks], "assemble")
    a = np.zeros(shape, dtype=nums[0].dtype)
    for x, (_, key) in zip(nums, blocks):
        a[key] = x.reshape(a[key].shape)
    return _stacked(field, a.reshape(shape[0], math.prod(shape[1:])), den, mag)


def _stacked(field, a, den, mag):
    """The matrix a / den of canonical parts placed in one array a, where
    mag bounds max |a|; over Q a is brought to its storage dtype."""
    if field.p is None:
        a, mag = _store(a, mag)
    return _new(field, a, den, mag)


def block_toeplitz(series, count, depth):
    """The block-Toeplitz matrix T, with depth block rows, of a series
    stacked as [c_0 | ... | c_(count-1)]: block (i, n) is c_(n-i) for n >= i
    and zero otherwise, so [a_0 | ... | a_(depth-1)] @ T is the truncated
    Cauchy product [sum_{i+j=n} a_i c_j for n < count].  Block row 0 is the
    series itself, so its denominator and bound carry over."""
    num = series.num
    rows, cols = num.shape
    width = cols // count
    out = np.zeros((depth, rows, cols), dtype=num.dtype)
    for i in range(min(depth, count)):
        out[i, :, i * width :] = num[:, : cols - i * width]
    return _new(series.field, out.reshape(depth * rows, cols), series.den, series._mag)


def regroup_columns(m, outer, inner):
    """m with its columns read as an outer x inner grid of equal blocks,
    regrouped inner-major: block (i, j) moves to position j outer + i.  This
    turns I_k (x) [c_0 | ... | c_(n-1)] into [I_k (x) c_0 | ... | I_k (x)
    c_(n-1)] (outer k, inner n).  An empty grid is returned as it is."""
    rows, cols = m.shape
    num = m.num.reshape(rows, outer, inner, cols // max(outer * inner, 1)).transpose(0, 2, 1, 3)
    return _new(m.field, num.reshape(rows, cols), m.den, m._mag)


def kron_all(field, mats, empty_dim=1):
    """Kronecker product of a list of matrices; empty list gives identity."""
    if not mats:
        return Matrix.identity(field, empty_dim)
    out = mats[0]
    for m in mats[1:]:
        out = out.kron(m)
    return out


def _kernel(field, block, den, pivots):
    """The canonical kernel basis, as columns, of the matrices whose RREF is
    the identity on the pivots P and block / den on the free columns F, as
    _rref_array gives it: the identity on F and -block / den on P."""
    rank, nfree = block.shape
    basis = np.zeros((rank + nfree, nfree), dtype=_holding(block, den))
    basis[_free_mask(rank + nfree, pivots), np.arange(nfree)] = den
    basis[list(pivots)] = -block
    return _of(field, basis, den)


def _holding(block, den):
    """The dtype of an array that holds the entries of block and den."""
    return block.dtype if den < _INT64_BOUND else object


def row_blocks(field, shape):
    """The row ranges (start, stop) in which a matrix of this shape is fed
    to elimination as it is assembled (rref_rows): the whole matrix over Q,
    whose certificate reads it whole, and below _STREAM_SIZE entries, else
    the blocks of _block_rows(cols) rows that _rref_mod reduces."""
    rows, cols = shape
    if field.p is None or rows * cols < _STREAM_SIZE:
        return [(0, rows)]
    height = _block_rows(cols)
    return [(s, min(s + height, rows)) for s in range(0, rows, height)]


class _Eliminated:
    """The RREF pivots P (a tuple) of one elimination, and its canonical
    kernel basis K through kernel(): formed on the first read from the
    RREF's free block, which is kept until then and then dropped."""

    __slots__ = ("pivots", "_rref", "_kernel")

    def __init__(self, field, eliminated):
        self.pivots, self._rref, self._kernel = tuple(eliminated[2]), (field, *eliminated), None

    def kernel(self):
        if self._kernel is None:
            self._kernel, self._rref = _kernel(*self._rref), None
        return self._kernel


def rref_rows(field, shape, blocks):
    """The elimination of the matrix of this shape whose rows arrive as the
    matrices blocks, top to bottom: its RREF pivots P and canonical kernel
    basis K (_Eliminated), which keeps the RREF's free block until K is
    read, so a reader of P alone forms no K.  A block that covers the matrix
    is eliminated whole, and no RREF is left on it.  Rows in several blocks
    are eliminated over GF(p) as a stream that holds one block at a time
    besides the transposed echelon form, and reads no block after that has
    a pivot in every column."""
    blocks = iter(blocks)
    first = next(blocks)
    if first.rows == shape[0]:
        return _Eliminated(field, _eliminate(first))
    nums = itertools.chain([first.num], (b.num for b in blocks))
    del first  # no block is held past its turn
    return _Eliminated(field, _rref_array(_Rows(shape, nums), field))


def modulo_span(m, echelon):
    """The rows of m modulo the span of the rows of an RREF (R, P), as
    ``rref`` gives it: m - m[:, P] R, one product.  R[:, P] is the
    identity, so a row of the result is zero exactly when that row of m
    lies in the span, and m stacked on R has rank |P| + the rank of the
    result."""
    r, piv = echelon
    if not (piv and m.rows):
        return m
    return m - m.columns(list(piv)) @ r
