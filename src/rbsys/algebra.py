"""Finite-dimensional associative algebras, bimodules, and multilinear maps.

An algebra is stored as the d x d^2 matrix of its multiplication and a
bimodule as the matrices of its actions; multilinear maps A^(x)n -> M as m
x d^n matrices.  One column convention holds project-wide: the tuple (i_1,
..., i_n) of 0-based basis indices sits in column sum_k i_k * d^(n-k),
i.e. big-endian lexicographic.  Structure-constant tensors c[i][j][k] (e_i
e_j = sum_k c[i][j][k] e_k) and action tensors are views for documents and
tests: an (a, b, k) tensor t is the k x ab matrix whose column i b + j
holds t[i][j][:], as coded in tensor_matrix / matrix_tensor and, for
documents, in documents._parse_tensor3.

Algebras need not be unital; nothing here assumes a unit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .linalg import QQ, Matrix, kron_all, regroup_columns


class Verdict:
    """Outcome of an axiom check: truthiness plus a minimal witness.

    require is the one way the library turns a failed check into an error.
    """

    __slots__ = ("ok", "tag", "witness", "lhs", "rhs")

    def __init__(self, ok, tag="", witness=None, lhs=None, rhs=None):
        self.ok = ok
        self.tag = tag
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Verdict(pass)"
        return f"Verdict(fail, tag={self.tag!r}, witness={self.witness!r})"

    def describe(self):
        if self.ok:
            return "pass"
        msg = f"fail [{self.tag}] at {_text(self.witness)}"
        if self.lhs is not None:
            msg += f": lhs={_text(self.lhs)} rhs={_text(self.rhs)}"
        return msg

    def require(self, context, error=ValueError):
        """self if the check passed, else raise error("context: describe()")."""
        if not self.ok:
            raise error(f"{context}: {self.describe()}")
        return self


def _text(x):
    """x as text, each Fraction written as its JSON token (a/b, or n)."""
    if isinstance(x, list):
        return "[" + ", ".join(map(_text, x)) + "]"
    return str(QQ.scalar_token(x)) if isinstance(x, Fraction) else str(x)


def first_mismatch(tag, lhs, rhs, dims):
    """Compare two sides of an identity column by column.

    Columns index basis tuples in mixed radix over the argument dimensions
    dims (big-endian, as encode_tuple).  Returns a passing Verdict when the
    sides agree, else one naming the first differing tuple and both columns.
    """
    if lhs == rhs:
        return Verdict(True)
    col = rest = int(np.flatnonzero((lhs.a != rhs.a).any(axis=0))[0])
    idx = []
    for dim in reversed(dims):
        rest, i = divmod(rest, dim)
        idx.append(i)
    return Verdict(
        False,
        tag=tag,
        witness=tuple(reversed(idx)),
        lhs=lhs.col(col).entries(),
        rhs=rhs.col(col).entries(),
    )


def first_failure(checks):
    """The verdict of the identities (tag, lhs, rhs, dims), each a pair of
    matrices for first_mismatch: the first failing one, or a pass.  checks
    may be a generator, so that the sides of an identity are formed only
    once those before it have passed."""
    for check in checks:
        verdict = first_mismatch(*check)
        if not verdict:
            return verdict
    return Verdict(True)


def encode_tuple(d, idx):
    """Column index of a basis tuple (0-based entries, big-endian)."""
    col = 0
    for i in idx:
        col = col * d + i
    return col


def decode_tuple(d, n, col):
    """Inverse of encode_tuple for arity n."""
    out = []
    for _ in range(n):
        out.append(col % d)
        col //= d
    return tuple(reversed(out))


def tensor_matrix(field, data, shape):
    """The (a, b, k) tensor data as a k x ab matrix over field: column i b +
    j holds data[i][j][:].  The entries become canonical scalars of field:
    an int64 array over a field stored in int64 is reduced mod p in one
    pass, which is what coerce does entry by entry; over Q, ints and
    Fractions are canonical already; anything else goes through coerce as
    one flat list, so floats and booleans are refused."""
    if list(np.shape(data)) != list(shape):
        raise ValueError(f"tensor has shape {np.shape(data)}, expected {shape}")
    if isinstance(data, np.ndarray) and data.dtype == np.int64 and field.dtype == np.int64:
        t = data % field.p
    else:
        flat = np.asarray(data, dtype=object).ravel().tolist()
        if field.p is not None or not set(map(type, flat)) <= {int, Fraction}:
            flat = [field.coerce(x) for x in flat]
        t = np.array(flat, dtype=field.dtype).reshape(shape)
    a, b, k = shape
    return Matrix(field, t.transpose(2, 0, 1).reshape(k, a * b).copy())


def matrix_tensor(mat, a, b):
    """Inverse of tensor_matrix: the (a, b, k) tensor of a k x ab matrix, a
    read-only view of its entries (``Matrix.a``)."""
    return mat.a.reshape(mat.rows, a, b).transpose(1, 2, 0)


class Algebra:
    """Associative algebra over an exact field, stored as the d x d^2 matrix
    of its multiplication, read from a structure-constant tensor or given
    (from_matrix)."""

    __slots__ = ("field", "dim", "_mult_matrix", "_assoc")

    def __init__(self, field, dim, mult):
        self.field, self.dim = field, dim
        self._mult_matrix = tensor_matrix(field, mult, (dim, dim, dim))
        self._assoc = None  # verdict of check_associative, once computed

    @classmethod
    def from_matrix(cls, mult):
        """The algebra whose multiplication is the d x d^2 matrix mult."""
        alg = cls.__new__(cls)
        alg.field, alg.dim, alg._mult_matrix, alg._assoc = mult.field, mult.rows, mult, None
        return alg

    @property
    def mult(self):
        """The structure constants as a read-only (d, d, d) tensor view."""
        return matrix_tensor(self._mult_matrix, self.dim, self.dim)

    def mult_matrix(self):
        """The multiplication as a d x d^2 matrix on tuple columns."""
        return self._mult_matrix

    def multiply(self, x, y):
        """Product of two coordinate columns."""
        return self._mult_matrix @ x.kron(y)

    def constant(self, i, j, k):
        return self._mult_matrix[k, i * self.dim + j]

    def __eq__(self, other):
        return isinstance(other, Algebra) and self._mult_matrix == other._mult_matrix

    def __repr__(self):
        return f"Algebra({self.field}, dim={self.dim})"


def zero_algebra(field, dim):
    """The dim-dimensional algebra with identically zero multiplication."""
    return Algebra.from_matrix(Matrix.zeros(field, dim, dim * dim))


def check_associative(alg):
    """Verify (e_i e_j) e_k = e_i (e_j e_k) on every basis triple."""
    if alg._assoc is None:
        # mu (mu (x) Id) and mu (Id (x) mu) on tuple columns (i, j, k)
        mu, d = alg.mult_matrix(), alg.dim
        alg._assoc = first_failure([("associativity", mu.times(mu, 1, d), mu.times(mu, d, 1), (d, d, d))])
    return alg._assoc


def check_nondegenerate(alg):
    """Fail when some nonzero b has bA = 0 or Ab = 0."""
    mu, d = alg.mult_matrix(), alg.dim
    # b -> (b e_i)_i and b -> (e_i b)_i as (i, k) x b matrices: mu has
    # (e_b e_i)_k at column b d + i, and mu regrouped has (e_i e_b)_k there
    for tag, mult in (("right_annihilator", mu), ("left_annihilator", regroup_columns(mu, d, d))):
        ker = mult.transpose().reshape(d, d * d).transpose().kernel_basis()
        if ker.cols > 0:
            return Verdict(False, tag=tag, witness=ker.col(0).entries())
    return Verdict(True)


class BimoduleActions:
    """Left and right actions of a d-dimensional algebra on an m-dimensional
    space, stored as the m x dm matrix of a (x) f -> a.f and the m x md
    matrix of f (x) a -> f.a, read from the action tensors or given
    (from_matrices).  The tensors are read-only views:

    left[i][u][v]: coefficient of f_v in e_i . f_u
    right[u][i][v]: coefficient of f_v in f_u . e_i
    """

    __slots__ = ("field", "adim", "dim", "_left_matrix", "_right_matrix", "_right_slices")

    def __init__(self, field, adim, dim, left, right):
        self.field, self.adim, self.dim, self._right_slices = field, adim, dim, None
        self._left_matrix = tensor_matrix(field, left, (adim, dim, dim))
        self._right_matrix = tensor_matrix(field, right, (dim, adim, dim))

    @classmethod
    def from_matrices(cls, adim, left, right):
        """The actions of an adim-dimensional algebra whose matrices are
        left (m x adim m) and right (m x m adim)."""
        acts = cls.__new__(cls)
        acts.field, acts.adim, acts.dim, acts._right_slices = left.field, adim, left.rows, None
        acts._left_matrix, acts._right_matrix = left, right
        return acts

    @property
    def left(self):
        """The left action as a read-only (d, m, m) tensor view."""
        return matrix_tensor(self._left_matrix, self.adim, self.dim)

    @property
    def right(self):
        """The right action as a read-only (m, d, m) tensor view."""
        return matrix_tensor(self._right_matrix, self.dim, self.adim)

    def left_matrix(self):
        """Action A (x) M -> M as an m x (d m) matrix."""
        return self._left_matrix

    def right_matrix(self):
        """Action M (x) A -> M as an m x (m d) matrix."""
        return self._right_matrix

    def stacked_left(self):
        """(m d) x m matrix with block row (v, i) built from left[i][u][v]."""
        return self._left_matrix.reshape(self.dim * self.adim, self.dim)

    def right_slices(self):
        """For each basis index j of A, the m x m matrix of . e_j: the
        columns j, j + d, ... of the right matrix."""
        if self._right_slices is None:
            rho, d = self._right_matrix, self.adim
            self._right_slices = tuple(rho.columns(list(range(j, rho.cols, d))) for j in range(d))
        return self._right_slices

    def act_left(self, a_col, m_col):
        return self._left_matrix @ a_col.kron(m_col)

    def act_right(self, m_col, a_col):
        return self._right_matrix @ m_col.kron(a_col)

    def __eq__(self, other):
        return (
            isinstance(other, BimoduleActions)
            and self.adim == other.adim
            and self._left_matrix == other._left_matrix
            and self._right_matrix == other._right_matrix
        )

    def __repr__(self):
        return f"BimoduleActions({self.field}, adim={self.adim}, dim={self.dim})"


def zero_actions(field, adim, dim):
    zero = Matrix.zeros(field, dim, adim * dim)
    return BimoduleActions.from_matrices(adim, zero, zero)


def regular_actions(alg):
    """The algebra acting on itself by multiplication."""
    mu = alg.mult_matrix()
    return BimoduleActions.from_matrices(alg.dim, mu, mu)


def check_bimodule(alg, actions):
    """Associativity of the actions: (ab)m = a(bm), m(ab) = (ma)b, (am)b = a(mb)."""
    if actions.adim != alg.dim:
        raise ValueError("actions are over an algebra of different dimension")
    d, m = alg.dim, actions.dim
    mu, lam, rho = alg.mult_matrix(), actions.left_matrix(), actions.right_matrix()
    # lam (mu (x) Id_M) = lam (Id_A (x) lam), rho (Id_M (x) mu) = rho (rho
    # (x) Id_A) and rho (lam (x) Id_A) = lam (Id_A (x) rho)
    return first_failure([
        ("left_action", lam.times(mu, 1, m), lam.times(lam, d, 1), (d, d, m)),
        ("right_action", rho.times(mu, m, 1), rho.times(rho, 1, d), (m, d, d)),
        ("middle_action", rho.times(lam, 1, d), lam.times(rho, d, 1), (d, m, d)),
    ])


class MultiMap:
    """A linear map A^(x)n -> K^m stored as an m x d^n matrix.

    Arity 0 is Hom(K, M) identified with M itself, stored as an m x 1
    column holding f(1).
    """

    __slots__ = ("alg", "arity", "mat")

    def __init__(self, alg, arity, mat):
        d = alg.dim
        if mat.cols != d**arity:
            raise ValueError(f"matrix has {mat.cols} columns, expected {d**arity}")
        if mat.field != alg.field:
            raise ValueError("field mismatch")
        self.alg = alg
        self.arity = arity
        self.mat = mat

    @property
    def target_dim(self):
        return self.mat.rows

    @classmethod
    def zero(cls, alg, arity, target_dim):
        return cls(alg, arity, Matrix.zeros(alg.field, target_dim, alg.dim**arity))

    def __eq__(self, other):
        return (
            isinstance(other, MultiMap)
            and self.arity == other.arity
            and self.mat == other.mat
        )

    def apply(self, cols):
        """Evaluate on a tuple of coordinate columns."""
        if len(cols) != self.arity:
            raise ValueError("wrong number of arguments")
        arg = kron_all(self.alg.field, cols, empty_dim=1)
        return self.mat @ arg

    def __repr__(self):
        return f"MultiMap(arity={self.arity}, {self.mat.rows}x{self.mat.cols})"


def multimap_from_vector(alg, arity, target_dim, vec):
    """Reshape a coordinate column (row-major vec of the matrix) into a map."""
    d = alg.dim
    if vec.rows != target_dim * d**arity or vec.cols != 1:
        raise ValueError("coordinate vector has wrong length")
    return MultiMap(alg, arity, vec.reshape(target_dim, d**arity))


def multimap_vector(f):
    """Row-major coordinate column of a MultiMap (inverse of the above)."""
    return f.mat.reshape(f.mat.rows * f.mat.cols, 1)
