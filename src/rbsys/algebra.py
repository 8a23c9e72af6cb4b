"""Finite-dimensional associative algebras, bimodules, and multilinear maps.

An algebra is a structure-constant tensor c[i][j][k] (e_i e_j = sum_k
c[i][j][k] e_k); a bimodule is a pair of action tensors.  Multilinear maps
A^(x)n -> M are stored as m x d^n matrices against a single project-wide
column convention: the tuple (i_1, ..., i_n) of 0-based basis indices sits
in column sum_k i_k * d^(n-k), i.e. big-endian lexicographic.  All Kronecker
assembly elsewhere relies on this one convention.  The pair tensor_matrix /
matrix_tensor is the one place it is coded for tensors: an (a, b, k) tensor
t is the k x ab matrix whose column i b + j holds t[i][j][:].

Algebras need not be unital; nothing here assumes a unit.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .linalg import QQ, Matrix, kron_all


class Verdict:
    """Outcome of an axiom check: truthiness plus a minimal witness."""

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
    """The first failing first_mismatch over (tag, lhs, rhs, dims) checks."""
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


def tensor_matrix(field, t):
    """The (a, b, k) tensor t as a k x ab matrix: column i b + j holds t[i, j, :]."""
    a, b, k = t.shape
    return Matrix(field, t.transpose(2, 0, 1).reshape(k, a * b).copy())


def matrix_tensor(mat, a, b):
    """Inverse of tensor_matrix: the (a, b, k) tensor of a k x ab matrix."""
    return mat.a.reshape(mat.rows, a, b).transpose(1, 2, 0)


def _tensor3(field, data, shape):
    a = np.empty(shape, dtype=field.dtype)
    if list(np.shape(data)) != list(shape):
        raise ValueError(f"tensor has shape {np.shape(data)}, expected {shape}")
    for i in range(shape[0]):
        for j in range(shape[1]):
            for k in range(shape[2]):
                a[i, j, k] = field.coerce(data[i][j][k])
    a.setflags(write=False)
    return a


class Algebra:
    """Associative algebra given by structure constants over an exact field."""

    __slots__ = ("field", "dim", "mult", "_mult_matrix", "_assoc")

    def __init__(self, field, dim, mult):
        self.field = field
        self.dim = dim
        self.mult = _tensor3(field, mult, (dim, dim, dim))
        self._mult_matrix = None
        self._assoc = None  # verdict of check_associative, once computed

    def mult_matrix(self):
        """The multiplication as a d x d^2 matrix on tuple columns."""
        if self._mult_matrix is None:
            self._mult_matrix = tensor_matrix(self.field, self.mult)
        return self._mult_matrix

    def multiply(self, x, y):
        """Product of two coordinate columns."""
        return self.mult_matrix() @ x.kron(y)

    def basis(self, i):
        return Matrix.unit_column(self.field, self.dim, i)

    def constant(self, i, j, k):
        x = self.mult[i, j, k]
        return int(x) if isinstance(x, np.integer) else x

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and bool(np.array_equal(self.mult, other.mult))
        )

    def __repr__(self):
        return f"Algebra({self.field}, dim={self.dim})"


def zero_algebra(field, dim):
    """The dim-dimensional algebra with identically zero multiplication."""
    return Algebra(field, dim, np.zeros((dim, dim, dim), dtype=field.dtype))


def check_associative(alg):
    """Verify (e_i e_j) e_k = e_i (e_j e_k) on every basis triple."""
    if alg._assoc is None:
        mu = alg.mult_matrix()
        d = alg.dim
        idd = Matrix.identity(alg.field, d)
        alg._assoc = first_mismatch(
            "associativity", mu @ mu.kron(idd), mu @ idd.kron(mu), (d, d, d)
        )
    return alg._assoc


def check_nondegenerate(alg):
    """Fail when some nonzero b has bA = 0 or Ab = 0."""
    d, c = alg.dim, alg.mult
    # b -> (b e_i)_i and b -> (e_i b)_i as (i, k) x b matrices
    right_stack = c.reshape(d, d * d).T
    left_stack = c.transpose(0, 2, 1).reshape(d * d, d)
    for tag, stack in (("right_annihilator", right_stack), ("left_annihilator", left_stack)):
        ker = Matrix(alg.field, stack.copy()).kernel_basis()
        if ker.cols > 0:
            return Verdict(False, tag=tag, witness=ker.col(0).entries())
    return Verdict(True)


class BimoduleActions:
    """Left/right action tensors of an algebra on an m-dimensional space.

    left[i][u][v]: coefficient of f_v in e_i . f_u
    right[u][i][v]: coefficient of f_v in f_u . e_i
    """

    __slots__ = (
        "field", "adim", "dim", "left", "right", "_left_matrix", "_right_matrix", "_right_slices"
    )

    def __init__(self, field, adim, dim, left, right):
        self.field = field
        self.adim = adim
        self.dim = dim
        self.left = _tensor3(field, left, (adim, dim, dim))
        self.right = _tensor3(field, right, (dim, adim, dim))
        self._left_matrix = self._right_matrix = self._right_slices = None

    def left_matrix(self):
        """Action A (x) M -> M as an m x (d m) matrix."""
        if self._left_matrix is None:
            self._left_matrix = tensor_matrix(self.field, self.left)
        return self._left_matrix

    def right_matrix(self):
        """Action M (x) A -> M as an m x (m d) matrix."""
        if self._right_matrix is None:
            self._right_matrix = tensor_matrix(self.field, self.right)
        return self._right_matrix

    def stacked_left(self):
        """(m d) x m matrix with block row (v, i) built from left[i][u][v]."""
        m, d = self.dim, self.adim
        return self.left_matrix().reshape(m * d, m)

    def right_slices(self):
        """For each basis index j of A, the m x m matrix of . e_j."""
        if self._right_slices is None:
            self._right_slices = tuple(
                Matrix(self.field, self.right[:, j, :].T.copy()) for j in range(self.adim)
            )
        return self._right_slices

    def act_left(self, a_col, m_col):
        return self.left_matrix() @ a_col.kron(m_col)

    def act_right(self, m_col, a_col):
        return self.right_matrix() @ m_col.kron(a_col)

    def __eq__(self, other):
        return (
            isinstance(other, BimoduleActions)
            and self.field == other.field
            and (self.adim, self.dim) == (other.adim, other.dim)
            and bool(np.array_equal(self.left, other.left))
            and bool(np.array_equal(self.right, other.right))
        )

    def __repr__(self):
        return f"BimoduleActions({self.field}, adim={self.adim}, dim={self.dim})"


def zero_actions(field, adim, dim):
    z = np.zeros((adim, dim, dim), dtype=field.dtype)
    zr = np.zeros((dim, adim, dim), dtype=field.dtype)
    return BimoduleActions(field, adim, dim, z, zr)


def regular_actions(alg):
    """The algebra acting on itself by multiplication."""
    return BimoduleActions(alg.field, alg.dim, alg.dim, alg.mult, alg.mult)


def check_bimodule(alg, actions):
    """Associativity of the actions: (ab)m = a(bm), m(ab) = (ma)b, (am)b = a(mb)."""
    if actions.adim != alg.dim:
        raise ValueError("actions are over an algebra of different dimension")
    field = alg.field
    d, m = alg.dim, actions.dim
    mu = alg.mult_matrix()
    lam = actions.left_matrix()
    rho = actions.right_matrix()
    idd = Matrix.identity(field, d)
    idm = Matrix.identity(field, m)
    checks = [
        ("left_action", lam @ mu.kron(idm), lam @ idd.kron(lam), (d, d, m)),
        ("right_action", rho @ idm.kron(mu), rho @ rho.kron(idd), (m, d, d)),
        ("middle_action", rho @ lam.kron(idd), lam @ idd.kron(rho), (d, m, d)),
    ]
    return first_failure(checks)


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

    def __add__(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return MultiMap(self.alg, self.arity, self.mat + other.mat)

    def __sub__(self, other):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return MultiMap(self.alg, self.arity, self.mat - other.mat)

    def __neg__(self):
        return MultiMap(self.alg, self.arity, -self.mat)

    def apply(self, cols):
        """Evaluate on a tuple of coordinate columns."""
        if len(cols) != self.arity:
            raise ValueError("wrong number of arguments")
        arg = kron_all(self.alg.field, cols, empty_dim=1)
        return self.mat @ arg

    def compose_with_mult(self, slot):
        """Feed the product of arguments slot, slot+1 into argument slot.

        Returns the arity n+1 map (a_1, ..., a_{n+1}) |->
        f(a_1, ..., a_slot a_{slot+1}, ..., a_{n+1}); slot is 1-based.
        """
        n = self.arity
        if not 1 <= slot <= n:
            raise ValueError(f"slot {slot} out of range 1..{n}")
        d = self.alg.dim
        field = self.alg.field
        k = kron_all(
            field,
            [
                Matrix.identity(field, d ** (slot - 1)),
                self.alg.mult_matrix(),
                Matrix.identity(field, d ** (n - slot)),
            ],
        )
        return MultiMap(self.alg, n + 1, self.mat @ k)

    def precompose_operators(self, ops):
        """f composed with op_1 (x) ... (x) op_n on the arguments."""
        if len(ops) != self.arity:
            raise ValueError(f"need {self.arity} operators, got {len(ops)}")
        d = self.alg.dim
        for op in ops:
            if op.shape != (d, d):
                raise ValueError(f"operator shape {op.shape}, expected ({d}, {d})")
        k = kron_all(self.alg.field, list(ops), empty_dim=1)
        return MultiMap(self.alg, self.arity, self.mat @ k)

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
