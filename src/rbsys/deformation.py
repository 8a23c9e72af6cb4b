"""Truncated formal deformations of a Rota-Baxter system.

A deformation of order N is a triple of coefficient families mu_0..mu_N,
R_0..R_N, S_0..S_N (normalised so order 0 is the undeformed structure),
read as power series truncated after t^N.  Verification expands the three
defining equations of a deformed system and collects the coefficient of
each t^n:

  assoc_n = sum_{i+j=n}   mu_i(mu_j (x) Id) - mu_i(Id (x) mu_j)
  resR_n  = sum_{i+j+k=n} mu_i(R_j (x) R_k) - R_i mu_j(R_k (x) Id)
                                            - R_i mu_j(Id (x) S_k)
  resS_n  = the same with S outside and mu_i(S_j (x) S_k) inside

Both operator residuals share the series inner_p = sum_{j+k=p} mu_j(R_k (x)
Id + Id (x) S_k), so resR_n = sum_i mu_i RR_{n-i} - R_i inner_{n-i} with
RR_p = sum_{j+k=p} R_j (x) R_k, and resS_n likewise with S and SS_p.

Gauges are truncated series Id + Psi_1 t + ... acting by conjugation.  The
leading nonzero coefficient of a valid deformation is a 2-cocycle of the
total complex (the residual of its order is rbs_2 of it), so a verified
deformation needs no cocycle test, and gauge changes move it by a coboundary.

An operator-only deformation, with the multiplication held fixed, is the
deformation whose mu series is [mu | 0 | ... | 0].  Its order-t cochain is
(0, (R_1, S_1)), and since d(0, (x, y)) = (0, -partial(x, y)) that is a
2-cocycle exactly when (R_1, S_1) is a 1-cocycle of the operator complex.

A coefficient family c_0..c_N of r x k maps is stored as one stacked
series [c_0 | c_1 | ... | c_N], an r x (N+1)k matrix.  Every product of
series (the residuals, gauge composition and gauge action) is then one
matrix product: the truncated Cauchy product [sum_{i+j=n} a_i b_j] is
[a_0 | ... ] @ T(b), with T(b) block-Toeplitz, block (i, n) = b_(n-i) for
n >= i and zero otherwise (linalg.block_toeplitz).  A Kronecker Cauchy
product sum_{i+j=n} a_i (x) b_j is the Cauchy product of the series
[a_i (x) Id] and [Id (x) b_j], since a_i (x) b_j = (a_i (x) Id)(Id (x)
b_j); each factor is one kron of a whole series, the second with its
columns regrouped by order.  Series are split into per-order matrices only
at the interface: the mus, Rs, Ss and psis lists and the per-order
residuals of a report.
"""

from __future__ import annotations

from .algebra import MultiMap, multimap_from_vector
from .cohomology import RBS, Complexes, pack_rbs_cochain
from .cohomology import hochschild_slice, phi  # noqa: F401  (re-exported: read from here)
from .bimodules import regular_bimodule
from .linalg import Matrix, block_toeplitz, hstack, regroup_columns


def _orders(series, count, lo, hi):
    """Coefficients lo..hi - 1 of a series of count coefficients, stacked."""
    if (lo, hi) == (0, count):
        return series
    width = series.cols // count
    return series.take_cols(lo * width, hi * width)


def _split(series, count):
    """The count coefficients of a series, as a list."""
    return [_orders(series, count, n, n + 1) for n in range(count)]


def _by_order(families, count):
    """[(x_n, y_n, ...) for n < count] of series x, y, ... of count coefficients."""
    return list(zip(*(_split(x, count) for x in families)))


def _vanish(families, count, lo, hi):
    """True when the series families, of count coefficients, vanish in orders lo..hi - 1."""
    return lo >= hi or all(_orders(x, count, lo, hi).is_zero() for x in families)


def _stack(family):
    if len({m.shape for m in family}) != 1:
        raise ValueError("the coefficients of a family must share one shape")
    return hstack(family)


def _cauchy(a, b, count):
    """The truncated Cauchy product [sum_{i+j=n} a_i b_j for n < count] of
    series a and b, where b holds count coefficients and a at most as many
    (its missing ones are zero)."""
    return a @ block_toeplitz(b, count, a.cols // b.rows)


def _kron_factors(x, count):
    """The series [x_i (x) Id] and [Id (x) x_i] of a series x of count
    coefficients with d rows, Id the d x d identity.  For d x d maps x_i and
    maps y_j with d rows, sum_{i+j=n} x_i (x) y_j is _cauchy of the first
    series of x and the second of y."""
    idd = Matrix.identity(x.field, x.rows)
    return x.kron(idd), regroup_columns(idd.kron(x), x.rows, count)


class DeformationData:
    """Coefficient families (mus, Rs, Ss) of a deformation truncated at order N.

    They are stored as the series (mu, R, S) in ``series``; the lists are
    split off the series on each read.
    """

    __slots__ = ("order", "series")

    def __init__(self, order, mus, Rs, Ss):
        if not (len(mus) == len(Rs) == len(Ss) == order + 1):
            raise ValueError(f"need {order + 1} coefficients per family")
        self.order = order
        self.series = (_stack(mus), _stack(Rs), _stack(Ss))

    @classmethod
    def from_series(cls, order, mu, R, S):
        """The deformation of the series mu, R and S, taken as they are."""
        defn = cls.__new__(cls)
        defn.order, defn.series = order, (mu, R, S)
        return defn

    @property
    def mus(self):
        return _split(self.series[0], self.order + 1)

    @property
    def Rs(self):
        return _split(self.series[1], self.order + 1)

    @property
    def Ss(self):
        return _split(self.series[2], self.order + 1)

    def coefficients(self, k):
        """(mu_k, R_k, S_k)."""
        return tuple(_orders(x, self.order + 1, k, k + 1) for x in self.series)

    def __eq__(self, other):
        return (
            isinstance(other, DeformationData)
            and self.order == other.order
            and self.series == other.series
        )

    def coefficients_vanish(self, lo, hi):
        """True when mus, Rs, Ss are all zero in orders lo..hi inclusive."""
        return _vanish(self.series, self.order + 1, lo, min(hi, self.order) + 1)

    def __repr__(self):
        return f"DeformationData(order={self.order})"


def constant_deformation(sys, order):
    """The deformation with no higher coefficients at all."""
    field, d = sys.field, sys.dim
    zmu = Matrix.zeros(field, d, d * d)
    zop = Matrix.zeros(field, d, d)
    mus = [sys.alg.mult_matrix()] + [zmu] * order
    return DeformationData(order, mus, [sys.R] + [zop] * order, [sys.S] + [zop] * order)


class DeformationReport:
    """The residual series (assoc, resR, resS) of a deformation through
    order count - 1; the deformation is valid when every residual is zero.
    The orders with a nonzero residual are read off the series once, and
    every verdict reads them; ``residuals`` splits the series into per-order
    matrices only when it is read."""

    __slots__ = ("series", "count", "_failing")

    def __init__(self, series, count):
        self.series = series
        self.count = count
        self._failing = sorted({c // (x.cols // count) for x in series for c in x.nonzero_cols()})

    @property
    def residuals(self):
        """The per-order residuals: for each n < count, the tuple of the
        order-n coefficients of the series, (assoc_n, resR_n, resS_n)."""
        return _by_order(self.series, self.count)

    def failing_orders(self):
        return list(self._failing)

    @property
    def ok(self):
        return not self._failing

    def ok_through(self, order):
        return not self._failing or self._failing[0] > order

    def first_failure(self):
        return self._failing[0] if self._failing else None

    def __repr__(self):
        return f"DeformationReport(ok={self.ok})"


def _deformation_residuals(mu, R, S, count):
    """The series assoc, resR and resS, through order count - 1."""
    mu_id, id_mu = _kron_factors(mu, count)
    r_id, id_r = _kron_factors(R, count)
    s_id, id_s = _kron_factors(S, count)
    inner = _cauchy(mu, r_id + id_s, count)
    res_r = _cauchy(mu, _cauchy(r_id, id_r, count), count) - _cauchy(R, inner, count)
    res_s = _cauchy(mu, _cauchy(s_id, id_s, count), count) - _cauchy(S, inner, count)
    return _cauchy(mu, mu_id - id_mu, count), res_r, res_s


def verify_deformation(sys, defn):
    """Expand the deformed equations and report the residual of each order."""
    mu, R, S = defn.coefficients(0)
    if mu != sys.alg.mult_matrix() or R != sys.R or S != sys.S:
        raise ValueError("deformation is not normalised to the undeformed structure at order 0")
    count = defn.order + 1
    return DeformationReport(_deformation_residuals(*defn.series, count), count)


def infinitesimal(sys, defn, cap=None):
    """The order-t coefficient of a deformation that holds through order 1,
    as a degree-2 total cochain: a 2-cocycle, as its order-1 residual is
    rbs_2 of it, so it is not tested again.  cap guards C^2_rbs, its space.
    """
    report = verify_deformation(sys, defn)
    if defn.order < 1:
        raise ValueError("need at least order 1")
    if not report.ok_through(1):
        raise ValueError("order-1 deformation equations fail")
    Complexes(sys, regular_bimodule(sys), cap).guard([(RBS, 1)])
    return _order_cochain(sys, defn, 1)


def _order_cochain(sys, defn, k):
    """The order-k coefficients (mu_k, (R_k, S_k)) as a degree-2 total cochain."""
    mu, R, S = defn.coefficients(k)
    return pack_rbs_cochain(
        MultiMap(sys.alg, 2, mu), MultiMap(sys.alg, 1, R), MultiMap(sys.alg, 1, S)
    )


class GaugeSeries:
    """A truncated series Id + Psi_1 t + ... + Psi_N t^N of maps A -> A.

    It is stored as the series [Id | Psi_1 | ... | Psi_N] in ``series``;
    the list psis is split off it on each read.
    """

    __slots__ = ("order", "series")

    def __init__(self, order, psis):
        if len(psis) != order + 1:
            raise ValueError(f"need {order + 1} coefficients")
        first = psis[0]
        if first != Matrix.identity(first.field, first.rows):
            raise ValueError("order-0 coefficient must be the identity")
        self.order = order
        self.series = _stack(psis)

    @classmethod
    def from_series(cls, order, series):
        """The gauge of a series whose first coefficient is the identity."""
        g = cls.__new__(cls)
        g.order, g.series = order, series
        return g

    @property
    def psis(self):
        return _split(self.series, self.order + 1)

    def __eq__(self, other):
        return (
            isinstance(other, GaugeSeries)
            and self.order == other.order
            and self.series == other.series
        )

    def __repr__(self):
        return f"GaugeSeries(order={self.order})"


def identity_gauge(field, d, order):
    zero = Matrix.zeros(field, d, d)
    return GaugeSeries(order, [Matrix.identity(field, d)] + [zero] * order)


def compose_gauges(g, h):
    """The series of x -> g(h(x)), truncated at the common order."""
    if g.order != h.order:
        raise ValueError("order mismatch")
    return GaugeSeries.from_series(g.order, _cauchy(g.series, h.series, g.order + 1))


def gauge_inverse(g):
    """Series inverse: compose_gauges(gauge_inverse(g), g) is the identity.

    theta_n = -sum_{i<n} theta_i Psi_(n-i) is one product of [theta_0 | ...
    | theta_(n-1)] with block column n of the block-Toeplitz matrix of g.
    """
    d, count = g.series.rows, g.order + 1
    t = block_toeplitz(g.series, count, count)
    inv = Matrix.identity(g.series.field, d)
    for n in range(1, count):
        inv = hstack([inv, -(inv @ t.take(0, n * d, n * d, (n + 1) * d))])
    return GaugeSeries.from_series(g.order, inv)


def apply_gauge(defn, g):
    """Transport a deformation along a gauge.

    mu' = g^-1 o mu o (g (x) g), R' = g^-1 o R o g, S' likewise, truncated.
    A valid deformation stays valid.
    """
    if g.order != defn.order:
        raise ValueError("order mismatch")
    count = g.order + 1
    inv, psi = gauge_inverse(g).series, g.series
    psi_id, id_psi = _kron_factors(psi, count)
    mu, R, S = defn.series

    def conjugate(x, right):
        return _cauchy(_cauchy(inv, x, count), right, count)

    return DeformationData.from_series(
        defn.order,
        conjugate(mu, _cauchy(psi_id, id_psi, count)),
        conjugate(R, psi),
        conjugate(S, psi),
    )


def _gauge_step(cx, defn, n):
    """Kill the order n + 1 coefficient of a valid deformation, whose
    coefficients vanish in orders 1..n, with a gauge Id - Psi t^(n+1).

    Packages the next coefficient as a degree-2 cochain, a cocycle since the
    deformation is valid (so not tested again), and solves the gauge-shaped
    system d(Psi, (0, 0)) = cocycle on cx.alg_column(1); returns (gauge,
    transformed), or None when that restricted system is inconsistent.
    """
    sys = cx.sys
    target = _order_cochain(sys, defn, n + 1)
    field, d = sys.field, sys.dim
    # d(Psi, (0, 0)) is the first block column of rbs_1: (delta_1, -phi_1)
    solution = cx.alg_column(1).solve(target.vector)
    if solution is None:
        return None
    psi = multimap_from_vector(sys.alg, 1, d, solution).mat
    zero = Matrix.zeros(field, d, d)
    psis = [Matrix.identity(field, d)] + [zero] * defn.order
    psis[n + 1] = -psi
    gauge = GaugeSeries(defn.order, psis)
    transformed = apply_gauge(defn, gauge)
    if not transformed.coefficients_vanish(1, n + 1):
        raise AssertionError("gauge step failed to clear the target order")
    return gauge, transformed


class RigidifyReport:
    __slots__ = ("success", "gauge", "result", "stuck_order", "stuck_class")

    def __init__(self, success, gauge, result, stuck_order=None, stuck_class=None):
        self.success = success
        self.gauge = gauge
        self.result = result
        self.stuck_order = stuck_order
        self.stuck_class = stuck_class

    def __repr__(self):
        if self.success:
            return f"RigidifyReport(success, order={self.gauge.order})"
        return f"RigidifyReport(stuck at order {self.stuck_order})"


def rigidify(sys, defn, cap=None):
    """Trivialise order by order; report the composite gauge or where it sticks.

    The input is verified, and so is the result if it is not the input (a
    failure there is a bug); a gauge keeps a deformation valid (apply_gauge).
    """
    report = verify_deformation(sys, defn)
    if not report.ok:
        raise ValueError("deformation equations fail")
    cx = Complexes(sys, regular_bimodule(sys), cap)
    current = defn
    composite = identity_gauge(sys.field, sys.dim, defn.order)
    for n in range(defn.order):
        if current.coefficients_vanish(n + 1, n + 1):
            continue
        step = _gauge_step(cx, current, n)
        if step is None:
            break
        gauge, current = step
        composite = compose_gauges(composite, gauge)
    if current is not defn and not verify_deformation(sys, current).ok:
        raise AssertionError("a gauge step produced a deformation that fails its equations")
    if current.coefficients_vanish(1, defn.order):
        return RigidifyReport(True, composite, current)
    return RigidifyReport(False, composite, current, n + 1, _order_cochain(sys, current, n + 1))
