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

Gauges are truncated series Id + Psi_1 t + ... acting by conjugation; the
order-t coefficient of any valid deformation is a 2-cocycle of the total
complex, and gauge changes move it by a coboundary.

Every product of series here (the residuals, gauge composition and gauge
action) is one truncated Cauchy product, _series.
"""

from __future__ import annotations

import operator

from .algebra import MultiMap, multimap_from_vector
from .cohomology import ALG, Complexes, pack_rbs_cochain, pack_rbso_cochain
from .cohomology import hochschild_slice, phi  # noqa: F401  (re-exported: read from here)
from .bimodules import regular_bimodule
from .linalg import Matrix


class DeformationData:
    """Coefficient families (mus, Rs, Ss) of a deformation truncated at order N."""

    __slots__ = ("order", "mus", "Rs", "Ss")

    def __init__(self, order, mus, Rs, Ss):
        if not (len(mus) == len(Rs) == len(Ss) == order + 1):
            raise ValueError(f"need {order + 1} coefficients per family")
        self.order = order
        self.mus = list(mus)
        self.Rs = list(Rs)
        self.Ss = list(Ss)

    def __eq__(self, other):
        return (
            isinstance(other, DeformationData)
            and self.order == other.order
            and self.mus == other.mus
            and self.Rs == other.Rs
            and self.Ss == other.Ss
        )

    def coefficients_vanish(self, lo, hi):
        """True when mus, Rs, Ss are all zero in orders lo..hi inclusive."""
        return all(
            self.mus[k].is_zero() and self.Rs[k].is_zero() and self.Ss[k].is_zero()
            for k in range(lo, min(hi, self.order) + 1)
        )

    def __repr__(self):
        return f"DeformationData(order={self.order})"


def constant_deformation(sys, order):
    """The deformation with no higher coefficients at all."""
    field, d = sys.field, sys.dim
    zmu = Matrix.zeros(field, d, d * d)
    zop = Matrix.zeros(field, d, d)
    mus = [sys.alg.mult_matrix()] + [zmu] * order
    return DeformationData(order, mus, [sys.R] + [zop] * order, [sys.S] + [zop] * order)


def _check_normalised(sys, defn):
    if defn.mus[0] != sys.alg.mult_matrix() or defn.Rs[0] != sys.R or defn.Ss[0] != sys.S:
        raise ValueError("deformation is not normalised to the undeformed structure at order 0")


class DeformationReport:
    """Per-order residual maps; empty residuals at every order means valid."""

    __slots__ = ("residuals",)

    def __init__(self, residuals):
        self.residuals = residuals

    def failing_orders(self):
        return [n for n, res in enumerate(self.residuals) if not all(r.is_zero() for r in res)]

    @property
    def ok(self):
        return not self.failing_orders()

    def ok_through(self, order):
        return all(n > order for n in self.failing_orders())

    def first_failure(self):
        return next(iter(self.failing_orders()), None)

    def __repr__(self):
        return f"DeformationReport(ok={self.ok})"


def _series(a, b, op=operator.matmul):
    """Truncated Cauchy product: [sum_{i+j=n} op(a_i, b_j) for n < len(b)].

    a may be shorter than b; its missing coefficients are zero.
    """
    out = []
    for n in range(len(b)):
        terms = (op(a[i], b[n - i]) for i in range(1, min(n, len(a) - 1) + 1))
        out.append(sum(terms, op(a[0], b[n])))
    return out


def _operator_residuals(mus, Rs, Ss):
    """Per-order (resR_n, resS_n) of the two operator equations.

    mus may be shorter than Rs and Ss; the missing mu coefficients are zero.
    """
    idd = Matrix.identity(Rs[0].field, Rs[0].rows)
    inner = _series(mus, [R.kron(idd) + idd.kron(S) for R, S in zip(Rs, Ss)])

    def residual(ops):
        twice = _series(ops, ops, Matrix.kron)
        return [x - y for x, y in zip(_series(mus, twice), _series(ops, inner))]

    return list(zip(residual(Rs), residual(Ss)))


def _deformation_residuals(mus, Rs, Ss):
    idd = Matrix.identity(Rs[0].field, Rs[0].rows)
    assoc = _series(mus, [mu.kron(idd) - idd.kron(mu) for mu in mus])
    return [(a, *res) for a, res in zip(assoc, _operator_residuals(mus, Rs, Ss))]


def verify_deformation(sys, defn):
    """Expand the deformed equations and report the residual of each order."""
    _check_normalised(sys, defn)
    return DeformationReport(_deformation_residuals(defn.mus, defn.Rs, defn.Ss))


def infinitesimal(sys, defn, cap=None):
    """Package the order-t coefficient as a degree-2 total cochain.

    Requires the deformation to hold through order 1; returns the cochain
    together with its cocycle verdict (always true for valid input).
    """
    _check_normalised(sys, defn)
    if defn.order < 1:
        raise ValueError("need at least order 1")
    report = verify_deformation(sys, defn)
    if not report.ok_through(1):
        raise ValueError("order-1 deformation equations fail")
    cochain = _order_cochain(sys, defn, 1)
    return cochain, Complexes(sys, regular_bimodule(sys), cap).is_cocycle(cochain)


def _order_cochain(sys, defn, k):
    """The order-k coefficients (mu_k, (R_k, S_k)) as a degree-2 total cochain."""
    return pack_rbs_cochain(
        MultiMap(sys.alg, 2, defn.mus[k]),
        MultiMap(sys.alg, 1, defn.Rs[k]),
        MultiMap(sys.alg, 1, defn.Ss[k]),
    )


class GaugeSeries:
    """A truncated series Id + Psi_1 t + ... + Psi_N t^N of maps A -> A."""

    __slots__ = ("order", "psis")

    def __init__(self, order, psis):
        if len(psis) != order + 1:
            raise ValueError(f"need {order + 1} coefficients")
        first = psis[0]
        if first != Matrix.identity(first.field, first.rows):
            raise ValueError("order-0 coefficient must be the identity")
        self.order = order
        self.psis = list(psis)

    def __eq__(self, other):
        return (
            isinstance(other, GaugeSeries)
            and self.order == other.order
            and self.psis == other.psis
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
    return GaugeSeries(g.order, _series(g.psis, h.psis))


def gauge_inverse(g):
    """Series inverse: compose_gauges(gauge_inverse(g), g) is the identity."""
    thetas = [Matrix.identity(g.psis[0].field, g.psis[0].rows)]
    for n in range(1, g.order + 1):
        terms = (thetas[n - j] @ g.psis[j] for j in range(2, n + 1))
        thetas.append(-sum(terms, thetas[n - 1] @ g.psis[1]))
    return GaugeSeries(g.order, thetas)


def apply_gauge(defn, g):
    """Transport a deformation along a gauge.

    mu' = g^-1 o mu o (g (x) g), R' = g^-1 o R o g, S' likewise, truncated.
    A valid deformation stays valid.
    """
    if g.order != defn.order:
        raise ValueError("order mismatch")
    inv, psis = gauge_inverse(g).psis, g.psis

    def conjugate(coeffs, right):
        return _series(_series(inv, coeffs), right)

    return DeformationData(
        defn.order,
        conjugate(defn.mus, _series(psis, psis, Matrix.kron)),
        conjugate(defn.Rs, psis),
        conjugate(defn.Ss, psis),
    )


def trivialize_step(sys, defn, n):
    """Kill the order n + 1 coefficient with a gauge Id - Psi t^(n+1).

    Requires the deformation to verify and its coefficients to vanish in
    orders 1..n.  Packages the next coefficient as a degree-2 cochain
    (asserting it is a cocycle) and solves the gauge-shaped coboundary
    system d(Psi, (0, 0)) = cocycle; returns None when that restricted
    system is inconsistent.
    """
    _check_normalised(sys, defn)
    if n + 1 > defn.order:
        raise ValueError("nothing to trivialise beyond the truncation order")
    if not defn.coefficients_vanish(1, n):
        raise ValueError(f"coefficients in orders 1..{n} must vanish first")
    report = verify_deformation(sys, defn)
    if not report.ok:
        raise ValueError("deformation equations fail")
    return _gauge_step(Complexes(sys, regular_bimodule(sys)), defn, n)


def _gauge_step(cx, defn, n):
    """trivialize_step on a verified deformation, reading slices from cx."""
    sys = cx.sys
    target = _order_cochain(sys, defn, n + 1)
    if not cx.is_cocycle(target):
        raise AssertionError("leading coefficient of a valid deformation is not a cocycle")
    field, d = sys.field, sys.dim
    # d(Psi, (0, 0)) is the first block column of rbs_1: (delta_1, -phi_1)
    solution = cx.rbs(1).take_cols(0, cx.dim(ALG, 1)).solve(target.vector)
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

    The input is verified once; each deformation a gauge step produces is
    verified before the next step runs on it, as trivialize_step would.
    """
    _check_normalised(sys, defn)
    report = verify_deformation(sys, defn)
    if not report.ok:
        raise ValueError("deformation equations fail")
    cx = Complexes(sys, regular_bimodule(sys), cap)
    current = defn
    composite = identity_gauge(sys.field, sys.dim, defn.order)
    for n in range(defn.order):
        if current.coefficients_vanish(n + 1, n + 1):
            continue
        if current is not defn and not verify_deformation(sys, current).ok:
            raise ValueError("deformation equations fail")
        step = _gauge_step(cx, current, n)
        if step is None:
            stuck = _order_cochain(sys, current, n + 1)
            return RigidifyReport(False, composite, current, n + 1, stuck)
        gauge, current = step
        composite = compose_gauges(composite, gauge)
    return RigidifyReport(True, composite, current)


class OperatorDeformation:
    """Operator coefficient families with the multiplication held fixed."""

    __slots__ = ("order", "Rs", "Ss")

    def __init__(self, order, Rs, Ss):
        if not (len(Rs) == len(Ss) == order + 1):
            raise ValueError(f"need {order + 1} coefficients per family")
        self.order = order
        self.Rs = list(Rs)
        self.Ss = list(Ss)

    def __repr__(self):
        return f"OperatorDeformation(order={self.order})"


def constant_operator_deformation(sys, order):
    zop = Matrix.zeros(sys.field, sys.dim, sys.dim)
    return OperatorDeformation(order, [sys.R] + [zop] * order, [sys.S] + [zop] * order)


def verify_operator_deformation(sys, od):
    """Per-order residuals of the operator equations with mu fixed."""
    if od.Rs[0] != sys.R or od.Ss[0] != sys.S:
        raise ValueError("operator deformation is not normalised at order 0")
    return _operator_residuals([sys.alg.mult_matrix()], od.Rs, od.Ss)


def operator_deformation_ok(residuals, through=None):
    take = residuals if through is None else residuals[: through + 1]
    return all(r.is_zero() and s.is_zero() for r, s in take)


def operator_infinitesimal(sys, od):
    """Package (R_1, S_1) as a degree-1 operator cochain and check it."""
    if od.order < 1:
        raise ValueError("need at least order 1")
    residuals = verify_operator_deformation(sys, od)
    if not operator_deformation_ok(residuals, through=1):
        raise ValueError("order-1 operator deformation equations fail")
    cochain = pack_rbso_cochain(
        MultiMap(sys.alg, 1, od.Rs[1]), MultiMap(sys.alg, 1, od.Ss[1])
    )
    return cochain, Complexes(sys, regular_bimodule(sys)).is_cocycle(cochain)
