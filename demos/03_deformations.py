"""Truncated formal deformations: verification, infinitesimals, gauges,
and order-by-order trivialisation.

Run:  python3 demos/03_deformations.py
"""

import random

from rbsys import (
    GF,
    QQ,
    Algebra,
    Complexes,
    DeformationData,
    GaugeSeries,
    Matrix,
    RotaBaxterSystem,
    apply_gauge,
    constant_deformation,
    gauge_inverse,
    infinitesimal,
    regular_bimodule,
    rigidify,
    verify_deformation,
    zero_algebra,
)

rng = random.Random(0)

# Base system: the triangular algebra with its annihilating operator pair.
mult = [[[0] * 3 for _ in range(3)] for _ in range(3)]
mult[0][0][0] = mult[0][1][1] = mult[1][2][1] = mult[2][2][2] = 1
tri = Algebra(QQ, 3, mult)
R = Matrix.from_rows(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
S = Matrix.from_rows(QQ, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
sys = RotaBaxterSystem(tri, R, S)

# Transport the constant deformation along a random gauge Id + P1 t + P2 t^2.
N = 2
psis = [Matrix.identity(QQ, 3)] + [
    Matrix.from_rows(QQ, [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
    for _ in range(N)
]
g = GaugeSeries(N, psis)
defn = apply_gauge(constant_deformation(sys, N), g)

print("== a gauged-constant deformation ==")
report = verify_deformation(sys, defn)
print("verifies through order", N, ":", report.ok)
print("order-1 multiplication coefficient:")
print("  ", defn.mus[1].entries())

cochain = infinitesimal(sys, defn)
print("infinitesimal is a degree-2 cocycle:", Complexes(sys, regular_bimodule(sys)).is_cocycle(cochain))

# Rigidification walks back to the constant family order by order.
result = rigidify(sys, defn)
print("\n== rigidify ==")
print("success:", result.success)
final = apply_gauge(defn, result.gauge)
print("coefficients vanish through order", N, ":", final.coefficients_vanish(1, N))
print("recovered gauge at order 1:")
print("  ", result.gauge.psis[1].entries())
print("inverse-of-input gauge at order 1 (for comparison):")
print("  ", gauge_inverse(g).psis[1].entries())

# A deformation that cannot be trivialised: over the GF(2) zero structure
# the degree-2 cohomology is 3-dimensional and the relevant coboundary map
# vanishes, so any nonzero order-1 coefficient sticks.
field = GF(2)
z = Matrix.zeros(field, 1, 1)
zsys = RotaBaxterSystem(zero_algebra(field, 1), z, z)
stuck_def = DeformationData(
    1,
    [zsys.alg.mult_matrix(), Matrix.identity(field, 1)],
    [zsys.R, z],
    [zsys.S, z],
)
print("\n== an obstructed deformation over GF(2) ==")
print("verifies:", verify_deformation(zsys, stuck_def).ok)
result = rigidify(zsys, stuck_def)
print("success:", result.success, " stuck at order:", result.stuck_order)
print("obstructing cocycle coordinates:", [
    result.stuck_class.vector[i, 0] for i in range(result.stuck_class.vector.rows)
])
