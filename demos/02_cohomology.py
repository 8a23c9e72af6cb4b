"""The three cochain complexes, their dimension tables, and the long exact
sequence.

Run:  python3 demos/02_cohomology.py
"""

from rbsys import (
    ALG,
    GF,
    QQ,
    RBS,
    RBSO,
    Algebra,
    Complexes,
    Matrix,
    RotaBaxterSystem,
    betti,
    les_check,
    rba_embedding_check,
    regular_bimodule,
    zero_algebra,
)


def show_table(tag, sys, mod, n):
    report = betti(tag, sys, mod, n)
    print(f"  {tag:>4}: ", end="")
    print("  ".join(f"H^{row['n']}={row['h']}" for row in report.rows))


# Smallest nontrivial instance: the zero algebra on one generator over
# GF(2) with zero operators and regular coefficients.
field = GF(2)
z = Matrix.zeros(field, 1, 1)
sys = RotaBaxterSystem(zero_algebra(field, 1), z, z)
mod = regular_bimodule(sys)

print("== GF(2) zero-structure instance ==")
for tag in (ALG, RBSO, RBS):
    show_table(tag, sys, mod, 3)

# Every slice squares to zero; spot-check the total complex on a basis of
# degree 0, applying each differential block by block.
cx = Complexes(sys, mod)
identity = Matrix.identity(field, cx.dim(RBS, 0))
print("d1 . d0 == 0:", cx.apply(RBS, 1, cx.apply(RBS, 0, identity)).is_zero())

# The induced long exact sequence relating the three cohomologies.
report = les_check(sys, mod, 3)
print("long exact sequence exact:", report.ok)
for slot in report.slots[:6]:
    print("  ", slot)

# A rational example with nontrivial operators: upper-triangular 2x2.
mult = [[[0] * 3 for _ in range(3)] for _ in range(3)]
mult[0][0][0] = mult[0][1][1] = mult[1][2][1] = mult[2][2][2] = 1
tri = Algebra(QQ, 3, mult)
R = Matrix.from_rows(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
S = Matrix.from_rows(QQ, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
tri_sys = RotaBaxterSystem(tri, R, S)
tri_mod = regular_bimodule(tri_sys)

print("\n== triangular instance over Q ==")
for tag in (ALG, RBSO, RBS):
    show_table(tag, tri_sys, tri_mod, 3)
print("long exact sequence exact:", les_check(tri_sys, tri_mod, 2).ok)

# Weight-lambda operators embed their own complex; the cokernel
# differential is checked entry for entry against its closed formula.
line = Algebra(QQ, 1, [[[1]]])
report = rba_embedding_check(line, Matrix.zeros(QQ, 1, 1), 1, 3)
print("\n== weight-1 embedding on the unital line ==")
for row in report.details:
    print("  degree", row["n"], "->", row)
