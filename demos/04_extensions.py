"""Abelian extensions from 2-cocycles and back, the class census, and the
shear isomorphism between cohomologous payloads.

Run:  python3 demos/04_extensions.py
"""

import random

from rbsys import (
    GF,
    Cochain,
    Complexes,
    Matrix,
    MultiMap,
    RBS,
    RotaBaxterSystem,
    build_extension,
    check_extension,
    check_iso,
    extract_cocycle,
    h2_extension_census,
    iso_from_cohomologous,
    multimap_vector,
    regular_bimodule,
    vstack,
    zero_algebra,
    zero_cocycle,
)
from rbsys.extensions import cocycle_from_cochain

rng = random.Random(0)

field = GF(2)
z = Matrix.zeros(field, 1, 1)
sys = RotaBaxterSystem(zero_algebra(field, 1), z, z)
mod = regular_bimodule(sys)

print("== census of extension classes over GF(2) ==")
entries = h2_extension_census(sys, mod)
print("degree-2 cohomology dimension:", len(entries) - 1)
for k, (c, ext) in enumerate(entries):
    label = "trivial (semidirect)" if k == 0 else f"class {k - 1}"
    print(f"  {label}: total dim {ext.hat.dim}, valid: {bool(check_extension(ext))}")

print("\n== round trip through a presented extension ==")
c = entries[2][0]
ext = build_extension(sys, mod, c)
back = extract_cocycle(ext)
print("extract(build(c)) == c:", back == c)

# Changing the section shifts the payload by an explicit coboundary.
gamma = MultiMap(sys.alg, 1, Matrix.identity(field, 1))
t2 = ext.section - ext.incl @ gamma.mat
c_t2 = extract_cocycle(ext, t2)
cx = Complexes(sys, mod)
gvec = vstack([
    multimap_vector(gamma),
    Matrix.zeros(field, 1, 1),
    Matrix.zeros(field, 1, 1),
])
dgamma = cx.d(Cochain(RBS, 1, gvec))
diff = back.as_cochain().vector - c_t2.as_cochain().vector
print("section change = coboundary of the difference map:", diff == dgamma)

# Cohomologous payloads give isomorphic extensions through the shear
# (a, m) -> (a, -gamma(a) + m).
c2vec = c.as_cochain().vector + dgamma
c2 = cocycle_from_cochain(sys, mod, Cochain(RBS, 2, c2vec))
iso = iso_from_cohomologous(sys, mod, c, c2, gamma)
ext2 = build_extension(sys, mod, c2)
print("\n== shear isomorphism ==")
print("zeta =", iso.zeta.entries())
print("commutes with both legs:", bool(check_iso(ext, ext2, iso)))

print("\n== the trivial class is the semidirect product ==")
triv = build_extension(sys, mod, zero_cocycle(sys, mod))
print("kernel embeds, quotient splits, operators block-diagonal:")
print("  R_hat =", triv.hat.R.entries())
