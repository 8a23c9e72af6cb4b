"""Valid-by-construction systems and bimodules, scrambled by base changes.

The benchmark generates its own inputs so that editing the test suite can
never change a workload.  Four seed families are used, each valid by
construction:

  zero   zero multiplication: any operator pair is a system, and any
         zero-action bimodule with arbitrary (R_M, S_M) is a bimodule;
  line   the unital line with (r, 0) or (0, s);
  tri    upper-triangular 2x2 matrices with R = right multiplication by
         a e_12 and S = left multiplication by b e_12;
  idem   the diagonal algebra K^n with a weight-lambda operator
         -lambda * (projection onto some coordinates), as either of its
         two systems.

A family's parameters are fixed by the slot that uses it, so cohomology
dimensions, exactness and H^2 never depend on the run seed.  The seed only
draws the invertible base changes that scramble each instance; base
changes preserve every axiom and every dimension exactly.
"""

from __future__ import annotations

import random

from rbsys import (
    GF,
    QQ,
    Algebra,
    Matrix,
    RBSBimodule,
    RotaBaxterSystem,
    conjugate_bimodule,
    from_rb_operator,
    regular_bimodule,
    zero_actions,
    zero_algebra,
)

FIELDS = {"Q": QQ, "2": GF(2), "5": GF(5), "40009": GF(40009)}


def slot_rng(name):
    """Seed-independent generator for a slot's fixed parameters."""
    return random.Random(name)


def run_rng(*parts):
    """Generator for the scrambles of one slot in one document set."""
    return random.Random(":".join(str(p) for p in parts))


def random_scalar(field, rng):
    if field.is_prime_field:
        return rng.randrange(field.p)
    return rng.randint(-2, 2)


def random_matrix(field, rows, cols, rng):
    return Matrix.from_rows(
        field, [[random_scalar(field, rng) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(field, n, rng):
    while True:
        m = random_matrix(field, n, n, rng)
        if m.inverse() is not None:
            return m


def _mult_tensor(d, entries):
    mult = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, j, k in entries:
        mult[i][j][k] = 1
    return mult


def _zero_action_bimodule(sys, m, rng):
    field = sys.field
    return RBSBimodule(
        sys,
        zero_actions(field, sys.dim, m),
        random_matrix(field, m, m, rng),
        random_matrix(field, m, m, rng),
    )


def base_pair(field, rng, family, d=None, m=None, module="regular"):
    """One unscrambled (system, bimodule) pair of a seed family.

    module is "regular" (M = A) or "zero" (zero actions, dimension m).
    Random parameters are drawn from rng, a seed-independent generator.
    """
    if family == "zero":
        sys = RotaBaxterSystem(
            zero_algebra(field, d), random_matrix(field, d, d, rng), random_matrix(field, d, d, rng)
        )
    elif family == "line":
        r = random_scalar(field, rng) or 1
        line = Algebra(field, 1, [[[1]]])
        ops = (r, 0) if rng.random() < 0.5 else (0, r)
        sys = RotaBaxterSystem(
            line, Matrix.from_rows(field, [[ops[0]]]), Matrix.from_rows(field, [[ops[1]]])
        )
    elif family == "tri":
        a = random_scalar(field, rng) or 1
        b = random_scalar(field, rng) or 1
        alg = Algebra(field, 3, _mult_tensor(3, [(0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)]))
        R = Matrix.from_rows(field, [[0, 0, 0], [a, 0, 0], [0, 0, 0]])
        S = Matrix.from_rows(field, [[0, 0, 0], [0, 0, b], [0, 0, 0]])
        sys = RotaBaxterSystem(alg, R, S)
    elif family == "idem":
        alg = Algebra(field, d, _mult_tensor(d, [(i, i, i) for i in range(d)]))
        lam = random_scalar(field, rng) or 1
        idx = [i for i in range(d) if rng.random() < 0.5] or [0]
        rows = [[0] * d for _ in range(d)]
        for i in idx:
            rows[i][i] = field.neg(field.coerce(lam))
        sys = from_rb_operator(alg, Matrix.from_rows(field, rows), lam)[rng.randrange(2)]
    else:
        raise ValueError(f"unknown family {family!r}")
    if module == "regular":
        return sys, regular_bimodule(sys)
    return sys, _zero_action_bimodule(sys, m, rng)


def scrambled_pair(field, spec, rng):
    """The slot's pair conjugated by random base changes drawn from rng."""
    sys, mod = base_pair(field, slot_rng(spec["name"]), **spec["family"])
    p = random_invertible(field, sys.dim, rng)
    q = p if spec["family"]["module"] == "regular" else random_invertible(field, mod.dim, rng)
    mod2 = conjugate_bimodule(mod, p, q)
    return mod2.base, mod2
