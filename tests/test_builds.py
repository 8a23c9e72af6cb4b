"""The structures built as integer matrices against the tensor route.

D(M), the star algebra, the square-zero system of a payload, the
transported, induced and reduced pairs and the twisted star data of the
weight-lambda embedding are placed block by block into integer arrays.
Each must equal the structure that tests/oracles.py builds as a tensor of
Python scalars and converts once.  Over Q the pairs are transported along
base changes with denominators 1, 2, 3 and 7 and entries of 2^41, so their
structure matrices have mixed denominators and numerators past 2^62.
"""

import random
from fractions import Fraction

import pytest

from rbsys import (
    GF,
    QQ,
    assemble_extension,
    conjugate_bimodule,
    conjugate_system,
    star_algebra,
    zero_cocycle,
)
from rbsys.bimodules import _d_module_unchecked, _square_zero_system
from rbsys.cohomology import _modulo_prime_pair, _twisted_star
from rbsys.extensions import induced_base_system, induced_bimodule

from instances import (
    random_invertible,
    random_matrix,
    random_scalar,
    random_system_bimodule,
    rational_base_change,
)
from oracles import (
    conjugate_pair_by_tensors,
    d_module_by_tensors,
    induced_pair_by_tensors,
    modulo_prime_pair_by_tensors,
    square_zero_by_tensors,
    star_algebra_by_tensors,
    twisted_star_by_tensors,
)

FIELDS = (GF(2), GF(5), QQ)


def _pairs(field, count=8):
    """Seeded pairs over field; over Q transported once more along base
    changes with mixed denominators and large entries."""
    rng = random.Random(f"builds-{field}")
    out = []
    for _ in range(count):
        sys, mod = random_system_bimodule(rng, field, big=True)
        if field.p is None:
            P, Q = rational_base_change(sys.dim, rng), rational_base_change(mod.dim, rng)
            sys, mod = conjugate_system(sys, P), conjugate_bimodule(mod, P, Q)
        out.append((sys, mod, rng))
    return out


def test_q_pairs_have_mixed_denominators_and_large_entries():
    # the Q cases below reach what they claim to cover
    mats = [m for sys, mod, _ in _pairs(QQ) for m in (sys.alg.mult_matrix(), mod.actions.left_matrix())]
    assert any(m.den > 1 and len({x.denominator for row in m.entries() for x in row if x}) > 1 for m in mats)
    assert any(max(abs(x) for x in m.num.ravel().tolist()) >= 2**62 for m in mats)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_d_module_and_star_algebra_match_the_tensor_route(field):
    for sys, mod, _ in _pairs(field):
        star, actions = d_module_by_tensors(mod)
        dm = _d_module_unchecked(mod)
        assert dm.star == star and dm.actions == actions
        assert star_algebra(sys) == star_algebra_by_tensors(sys) == star


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_square_zero_system_matches_the_tensor_route(field):
    for sys, mod, rng in _pairs(field):
        d, m = sys.dim, mod.dim
        payload = [random_matrix(field, m, d * d, rng), random_matrix(field, m, d, rng), random_matrix(field, m, d, rng)]
        if field.p is None:
            payload = [x.scale(Fraction(2**63 + 1, 5)) for x in payload]
        assert _square_zero_system(mod, *payload) == square_zero_by_tensors(mod, *payload)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_transported_pair_matches_the_tensor_route(field):
    for sys, mod, rng in _pairs(field):
        P = random_invertible(field, sys.dim, rng) if field.p else rational_base_change(sys.dim, rng)
        Q = random_invertible(field, mod.dim, rng) if field.p else rational_base_change(mod.dim, rng)
        base, want = conjugate_pair_by_tensors(mod, P, Q)
        got = conjugate_bimodule(mod, P, Q)
        assert conjugate_system(sys, P) == base and got == want


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_induced_pair_matches_the_tensor_route(field):
    for sys, mod, rng in _pairs(field):
        ext = assemble_extension(sys, mod, zero_cocycle(sys, mod))
        # another section of the projection: t + i G for any G
        t = ext.section + ext.incl @ random_matrix(field, mod.dim, sys.dim, rng)
        base, want = induced_pair_by_tensors(ext, t)
        assert induced_base_system(ext, t) == base and induced_bimodule(ext, t) == want
        assert want == mod


def test_modulo_prime_pair_matches_the_tensor_route():
    for sys, mod, _ in _pairs(QQ):
        base, want = modulo_prime_pair_by_tensors(sys, mod)
        got_base, got = _modulo_prime_pair(sys, mod)
        assert got_base == base and got == want


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_twisted_star_data_match_the_tensor_route(field):
    for sys, _mod, rng in _pairs(field):
        lam = Fraction(-7, 2) if field.p is None else random_scalar(field, rng)
        star, twisted = twisted_star_by_tensors(sys, lam)
        got_star, got_twisted = _twisted_star(sys, lam)
        assert got_star == star and got_twisted == twisted
