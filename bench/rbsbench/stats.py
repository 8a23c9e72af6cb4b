"""Small statistics helpers and the field-backend classification."""

from __future__ import annotations

import math

# The benchmark's own split of prime fields into small and large.  It is not
# read from the package, so the split keeps its meaning if the package moves
# its internal int64 limit.
GF_SMALL_LIMIT = 1 << 15

BACKENDS = ("qq", "gf_small", "gf_large")


def backend_of_prime(p):
    """'qq' for the rationals (p is None), else by the size of the prime."""
    if p is None:
        return "qq"
    return "gf_small" if p < GF_SMALL_LIMIT else "gf_large"


def backend_of_field(spec):
    """Backend of a document's "field" value: "Q" or {"Fp": p}."""
    if spec == "Q":
        return "qq"
    if isinstance(spec, dict) and set(spec) == {"Fp"}:
        return backend_of_prime(int(spec["Fp"]))
    raise ValueError(f"unknown field spec {spec!r}")


def tail_percentile(samples, q=90, min_beyond=10):
    """(percentile, value) for the q-th percentile, or, when fewer than
    min_beyond samples would lie beyond it, the highest whole percentile
    that keeps min_beyond samples beyond it.  Nearest-rank definition.

    The result never falls below the median: with fewer than 2 * min_beyond
    samples it is percentile 50.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    pct = max(50, min(q, 100 * (n - min_beyond) // n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, xs[rank - 1]
