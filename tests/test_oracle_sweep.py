"""The census checked against perfbench/oracle.py on every small prime.

oracle.py shares no code with carlitz: it classifies each binomial by
valuations and unit logs mod the square of the prime, not by the carry rule
or the bracket logs that both of carlitz's census methods use.  Here every
monic irreducible of degree <= 4 over F_2, <= 3 over F_3, <= 2 over F_4 and
F_5, and 1 over F_9 (56 primes) is checked for every n < 130 in full, and
for one 41-digit n at three roots of unity.
"""

import sys
from itertools import product
from pathlib import Path

import pytest

from carlitz import DigitBinomCache, Field, Poly, ResidueCtx, distribution, is_irreducible

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import oracle  # noqa: E402

SWEEP = [(2, 1, 4), (3, 1, 3), (2, 2, 2), (5, 1, 2), (3, 2, 1)]  # (p, s, max degree)
LARGE_N = 10**40 + 12345


def monic_irreducibles(field, h):
    for cs in product(range(field.q), repeat=h):
        prime = Poly(field, cs + (1,))
        if is_irreducible(prime):
            yield prime


def necklace_count(q, h):
    """Gauss's count of monic irreducibles of degree h <= 4 over F_q."""
    mobius = {1: 1, 2: -1, 3: -1, 4: 0}
    return sum(mu * q ** (h // d) for d, mu in mobius.items() if h % d == 0) // h


def test_sweep_covers_56_primes():
    assert sum(necklace_count(p**s, h) for p, s, top in SWEEP
               for h in range(1, top + 1)) == 56


@pytest.mark.parametrize("p,s,top", SWEEP)
def test_census_matches_oracle(p, s, top):
    field, F = Field(p, s), oracle.GF(p, s)
    assert F.modulus == field.modulus
    for h in range(1, top + 1):
        primes = list(monic_irreducibles(field, h))
        assert len(primes) == necklace_count(field.q, h)
        for prime in primes:
            ctx = ResidueCtx(prime)
            cache = DigitBinomCache(ctx)
            ring = oracle.Ring(F, oracle.parse_poly(F, str(prime)),
                               oracle.parse_poly(F, str(ctx.primitive_root)))
            for n in range(130):
                d = distribution(n, ctx, cache)
                oracle.check_census(ring, n, dict(d.nonzero_items()), d.zero_count)
            d = distribution(LARGE_N, ctx, cache)
            oracle.check_census(ring, LARGE_N, dict(d.nonzero_items()), d.zero_count,
                                points=[1, 2, 3])
