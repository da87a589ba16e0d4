"""Checks whose cost grows with h, not with q^h - 1 or n, for rings past the
reach of the oracle sweep and the brute census.

T mod p is a root theta of p in F_{q^h}, with conjugates theta^(q^k), and
[k] = T^(q^k) - T = theta^(q^k) - theta mod p.  So the product of [1] ..
[h-1] is prod_{k=1}^{h-1} (theta^(q^k) - theta) = (-1)^(h-1) p'(theta), and
the bracket logs sum to the log of (-1)^(h-1) p'(T) mod q^h - 1.
"""

import math
import random
from functools import reduce
from operator import mul

import pytest

from carlitz import (DigitBinomCache, Field, Poly, ResidueCtx, binom_exact, digits_of,
                     distribution_brute, find_irreducible, parse_poly)

F2, F3, F4, F5, F7, F9 = Field(2), Field(3), Field(2, 2), Field(5), Field(7), Field(3, 2)

# (field, prime text, or the degree of the canonical prime)
SMALL = [(F2, "T^9+T+1"), (F3, "T^2+1"), (F5, "T^4+2"), (F7, "T^4+T+1"), (F4, 4), (F9, 4)]
LARGE = [(F2, "T^20+T^3+1"), (F2, 24), (F2, 32), (F2, 48), (F2, 64)]


def _ctx(field, prime, **kw):
    if isinstance(prime, int):
        prime = find_irreducible(prime, field)
    else:
        prime = parse_poly(prime, field)
    return ResidueCtx(prime, **kw)


def _ring_id(ring):
    field, prime = ring
    return f"F{field.q}-{prime if isinstance(prime, str) else f'deg{prime}'}"


def _signed_derivative(ctx):
    """(-1)^(h-1) p'(T) mod p."""
    f, p = ctx.field, ctx.field.p
    dp = ctx.reduce(Poly(f, [f.mul(c, k % p) for k, c in enumerate(ctx.prime.coeffs)][1:]))
    return dp if ctx.h % 2 else -dp


@pytest.mark.parametrize("ring", SMALL + LARGE, ids=_ring_id)
def test_bracket_product_is_the_signed_derivative(ring):
    ctx = _ctx(*ring)
    cache = DigitBinomCache(ctx)
    assert reduce(mul, cache.brackets[1:], ctx.one) == _signed_derivative(ctx)


# Full dlog tables up to q^h - 1 = 2^16, and baby steps on T^20+T^3+1.
LOG_RINGS = [(r, {}) for r in SMALL] + [((F2, "T^20+T^3+1"), {"dlog_table_limit": 0})]


@pytest.mark.parametrize("ring, kw", LOG_RINGS,
                         ids=[_ring_id(r) + ("-bsgs" if kw else "") for r, kw in LOG_RINGS])
def test_bracket_logs_and_their_sum(ring, kw):
    ctx = _ctx(*ring, **kw)
    assert ctx.group_order <= 2**16 or kw
    cache = DigitBinomCache(ctx)
    logs = cache.bracket_logs[1:]
    for lam, bracket in zip(logs, cache.brackets[1:]):
        assert ctx.primitive_root ** lam == bracket
    assert sum(logs) % ctx.group_order == ctx.dlog(_signed_derivative(ctx))


# Checks (c) and (d) take n <= 2000: three n a ring, ten sampled m each for (d).
LOG_RING_IDS = [_ring_id(r) + ("-bsgs" if kw else "") for r, kw in LOG_RINGS]


@pytest.mark.parametrize("ring, kw", LOG_RINGS, ids=LOG_RING_IDS)
def test_census_mass_is_the_digit_product(ring, kw):
    """G_n(1) = prod (d_i + 1) over n's base-q^h digits: binom(n, m) is a unit
    mod p exactly when each base-q^h digit of m is at most n's."""
    ctx = _ctx(*ring, **kw)
    cache = DigitBinomCache(ctx)
    for n in random.Random(ctx.base).sample(range(2001), 3):
        mass = distribution_brute(n, ctx, cache).counts.eval_one()
        assert mass == math.prod(d + 1 for d in digits_of(n, ctx.base)), n


@pytest.mark.parametrize("ring, kw", LOG_RINGS, ids=LOG_RING_IDS)
def test_carry_logs_match_the_exact_binomial(ring, kw):
    """binom_exact is the factorial quotient, not the carry rule, so its residue
    checks binom_logs: zero exactly where the log is None, else root^log."""
    ctx = _ctx(*ring, **kw)
    cache = DigitBinomCache(ctx)
    rng = random.Random(ctx.base)
    for n in rng.sample(range(2001), 3):
        logs = list(cache.binom_logs(n))
        for m in rng.sample(range(n + 1), min(10, n + 1)):
            r = ctx.reduce(binom_exact(n, m, ctx.field))
            assert (None if r.is_zero() else ctx.dlog(r)) == logs[m], (n, m)
