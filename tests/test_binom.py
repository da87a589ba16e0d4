import random
from functools import lru_cache

import pytest

from carlitz import (
    DigitBinomCache,
    Field,
    GuardrailError,
    Poly,
    ResidueCtx,
    binom_exact,
    d_poly,
    factorial_exact,
    parse_poly,
)


# -- the building blocks D_i ----------------------------------------------------


def test_d_poly_goldens(f3, f2):
    assert str(d_poly(0, f3)) == "1"
    assert str(d_poly(1, f3)) == "T^3+2*T"
    assert d_poly(2, f3).degree == 18
    assert str(d_poly(1, f2)) == "T^2+T"
    assert d_poly(3, f2).degree == 24


def test_d_poly_against_definition(f3, f2, f4, f9):
    # Oracle: build prod (T^(q^i) - T^(q^r)) with plain ring multiplication.
    for field in (f2, f3, f4, Field(5), f9):
        q = field.q
        for i in range(3):
            expect = Poly.one(field)
            for r in range(i):
                expect = expect * (Poly.monomial(field, q**i) - Poly.monomial(field, q**r))
            assert d_poly(i, field) == expect
            if i:
                assert d_poly(i, field).degree == i * q**i
                assert d_poly(i, field).is_monic()


def test_d_poly_bracket_recursion(f2, f3, f4, f9):
    # Reference: the product definition, one subtraction of shifts per factor.
    def by_product(i, field):
        q = field.q
        acc = Poly.one(field)
        for r in range(i):
            acc = acc.shift(q**i) - acc.shift(q**r)
        return acc

    for field in (f2, f3, Field(5), f4, f9):
        for i in range(6):
            assert d_poly(i, field) == by_product(i, field), (field.q, i)


def test_d_poly_recurrence(f3):
    # D_{i+1} = (T^(q^(i+1)) - T) * D_i^q
    q = 3
    for i in range(2):
        bracket = Poly.monomial(f3, q ** (i + 1)) - Poly.gen(f3)
        assert d_poly(i + 1, f3) == bracket * d_poly(i, f3) ** q


def test_d_poly_guardrail(f3):
    with pytest.raises(GuardrailError):
        d_poly(12, f3, degree_limit=10**6)
    with pytest.raises(ValueError):
        d_poly(-1, f3)


# -- factorials -----------------------------------------------------------------


def test_factorial_goldens(f3):
    for n, want in [(0, "1"), (1, "1"), (2, "1"), (3, "T^3+2*T"), (4, "T^3+2*T")]:
        assert str(factorial_exact(n, f3)) == want
    assert factorial_exact(6, f3) == d_poly(1, f3) * d_poly(1, f3)
    assert factorial_exact(9, f3) == d_poly(2, f3)


def test_factorial_digit_product(f3, f4):
    # n!_C must equal prod D_i^(n_i) for the base-q digits of n.
    for field in (f3, f4):
        q = field.q
        for n in range(60):
            expect = Poly.one(field)
            v, i = n, 0
            while v:
                for _ in range(v % q):
                    expect = expect * d_poly(i, field)
                v //= q
                i += 1
            assert factorial_exact(n, field) == expect


def test_factorial_guardrail(f3):
    with pytest.raises(GuardrailError):
        factorial_exact(999_999_999, f3)
    factorial_exact(200, f3)  # comfortably inside the default limit
    with pytest.raises(ValueError):
        factorial_exact(-1, f3)


# -- exact binomials --------------------------------------------------------------


def test_binom_exact_goldens(f3):
    assert str(binom_exact(3, 1, f3)) == "T^3+2*T"
    assert str(binom_exact(4, 2, f3)) == "T^3+2*T"
    assert str(binom_exact(2, 1, f3)) == "1"
    assert binom_exact(2, 5, f3).is_zero()
    assert str(binom_exact(0, 0, f3)) == "1"


def test_binom_exact_integrality_and_symmetry(f3, f2):
    # Division always terminates with zero remainder (it raises otherwise),
    # and binom(n, m) = binom(n, n-m).
    for field in (f2, f3):
        for n in range(40):
            for m in range(n + 1):
                b = binom_exact(n, m, field)
                assert b == binom_exact(n, n - m, field)
                assert b  # never zero for m <= n


def test_binom_exact_pascal_column(f3):
    # Multiplying binom(n, 1)_C back by 1!_C * (n-1)!_C gives n!_C, for
    # n = 1 .. 29 (1!_C = D_0 = 1).
    for n in range(1, 30):
        lhs = binom_exact(n, 1, f3) * factorial_exact(1, f3) * factorial_exact(n - 1, f3)
        assert lhs == factorial_exact(n, f3)


def binom_by_factorials(n, m, field, fact=factorial_exact):
    """Reference: n!_C // (m!_C * (n-m)!_C), asserting a zero remainder."""
    quot, rem = divmod(fact(n, field), fact(m, field) * fact(n - m, field))
    assert not rem, (field.q, n, m)
    return quot


def test_binom_exact_against_factorial_quotient(f2, f3, f4, f9):
    # Every m <= n <= 3q^2 over F_2 .. F_5 and n <= q^2 over F_7 and F_9:
    # the cancelled quotient against the quotient of the full factorials.
    for field, top in ((f2, 12), (f3, 27), (f4, 48), (Field(5), 75), (Field(7), 49), (f9, 81)):
        fact = lru_cache(maxsize=None)(factorial_exact)
        for n in range(top + 1):
            for m in range(n + 1):
                want = binom_by_factorials(n, m, field, fact)
                assert binom_exact(n, m, field) == want, (field.q, n, m)


def test_binom_exact_workload_pairs():
    # The exact benchmark's (n, m), deg n!_C between 15,000 and 25,000.
    pairs = {2: [(1805, 513), (1953, 749)], 3: [(3640, 1199), (3701, 1526)],
             5: [(4679, 3090), (3855, 1952)], 7: [(5714, 4082), (5824, 3344)]}
    for p, nms in pairs.items():
        field = Field(p)
        for n, m in nms:
            assert binom_exact(n, m, field) == binom_by_factorials(n, m, field), (p, n, m)
    assert str(binom_exact(5714, 4082, Field(7))) == "T^2744+6*T^2402+6*T^344+T^2"
    assert str(binom_exact(3855, 1952, Field(5))) == "T^3130+4*T^3126+4*T^6+T^2"


def test_binom_exact_guardrail_edges(f3):
    # deg 6561!_C = 8 * 3^8 = 52,488 bounds every binom(6561, m)_C, even
    # those with nothing left to divide; m > n is 0 under any limit.
    for m in (0, 1, 6561):
        with pytest.raises(GuardrailError):
            binom_exact(6561, m, f3, degree_limit=52_487)
    assert binom_exact(6561, 0, f3, degree_limit=52_488) == Poly.one(f3)
    assert binom_exact(6561, 6561, f3, degree_limit=52_488) == Poly.one(f3)
    # 1 + 6560 carries into every position k = 1 .. 8.
    b = binom_exact(6561, 1, f3, degree_limit=52_488)
    assert b.degree == sum(3**k for k in range(1, 9))
    assert binom_exact(5, 7, f3, degree_limit=0).is_zero()


def test_binom_exact_errors(f3):
    with pytest.raises(ValueError):
        binom_exact(-1, 0, f3)
    with pytest.raises(ValueError):
        binom_exact(3, -1, f3)
    with pytest.raises(GuardrailError):
        binom_exact(999_999_999, 5, f3)


# -- digit binomials mod the prime ------------------------------------------------


def test_digit_binom_goldens(ctx9, cache9):
    assert str(cache9.digit_binom(3, 1)) == "T"
    assert str(cache9.digit_binom(8, 4)) == "1"
    assert str(cache9.digit_binom(4, 2)) == "T"  # 2 + 2 carries into position 1
    assert cache9.digit_binom(1, 2).is_zero()
    assert str(cache9.digit_binom(0, 0)) == "1"
    with pytest.raises(ValueError):
        cache9.digit_binom(9, 0)
    with pytest.raises(ValueError):
        cache9.digit_binom(0, -1)


def test_d_mod_units(small_rings):
    # D_i mod the prime is a unit for every i < h.
    for ctx, cache in small_rings:
        assert len(cache.d_mod) == ctx.h
        for d in cache.d_mod:
            assert d
            assert d * d.inverse() == ctx.one
        # and the residues match the exact polynomials
        for i, d in enumerate(cache.d_mod):
            assert d == ctx.reduce(d_poly(i, ctx.field))


def test_digit_binom_unit_or_zero(small_rings):
    for ctx, cache in small_rings:
        for a in range(ctx.base):
            for b in range(ctx.base):
                r = cache.digit_binom(a, b)
                if b > a:
                    assert r.is_zero()
                else:
                    assert r  # single-digit binomials with b <= a are units


def test_digit_binom_matches_exact(small_rings):
    # The carry product against honest division, exhaustively.
    for ctx, cache in small_rings:
        field = ctx.field
        for a in range(ctx.base):
            for b in range(a + 1):
                assert cache.digit_binom(a, b) == ctx.reduce(binom_exact(a, b, field)), (
                    ctx.prime,
                    a,
                    b,
                )


def test_binom_mod_matches_exact(small_rings):
    for ctx, cache in small_rings:
        field = ctx.field
        top = min(3 * ctx.base, 100)
        for n in range(top):
            for m in range(n + 1):
                assert cache.binom(n, m) == ctx.reduce(binom_exact(n, m, field))


def test_binom_mod_digit_congruence_random(ctx9, cache9):
    # The digitwise product against the exact binomial for larger, random n.
    rng = random.Random(41)
    f3 = ctx9.field
    for _ in range(60):
        n = rng.randrange(9**3)
        m = rng.randrange(n + 1)
        assert cache9.binom(n, m) == ctx9.reduce(binom_exact(n, m, f3))


def test_binom_mod_zero_iff_digit_exceeds(ctx9, cache9):
    for n in range(100):
        for m in range(n + 1):
            nn, mm = n, m
            exceeded = False
            while nn or mm:
                if mm % 9 > nn % 9:
                    exceeded = True
                    break
                nn //= 9
                mm //= 9
            assert cache9.binom(n, m).is_zero() == exceeded


def test_binom_logs_match_binom(small_rings, f2):
    # The carry scan against cache.binom (carries by base-q addition) and a
    # discrete log per residue, including n past q^h and a wide h = 7 ring.
    rings = list(small_rings)
    ctx = ResidueCtx(parse_poly("T^7+T+1", f2))
    rings.append((ctx, DigitBinomCache(ctx)))
    for ctx, cache in rings:
        for n in list(range(60)) + [200, 257]:
            expect = [ctx.dlog(b) if b else None
                      for b in (cache.binom(n, m) for m in range(n + 1))]
            assert list(cache.binom_logs(n)) == expect, (ctx.prime, n)


def test_binom_logs_take_no_dlog_until_asked(ctx9, dlog_calls):
    cache = DigitBinomCache(ctx9)
    cache.binom(1811, 700)
    cache.factorial(5)
    assert dlog_calls == []
    list(cache.binom_logs(1811))
    list(cache.binom_logs(1812))
    assert len(dlog_calls) == ctx9.h - 1


def test_binom_mod_errors(cache9):
    assert cache9.binom(3, 7).is_zero()  # m > n is just zero
    with pytest.raises(ValueError):
        cache9.binom(-1, 0)
    with pytest.raises(ValueError):
        cache9.binom(3, -2)


def test_factorial_mod(small_rings):
    # Below q^h the digits stay below h and the residue is a unit; from q^h on
    # n!_C has a factor D_i, i >= h, divisible by the prime, so it is zero.
    for ctx, cache in small_rings:
        for n in range(ctx.base + ctx.q + 1):
            want = ctx.reduce(factorial_exact(n, ctx.field))
            assert cache.factorial(n) == want, (ctx.prime, n)
            assert want.is_zero() == (n >= ctx.base), (ctx.prime, n)


def test_digitwise_congruence_statement(ctx9, cache9, f3):
    # binom(n, m) mod p equals the product of single-digit binomials of the
    # base-q^h digit pairs -- checked against the exact value.
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randrange(9**3)
        m = rng.randrange(9**3)
        prod = ctx9.one
        nn, mm = n, m
        while nn or mm:
            prod = prod * cache9.digit_binom(nn % 9, mm % 9) if mm % 9 <= nn % 9 else ctx9.zero
            if prod.is_zero():
                break
            nn //= 9
            mm //= 9
        want = ctx9.reduce(binom_exact(n, m, f3)) if m <= n else ctx9.zero
        assert prod == want


def test_binom_exact_is_the_carry_product(f4, f9):
    # binom(n, m)_C is the product of [k] = T^(q^k) - T over the positions k
    # that receive a carry when m and n - m are added in base q.
    rng = random.Random(59)
    for field, top in ((f4, 300), (f9, 200)):
        q = field.q
        for n, m in [(top, 0), (top, top), (top, 1)] + [
                (n, rng.randint(0, n)) for n in rng.sample(range(top), 8)]:
            expect = Poly.one(field)
            k = 1
            while q ** (k - 1) <= n:
                if m % q**k > n % q**k:
                    expect = expect * (Poly.monomial(field, q**k) - Poly.gen(field))
                k += 1
            assert binom_exact(n, m, field) == expect, (q, n, m)
