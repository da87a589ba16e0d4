import random

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


def test_d_poly_against_definition(f3, f2, f4):
    # Oracle: build prod (T^(q^i) - T^(q^r)) with plain ring multiplication.
    for field in (f2, f3, f4):
        q = field.q
        for i in range(3):
            expect = Poly.one(field)
            for r in range(i):
                expect = expect * (Poly.monomial(field, q**i) - Poly.monomial(field, q**r))
            assert d_poly(i, field) == expect
            if i:
                assert d_poly(i, field).degree == i * q**i
                assert d_poly(i, field).is_monic()


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
    # binom(n, 1) = n!_C / (n-1)!_C for n >= 1 with nonzero digits... spot
    # check the direct quotient identity on a few rows instead.
    for n in range(1, 30):
        lhs = binom_exact(n, 1, f3) * factorial_exact(1, f3) * factorial_exact(n - 1, f3)
        assert lhs == factorial_exact(n, f3)


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


def test_binom_mod_errors(cache9):
    assert cache9.binom(3, 7).is_zero()  # m > n is just zero
    with pytest.raises(ValueError):
        cache9.binom(-1, 0)
    with pytest.raises(ValueError):
        cache9.binom(3, -2)


def test_factorial_mod(ctx9, cache9, f3):
    for n in range(9):  # digits stay below h, so the residue is the reduction
        assert cache9.factorial(n) == ctx9.reduce(factorial_exact(n, f3))
    assert cache9.factorial(9).is_zero()  # 9!_C = D_2 is divisible by T^2+1
    assert ctx9.reduce(factorial_exact(9, f3)).is_zero()


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
