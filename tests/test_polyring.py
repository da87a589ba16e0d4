import random
from functools import lru_cache

import pytest

from carlitz import Field, GuardrailError, NEG_INF, ParseError, ResidueCtx
from carlitz import polyring
from carlitz.polyring import (
    Poly,
    find_irreducible,
    is_irreducible,
    parse_poly,
    parse_upoly,
    poly_gcd,
    poly_powmod,
    poly_xgcd,
)


def rand_poly(field, maxdeg, rng):
    return Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(0, maxdeg + 1))])


# -- structure ----------------------------------------------------------------


def test_zero_degree_sentinel(f3):
    z = Poly.zero(f3)
    assert z.degree == NEG_INF
    assert z.degree != -1
    assert z.degree < 0
    assert not z
    assert Poly.one(f3).degree == 0
    assert Poly.gen(f3).degree == 1


def test_degree_law_random(f3, f4):
    rng = random.Random(7)
    for field in (f3, f4):
        for _ in range(200):
            a = rand_poly(field, 6, rng)
            b = rand_poly(field, 6, rng)
            prod = a * b
            if a and b:
                assert prod.degree == a.degree + b.degree
            else:
                assert prod.degree == NEG_INF


def test_field_mismatch(f2, f3):
    with pytest.raises(ValueError):
        Poly.one(f2) + Poly.one(f3)
    with pytest.raises(ValueError):
        Poly.gen(f2) * Poly.gen(f3)


# -- divmod / gcd -------------------------------------------------------------


def test_divmod_golden(f3):
    a = parse_poly("T^2+2*T+1", f3)
    b = parse_poly("T^2+1", f3)
    q, r = divmod(a, b)
    assert str(q) == "1"
    assert str(r) == "2*T"


def test_divmod_identity_random(f2, f3, f4, f9):
    rng = random.Random(11)
    for field in (f2, f3, f4, f9):
        for _ in range(300):
            a = rand_poly(field, 12, rng)
            b = rand_poly(field, 6, rng)
            if not b:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree or not r


def test_divmod_large_polynomials(f3):
    # Degrees large enough to take the Newton division path; the
    # reconstruction identity holds regardless of which path ran.
    rng = random.Random(13)
    for _ in range(20):
        a = rand_poly(f3, 400, rng)
        b = rand_poly(f3, 150, rng)
        if not b:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert not r or r.degree < b.degree


def test_division_by_zero(f3):
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.one(f3), Poly.zero(f3))


def test_gcd_golden(f3):
    assert str(poly_gcd(parse_poly("T^2+2", f3), parse_poly("T+1", f3))) == "T+1"


def test_gcd_properties_random(f3, f4):
    rng = random.Random(17)
    for field in (f3, f4):
        for _ in range(200):
            a = rand_poly(field, 8, rng)
            b = rand_poly(field, 8, rng)
            if not a and not b:
                continue
            g = poly_gcd(a, b)
            assert g.is_monic()
            if a:
                assert not (a % g)
            if b:
                assert not (b % g)
            g2, x, y = poly_xgcd(a, b)
            assert g2 == g
            assert x * a + y * b == g


def test_gcd_zero_zero(f3):
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(f3), Poly.zero(f3))


def test_powmod(f3):
    t = Poly.gen(f3)
    mod = parse_poly("T^2+1", f3)
    assert str(poly_powmod(t, 9, mod)) == "T"
    rng = random.Random(19)
    for _ in range(100):
        a = rand_poly(f3, 5, rng)
        e = rng.randrange(64)
        naive = Poly.one(f3)
        for _ in range(e):
            naive = naive * a % mod
        assert poly_powmod(a, e, mod) == naive
    with pytest.raises(ValueError):
        poly_powmod(t, -1, mod)


def test_powmod_skips_the_last_squaring(f3, monkeypatch):
    mod = parse_poly("T^5+2*T+1", f3)
    base = parse_poly("T^3+2*T^2+1", f3)
    fourth = base * base * base * base % mod
    squarings = []
    mul = Poly.__mul__

    def counting_mul(self, other):
        if self is other:
            squarings.append(self)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    assert poly_powmod(base, 1, mod) == base
    assert squarings == []  # no squaring after the exponent's last bit
    assert poly_powmod(base, 4, mod) == fourth
    assert len(squarings) == 2


def test_powmod_inverts_the_modulus_once(f3, f4, monkeypatch):
    # A divisor keeps its Newton inverse: one modulus object is inverted once
    # across divmod, %, //, poly_powmod and ResidueCtx.reduce, at the longest
    # quotient asked first.  An equal but distinct divisor, inverted afresh,
    # gives equal results.
    inverses = []
    inverse_series = polyring._inverse_series
    rng = random.Random(37)
    for field, h in ((f3, 7), (f4, 3)):
        mod = find_irreducible(h, field)
        twin = Poly(field, mod.coeffs)
        ctx, twin_ctx = ResidueCtx(mod), ResidueCtx(twin)
        a = nonzero_poly(field, h + 41, rng)  # a quotient of 41 terms
        powers = [(nonzero_poly(field, 2 * h, rng), e) for e in (2, 3, 100)]
        naive = [b**e % Poly(field, mod.coeffs) for b, e in powers]
        monkeypatch.setattr(polyring, "_inverse_series",
                            lambda f, n, fd: inverses.append(n) or inverse_series(f, n, fd))

        def divisions(m, c):
            return [divmod(a, m), a % m, a // m, c.reduce(a), c.reduce(powers[0][0]),
                    [poly_powmod(b, e, m) for b, e in powers]]

        inverses.clear()
        results = divisions(mod, ctx)
        assert inverses == [41]
        assert results[-1] == naive
        assert divisions(twin, twin_ctx) == results
        assert inverses == [41, 41]
        monkeypatch.undo()


# -- irreducibility -----------------------------------------------------------


def brute_irreducible(f):
    """Trial-division oracle: check every monic divisor of smaller degree."""
    field = f.field
    d = f.degree
    if d < 1:
        return False
    for deg in range(1, d // 2 + 1):
        for e in range(field.q**deg):
            coeffs = []
            v = e
            for _ in range(deg):
                coeffs.append(v % field.q)
                v //= field.q
            coeffs.append(1)
            if not (f % Poly(field, coeffs)):
                return False
    return True


@pytest.mark.parametrize("q,p,s", [(2, 2, 1), (3, 3, 1), (4, 2, 2)])
def test_irreducible_matches_trial_division(q, p, s):
    field = Field(p, s)
    for deg in range(1, 5):
        for e in range(q**deg):
            coeffs = []
            v = e
            for _ in range(deg):
                coeffs.append(v % q)
                v //= q
            coeffs.append(1)
            f = Poly(field, coeffs)
            assert is_irreducible(f) == brute_irreducible(f), str(f)


def test_irreducible_golden(f3):
    assert is_irreducible(parse_poly("T^2+1", f3))
    assert not is_irreducible(parse_poly("T^2+2", f3))
    assert is_irreducible(parse_poly("T", f3))
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(f3))
    with pytest.raises(ValueError):
        is_irreducible(Poly.zero(f3))


def test_find_irreducible(f2, f3, f4):
    assert str(find_irreducible(1, f3)) == "T"
    assert str(find_irreducible(2, f3)) == "T^2+1"
    assert str(find_irreducible(2, f2)) == "T^2+T+1"
    assert str(find_irreducible(3, f2)) == "T^3+T+1"
    for field in (f2, f3, f4):
        for h in (1, 2, 3):
            f = find_irreducible(h, field)
            assert f.degree == h
            assert f.is_monic()
            assert is_irreducible(f)


def test_find_irreducible_is_first(f3):
    # Every monic quadratic with a smaller coefficient encoding must be reducible.
    found = find_irreducible(2, f3)
    e_found = found.coeff(0) + 3 * found.coeff(1)
    for e in range(e_found):
        cand = Poly(f3, [e % 3, e // 3, 1])
        assert not is_irreducible(cand)


# -- text ---------------------------------------------------------------------


def test_parse_format_goldens(f3, f4):
    assert str(parse_poly("T^2 + 2*T + 1", f3)) == "T^2+2*T+1"
    assert str(parse_poly("0", f3)) == "0"
    assert str(parse_poly("5*T", f3)) == "2*T"  # coefficients taken mod p
    assert str(parse_poly("T^3+2*T", f3)) == "T^3+2*T"
    assert str(parse_poly("(u+1)*T+u", f4)) == "(u+1)*T+(u)"
    assert str(parse_poly("T+u", f4)) == "T+(u)"
    assert parse_poly("(u+1)*T+u", f4).coeffs == (2, 3)
    assert str(Poly.monomial(f3, 3)) == "T^3"


def test_parse_round_trip_random(f2, f3, f4, f9):
    rng = random.Random(23)
    for field in (f2, f3, f4, f9):
        for _ in range(300):
            poly = rand_poly(field, 9, rng)
            assert parse_poly(str(poly), field) == poly


def test_parse_errors(f3, f4):
    for bad in ["", "T*T", "3T", "T^", "T+", "(u+1*T", "T-1", "x+1", "2**T"]:
        with pytest.raises(ParseError):
            parse_poly(bad, f4)
    with pytest.raises(ParseError):
        parse_poly("u*T", f3)  # no generator u in a prime field
    with pytest.raises(ParseError):
        parse_poly("(u)*T", f3)


def test_parse_degree_guardrail(f2):
    # Refused before the dense coefficient list is built.
    with pytest.raises(GuardrailError):
        parse_poly("T^1000001", f2)
    with pytest.raises(GuardrailError):
        parse_upoly("u^1000001+u+1", 2)
    assert parse_poly("T^1000000", f2).degree == 10**6


def test_find_irreducible_degree_guardrail():
    # Refused before q^h and a dense candidate of h + 1 terms, also through
    # Field's modulus search.
    with pytest.raises(GuardrailError, match="exceeds the exact-degree limit"):
        find_irreducible(1_000_001, Field(2))
    with pytest.raises(GuardrailError, match="exceeds the exact-degree limit"):
        Field(2, 1_000_001)


def test_parse_upoly_degree_guardrail():
    # Modulus text: spaced exponents count, zero terms do not, and a syntax
    # error is reported before the degree.
    with pytest.raises(GuardrailError):
        parse_upoly("u ^ 1000001 + 1", 3)
    assert parse_upoly("0*u^1000001+u+1", 2) == (1, 1)
    with pytest.raises(ParseError):
        parse_upoly("u^1000001+", 2)


def test_parse_upoly():
    assert parse_upoly("u^2+u+1", 2) == (1, 1, 1)
    assert parse_upoly("u^2+1", 3) == (1, 0, 1)
    assert parse_upoly("u^2+2*u+1", 3) == (1, 2, 1)
    for bad in ["T+1", "(u)"]:
        with pytest.raises(ParseError):
            parse_upoly(bad, 3)


# Where the grammar accepts or rejects at the T and the u level: the expected
# coefficient tuple, or None for a ParseError.
GRAMMAR_CASES = [
    ((3, 1), "(2)*T", (0, 2)),
    ((3, 1), "T^2+T^2", (0, 0, 2)),
    ((3, 1), "T+T+T", ()),
    ((3, 1), "u*T", None),
    ((3, 1), "u^0*T", None),
    ((3, 1), "(u^0)*T", None),
    ((3, 1), "(u)", None),
    ((3, 1), "(2+1)*T+(u+2*u)", None),
    ((2, 2), "(u^2)*T", (0, 3)),
    ((2, 2), "u^3*T", (0, 1)),
    ((2, 2), "(u+u)*T+1", (1,)),
    ((2, 2), "(u+1)*T^0", (3,)),
    ((2, 2), "u+T", (2, 1)),
    ((2, 2), "2*u*T", None),
    ((2, 2), "(u*T)", None),
    ((2, 2), "((u))", None),
    ((2, 2), "(u+1*T", None),
    ((2, 2), "u*u", None),
    ((2, 2), "()", None),
    ((3, 1), "1 2", None),  # whitespace may not split a number
    ((3, 1), "T^1 0", None),
    ((2, 2), "T ^ 2 + u", (2, 0, 1)),
    ((2, 2), "( u + 1 ) * T", (0, 3)),
]


@pytest.mark.parametrize("ps,text,coeffs", GRAMMAR_CASES)
def test_grammar_pinned(ps, text, coeffs):
    field = Field(*ps)
    if coeffs is None:
        with pytest.raises(ParseError):
            parse_poly(text, field)
    else:
        assert parse_poly(text, field).coeffs == coeffs


# -- the Kronecker kernel and Newton division (prime fields) -------------------


def schoolbook_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(c % p for c in out)


def nonzero_poly(field, length, rng):
    cs = [rng.randrange(field.q) for _ in range(length - 1)]
    return Poly(field, cs + [rng.randrange(1, field.q)])


@pytest.mark.parametrize("p", [2, 3, 7, 251, 65537, 4294967311])
def test_kronecker_product_matches_schoolbook(p):
    # Across these primes the lengths make the slot bound
    # min(len a, len b) * (p-1)^2 need 1, 2, 4, 8 and more than 8 bytes.
    field = Field(p)
    rng = random.Random(p)
    widths = set()
    for la, lb in [(1, 1), (1, 9), (7, 8), (63, 64), (64, 100), (300, 256)]:
        a, b = nonzero_poly(field, la, rng), nonzero_poly(field, lb, rng)
        assert (a * b).coeffs == schoolbook_mul(a.coeffs, b.coeffs, p), (p, la, lb)
        assert (a * a).coeffs == schoolbook_mul(a.coeffs, a.coeffs, p), (p, la)
        nbytes = (min(la, lb) * (p - 1) ** 2).bit_length() + 7 >> 3
        widths.add(next((w for w in (1, 2, 4, 8) if nbytes <= w), "wide"))
    expected = {2: {1, 2}, 3: {1, 2}, 7: {1, 2}, 251: {2, 4}, 65537: {8},
                4294967311: {"wide"}}
    assert widths == expected[p]


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (3, 2), (65537, 1),
                                  (4294967311, 1)])
def test_short_product_is_the_low_part(p, s):
    # A short product keeps the low n coefficients of the full one, for n
    # below, at and above its length; 4294967311 needs slots wider than 8 bytes.
    field = Field(p, s)
    rng = random.Random(67 + p * s)
    for la, lb in [(1, 1), (1, 7), (7, 1), (5, 9), (40, 40), (300, 77)]:
        a = [rng.randrange(field.q) for _ in range(la)]
        b = [rng.randrange(field.q) for _ in range(lb)]
        full = polyring._kmul(a, b, field)
        assert len(full) == la + lb - 1
        for n in sorted({1, 2, lb, la + lb - 2, la + lb - 1, la + lb, 2 * (la + lb)} - {0}):
            assert polyring._kmul(a, b, field, n) == full[:n], (la, lb, n)
        assert polyring._kmul(a, a, field, la) == polyring._kmul(a, a, field)[:la]


def test_divmod_remainder_at_either_end(f2, f3, f4, f9):
    # The exactness test compares only the low db terms, so a remainder
    # nonzero only at T^0 or only at T^(db-1) must still be found.
    rng = random.Random(71)
    for field in (f2, f3, f4, f9, Field(65537)):
        for lq, lb in [(1, 2), (5, 3), (60, 40), (300, 9)]:
            b, q = nonzero_poly(field, lb, rng), nonzero_poly(field, lq, rng)
            db = lb - 1
            for k in (0, db - 1):
                r = Poly.monomial(field, k, rng.randrange(1, field.q))
                assert divmod(q * b + r, b) == (q, r), (field.q, lq, lb, k)
            assert divmod(q * b, b) == (q, Poly.zero(field))


def test_extension_field_product_unchanged(f4):
    # The two-variable Kronecker product equals schoolbook over Field arithmetic.
    rng = random.Random(29)
    a, b = nonzero_poly(f4, 40, rng), nonzero_poly(f4, 33, rng)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = f4.add(out[i + j], f4.mul(x, y))
    assert (a * b).coeffs == tuple(out)


@pytest.mark.parametrize("p", [2, 3, 7, 65537])
def test_divmod_both_sides_of_newton_crossover(p):
    field = Field(p)
    rng = random.Random(31 + p)
    # Quotient length lq and divisor length lb on both sides of 48, where
    # short divisions over F_p once left Newton for schoolbook.
    for lq, lb in [(47, 53), (53, 47), (48, 49), (144, 96), (960, 51), (2, 480)]:
        b = nonzero_poly(field, lb, rng)
        if b.is_monic() and p > 2:
            b = b.scale(p - 1)  # a non-monic divisor
        q = nonzero_poly(field, lq, rng)
        for r in (Poly.zero(field), nonzero_poly(field, lb - 1, rng)):
            quo, rem = divmod(q * b + r, b)
            assert quo == q and rem == r, (p, lq, lb)


@pytest.mark.parametrize("p", [3, 4294967311])
def test_divmod_long_quotient_short_divisor(p):
    # The corner schoolbook took before Newton did every division: a quotient
    # of 20,000 terms over a divisor of degree 1-5.
    field = Field(p)
    rng = random.Random(59 + p)
    q = nonzero_poly(field, 20_000, rng)
    for lb in range(2, 7):
        b = nonzero_poly(field, lb, rng)
        r = nonzero_poly(field, lb - 1, rng)
        assert divmod(q * b + r, b) == (q, r), lb


@pytest.mark.parametrize("p", [65537, 4294967311, 2**61 - 1, 2**89 - 1])
def test_divmod_identity_large_primes(p):
    # int64 arithmetic overflowed silently for p > 2^32 and raised
    # OverflowError beyond 2^63; Python ints have neither limit.
    field = Field(p)
    rng = random.Random(37)
    for la, lb in [(5, 3), (40, 20), (300, 120), (130, 60)]:
        a, b = nonzero_poly(field, la, rng), nonzero_poly(field, lb, rng)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_large_prime_split_cubic_is_reducible():
    field = Field(4294967311)
    rng = random.Random(41)
    for _ in range(3):
        linears = [Poly(field, [rng.randrange(field.p), 1]) for _ in range(3)]
        assert not is_irreducible(linears[0] * linears[1] * linears[2])


def test_pow_matches_repeated_product(f2, f3, f4, f9, monkeypatch):
    rng = random.Random(43)
    for field in (f2, f3, f4, f9):
        base = nonzero_poly(field, 6, rng)
        naive = Poly.one(field)
        # Up to q^2 + q: one, two and three base-q digits over every field.
        for e in range(max(10, field.q**2 + field.q)):
            assert base**e == naive, (field.q, e)
            naive = naive * base
    squarings, kmuls = [], []
    mul, kmul = Poly.__mul__, polyring._kmul

    def counting_mul(self, other):
        if self is other:
            squarings.append(self)
        return mul(self, other)

    def counts(power, expect):
        squarings.clear()
        kmuls.clear()
        assert power() == expect
        return len(squarings), len(kmuls)

    base, base4 = nonzero_poly(f3, 6, rng), nonzero_poly(f4, 6, rng)
    fourth = base * base * base * base
    eighth4 = base4 * base4 * base4 * base4 * base4 * base4 * base4 * base4
    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(polyring, "_kmul", lambda *args: kmuls.append(None) or kmul(*args))
    # No squaring after the exponent's last bit, and no product by one.
    assert counts(lambda: base**1, base) == (0, 0)
    assert counts(lambda: base**2, base * base) == (1, 1)
    # 4 = 11 in base 3: base * base(T^3), one product and no squaring.
    assert counts(lambda: base**4, fourth) == (0, 1)
    # 8 = 20 in base 4: the square of base(T^4).
    assert counts(lambda: base4**8, eighth4) == (1, 1)


def test_product_by_one_makes_no_kronecker_product(f2, f3, f4, f9, monkeypatch):
    rng = random.Random(61)
    kmuls = []
    kmul = polyring._kmul
    monkeypatch.setattr(polyring, "_kmul", lambda *args: kmuls.append(None) or kmul(*args))
    for field in (f2, f3, f4, f9):
        a, one = nonzero_poly(field, 9, rng), Poly.one(field)
        assert a * one == a and one * a == a and one * one == one
    assert kmuls == []


def field_schoolbook(a, b, field):
    """a * b over F_q with one Field.mul and Field.add per pair of coefficients."""
    mul, add = lru_cache(maxsize=None)(field.mul), lru_cache(maxsize=None)(field.add)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = add(out[i + j], mul(x, y))
    return Poly(field, out)


@pytest.mark.parametrize("p, s", [(2, 2), (2, 3), (3, 2), (5, 2), (65537, 2),
                                  (4294967311, 2)])
def test_extension_kronecker_product_matches_schoolbook(p, s, monkeypatch):
    field = Field(p, s)
    rng = random.Random(p * s)
    widths = []
    pack = polyring._pack
    monkeypatch.setattr(polyring, "_pack", lambda cs, w: widths.append(w) or pack(cs, w))
    polys = {n: nonzero_poly(field, n, rng) for n in (1, 5, 300)}
    for la, lb in [(1, 5), (5, 300), (300, 1)]:
        a, b = polys[la], polys[lb]
        assert a * b == field_schoolbook(a.coeffs, b.coeffs, field), (la, lb)
    for a in polys.values():
        assert a * a == field_schoolbook(a.coeffs, a.coeffs, field), len(a.coeffs)
    # 8-byte slots for F_(65537^2); wider ones, packed in Python, beyond.
    assert max(widths) == {65537: 8, 4294967311: 14}.get(p, 2)


@pytest.mark.parametrize("p, s", [(2, 2), (3, 2), (2, 3), (5, 2)])
def test_extension_divmod_both_sides_of_newton_crossover(p, s):
    field = Field(p, s)
    rng = random.Random(47 + p * s)
    for lq, lb in [(1, 1), (30, 1), (2, 3), (5, 4), (47, 53), (53, 47), (144, 96), (2, 480)]:
        b = nonzero_poly(field, lb, rng)
        if b.is_monic():
            b = b.scale(rng.randrange(2, field.q))  # a non-monic divisor
        q = nonzero_poly(field, lq, rng)
        for r in (Poly.zero(field), Poly(field, [rng.randrange(field.q) for _ in range(lb - 1)])):
            quo, rem = divmod(q * b + r, b)
            assert quo == q and rem == r, (p, s, lq, lb)
            assert quo * b + rem == q * b + r


def test_sub_is_add_of_negative(f2, f3, f4, f9):
    rng = random.Random(53)
    for field in (f2, f3, f4, f9):
        for _ in range(200):
            a, b = rand_poly(field, 12, rng), rand_poly(field, 12, rng)
            assert a - b == a + (-b)
            assert a - a == Poly.zero(field)
