import random
from math import isqrt

import pytest

from carlitz import (DigitBinomCache, Field, Poly, Residue, ResidueCtx, find_irreducible,
                     parse_poly, polyring)
from carlitz.intfactor import factorize, is_prime


def test_factorize():
    assert factorize(1) == []
    assert factorize(8) == [(2, 3)]
    assert factorize(80) == [(2, 4), (5, 1)]
    assert factorize(2**20 - 1) == [(3, 1), (5, 2), (11, 1), (31, 1), (41, 1)]
    # needs the rho stage: two primes above the trial bound
    n = 1000003 * 1000033
    assert factorize(n) == [(1000003, 1), (1000033, 1)]
    for n in range(1, 300):
        prod = 1
        for p, k in factorize(n):
            assert is_prime(p)
            prod *= p**k
        assert prod == n


def test_ctx_basics(ctx9):
    assert ctx9.q == 3
    assert ctx9.h == 2
    assert ctx9.base == 9
    assert ctx9.group_order == 8
    assert ctx9.factors == [(2, 3)]
    assert str(ctx9.primitive_root) == "T+1"


def test_power_table(ctx9):
    table = [str(ctx9.primitive_root**j) for j in range(8)]
    assert table == ["1", "T+1", "2*T", "2*T+1", "2", "2*T+2", "T", "T+2"]
    assert ctx9.primitive_root**8 == ctx9.one


def test_ctx_validation(f3):
    with pytest.raises(ValueError):
        ResidueCtx(parse_poly("T^2+2", f3))  # reducible
    with pytest.raises(ValueError):
        ResidueCtx(parse_poly("2*T+1", f3))  # not monic
    with pytest.raises(ValueError):
        ResidueCtx(parse_poly("2", f3))  # constant
    with pytest.raises(ValueError) as exc:
        ResidueCtx(parse_poly("T^2+1", f3), primitive_root=parse_poly("2", f3))
    assert "order is 2" in str(exc.value)


def test_primitive_root_search_is_first(f2, f3):
    # The chosen root must be the first primitive element in encoding order.
    for prime_text, field in [("T^2+1", f3), ("T+1", f3), ("T^2+T+1", f2), ("T^3+T+1", f2)]:
        ctx = ResidueCtx(parse_poly(prime_text, field))
        found = ctx.primitive_root.enc
        for e in range(1, found):
            r = ctx.from_enc(e)
            assert ctx.mult_order(r) < ctx.group_order
        assert ctx.mult_order(ctx.primitive_root) == ctx.group_order


def test_primitive_root_goldens(f2, f3):
    assert str(ResidueCtx(parse_poly("T+1", f3)).primitive_root) == "2"
    assert str(ResidueCtx(parse_poly("T^2+T+1", f2)).primitive_root) == "T"
    assert str(ResidueCtx(parse_poly("T", f2)).primitive_root) == "1"


def test_primitive_root_search_skips_constants(f2, f3, f4, monkeypatch):
    # For h >= 2 a constant's order divides q - 1, so none is ever tried.
    tried = []
    is_primitive = ResidueCtx._is_primitive

    def recording(self, r):
        tried.append(r)
        return is_primitive(self, r)

    monkeypatch.setattr(ResidueCtx, "_is_primitive", recording)
    for prime_text, field, root in [("T^2+1", f3, "T+1"), ("T^3+T+1", f2, "T"),
                                    ("T^2+T+(u)", f4, "T")]:
        tried.clear()
        ctx = ResidueCtx(parse_poly(prime_text, field))
        assert str(ctx.primitive_root) == root
        assert tried and all(r.rep.degree >= 1 for r in tried)
    # h = 1: the units are the constants, and the search still starts at 1.
    tried.clear()
    assert str(ResidueCtx(parse_poly("T+1", f3)).primitive_root) == "2"
    assert [str(r) for r in tried] == ["1", "2"]


def test_determinism(f3):
    a = ResidueCtx(parse_poly("T^2+1", f3))
    b = ResidueCtx(parse_poly("T^2+1", f3))
    assert a.primitive_root.coeffs == b.primitive_root.coeffs
    assert [a.label(j) for j in range(8)] == [b.label(j) for j in range(8)]


def test_unit_group_enumeration(small_rings):
    # Powers of the root enumerate every nonzero residue exactly once.
    for ctx, _ in small_rings:
        seen = set()
        cur = ctx.one
        for _ in range(ctx.group_order):
            assert cur
            seen.add(cur.enc)
            cur = cur * ctx.primitive_root
        assert cur == ctx.one
        assert len(seen) == ctx.group_order
        assert seen == set(range(1, ctx.base))


def test_residue_arithmetic_exhaustive(ctx9, f4, f9):
    # Ring laws against plain polynomial arithmetic mod the prime: every pair
    # on the small rings, random pairs on the large ones.  This pins the fold
    # over F_p in ResidueCtx._mul, the one residue product outside polyring.
    rings = [
        ctx9,
        ResidueCtx(parse_poly("T^3+T+1", f4)),
        ResidueCtx(find_irreducible(2, f9)),
        ResidueCtx(parse_poly("T^15+T+1", Field(2)), dlog_table_limit=0),
        # The root search would walk the 2^61 - 2 constants first; T+6 is the
        # first primitive T+c.
        ResidueCtx(find_irreducible(2, Field(2**61 - 1)),
                   primitive_root=parse_poly("T+6", Field(2**61 - 1))),
    ]
    rng = random.Random(37)
    for ctx in rings:
        prime = ctx.prime
        if ctx.base <= 81:
            residues = [ctx.from_enc(e) for e in range(ctx.base)]
            pairs = [(a, b) for a in residues for b in residues]
        else:
            encs = [rng.randrange(ctx.base) for _ in range(1000)]
            pairs = [(ctx.from_enc(x), ctx.from_enc(y)) for x, y in zip(encs[::2], encs[1::2])]
        for a, b in pairs:
            assert (a + b).rep == (a.rep + b.rep) % prime
            assert (a * b).rep == (a.rep * b.rep) % prime
            assert (a - b).rep == (a.rep - b.rep) % prime
        for a, _ in pairs[:200]:
            if a:
                inv = a.inverse()
                assert a * inv == ctx.one
                assert inv.rep.degree < ctx.h


def test_reduce(ctx9, f3):
    assert str(ctx9.reduce(Poly.monomial(f3, 9))) == "T"
    assert ctx9.reduce(parse_poly("T^2+1", f3)).is_zero()
    rng = random.Random(29)
    for _ in range(200):
        coeffs = [rng.randrange(3) for _ in range(rng.randint(1, 60))]
        poly = Poly(f3, coeffs)
        assert ctx9.reduce(poly).rep == poly % ctx9.prime


def test_reduce_extension(f4):
    ctx = ResidueCtx(parse_poly("T^2+(u)*T+u", f4))
    rng = random.Random(31)
    for _ in range(100):
        poly = Poly(f4, [rng.randrange(4) for _ in range(rng.randint(1, 20))])
        assert ctx.reduce(poly).rep == poly % ctx.prime


def test_ctx_inverts_the_prime_once(f4, monkeypatch):
    # Over F_4 every residue product divides by the prime; the context keeps
    # one Newton inverse of it, renewed only when a longer quotient needs it.
    ctx = ResidueCtx(parse_poly("T^3+T+1", f4))
    rng = random.Random(43)
    units = [ctx.from_enc(rng.randrange(1, ctx.base)) for _ in range(101)]
    poly = Poly(f4, [rng.randrange(4) for _ in range(40)] + [1])
    inverses = []
    inverse_series = polyring._inverse_series
    monkeypatch.setattr(polyring, "_inverse_series",
                        lambda f, n, field: inverses.append(n) or inverse_series(f, n, field))
    products = [a * b for a, b in zip(units, units[1:])]
    reduced = ctx.reduce(poly)
    assert len(inverses) <= 2
    monkeypatch.undo()
    for a, b, prod in zip(units, units[1:], products):
        assert prod.rep == a.rep * b.rep % ctx.prime
    assert reduced.rep == poly % ctx.prime


def test_dlog_homomorphism(small_rings):
    rng = random.Random(37)
    for ctx, _ in small_rings:
        order = ctx.group_order
        for j in range(order):
            assert ctx.dlog(ctx.primitive_root**j) == j
        for _ in range(50):
            a = ctx.from_enc(rng.randrange(1, ctx.base))
            b = ctx.from_enc(rng.randrange(1, ctx.base))
            assert ctx.dlog(a * b) == (ctx.dlog(a) + ctx.dlog(b)) % order


def test_dlog_zero_rejected(ctx9):
    with pytest.raises(ValueError):
        ctx9.dlog(ctx9.zero)


def test_dlog_bsgs_matches_table(f3, f2):
    # Table limits around L = q^h - 1 against the default context: at or
    # above L the baby steps are the full table, a list, and below it
    # ceil(sqrt(L)) of them in a dict.
    for prime_text, field in [("T^2+1", f3), ("T^4+T+1", f2), ("T", f2)]:
        full = ResidueCtx(parse_poly(prime_text, field))
        L = full.group_order
        for limit in (1, L - 1, L):
            ctx = ResidueCtx(parse_poly(prime_text, field), dlog_table_limit=limit)
            for e in range(1, full.base):
                assert full.dlog(full.from_enc(e)) == ctx.dlog(ctx.from_enc(e))
            lookup, m, _ = ctx._baby_steps
            if limit >= L:
                assert isinstance(lookup.__self__, list) and m == L
            else:
                assert isinstance(lookup.__self__, dict)
                assert len(lookup.__self__) == m == isqrt(L - 1) + 1
                assert m < L or L == 1


def test_ctx_takes_no_log_work_before_the_first_dlog(f2, mul_calls):
    # binom and factorial take no discrete log, so none of the table's
    # q^h - 1 = 32767 products is made.
    ctx = ResidueCtx(parse_poly("T^15+T+1", f2))
    cache = DigitBinomCache(ctx)
    cache.binom(10**12, 10**11)
    cache.factorial(12345)
    assert len(mul_calls) <= 200


def test_bsgs_shares_its_baby_steps(f2, mul_calls):
    # After the first log, each log is giant steps only: at most
    # ceil(sqrt(L)) + 1 products.
    ctx = ResidueCtx(parse_poly("T^15+T+1", f2), dlog_table_limit=0)
    ctx.dlog(ctx.from_enc(12345))
    for e in (2, 2**15 - 1, 20000):
        r = ctx.from_enc(e)
        mul_calls.clear()
        j = ctx.dlog(r)
        assert len(mul_calls) <= isqrt(ctx.group_order - 1) + 2
        assert ctx.primitive_root ** j == r


def test_mult_order(ctx9, f3):
    t = ctx9.reduce(Poly.gen(f3))
    assert ctx9.mult_order(t) == 4
    assert ctx9.mult_order(ctx9.from_enc(2)) == 2  # the residue 2
    assert ctx9.mult_order(ctx9.one) == 1
    for e in range(1, 9):
        r = ctx9.from_enc(e)
        k = ctx9.mult_order(r)
        assert r**k == ctx9.one
        for d in range(1, k):
            assert r**d != ctx9.one
    with pytest.raises(ZeroDivisionError):
        ctx9.mult_order(ctx9.zero)


def test_pow_negative_and_reduction(ctx9):
    g = ctx9.primitive_root
    assert g**-1 == g.inverse()
    assert g**-3 == (g**3).inverse()
    assert g**11 == g**3  # exponents reduce mod the group order
    assert ctx9.zero**0 == ctx9.one
    assert (ctx9.zero**5).is_zero()
    with pytest.raises(ZeroDivisionError):
        ctx9.zero**-1


def test_pow_skips_the_last_squaring(ctx9, monkeypatch):
    g = ctx9.primitive_root
    fourth = g * g * g * g
    inv3 = (g * g * g).inverse()
    products = []
    mul = Residue.__mul__

    def counting_mul(self, other):
        products.append(self is other)
        return mul(self, other)

    monkeypatch.setattr(Residue, "__mul__", counting_mul)
    assert g**1 == g
    assert products == [False]  # no squaring after the exponent's last bit
    products.clear()
    assert g**4 == fourth
    assert products.count(True) == 2
    products.clear()
    assert g**16 == ctx9.one  # 16 = 0 mod the group order 8: no products
    assert products == []
    assert g**-3 == inv3
    products.clear()
    assert ctx9.zero**0 == ctx9.one and ctx9.zero**4 == ctx9.zero
    assert products == []
    with pytest.raises(ZeroDivisionError):
        ctx9.zero**-2


def test_label_periodicity(ctx9):
    for j in range(8):
        assert ctx9.label(j) == ctx9.label(j + 8)
    assert ctx9.label(0) == "1"
    assert ctx9.label(6) == "T"


def test_ctx_mismatch(f3, f2):
    a = ResidueCtx(parse_poly("T^2+1", f3))
    b = ResidueCtx(parse_poly("T^2+T+1", f2))
    with pytest.raises(ValueError):
        a.one * b.one


def test_trivial_group(f2):
    ctx = ResidueCtx(parse_poly("T", f2))
    assert ctx.group_order == 1
    assert ctx.factors == []
    assert ctx.primitive_root == ctx.one
    assert ctx.dlog(ctx.one) == 0
    assert ctx.mult_order(ctx.one) == 1
