import json
import random

import pytest

from carlitz import (
    BaseTable,
    CountPoly,
    DigitBinomCache,
    Distribution,
    GuardrailError,
    Poly,
    ResidueCtx,
    base_table,
    binom_exact,
    digit_counts,
    distribution,
    distribution_brute,
    from_json_dict,
    gn_fast,
    is_irreducible,
    parse_poly,
    to_json_dict,
)


# -- the cyclic counting ring -----------------------------------------------------


def test_countpoly_basics():
    one = CountPoly.one(8)
    assert one.coeffs == (1, 0, 0, 0, 0, 0, 0, 0)
    f = CountPoly.from_terms({0: 2, 6: 2}, 8)
    assert str(f) == "2 + 2x^6"
    assert f * one == f
    assert f.eval_one() == 4
    assert f.coeff(6) == 2
    assert f.coeff(14) == 2  # exponents wrap mod 8
    assert f.coeff(-2) == 2
    assert CountPoly.from_terms({12: 5}, 8).coeff(4) == 5
    assert str(CountPoly((0,) * 8)) == "0"
    assert str(CountPoly((1, 1, 0, 3))) == "1 + x + 3x^3"


def test_countpoly_cyclic_wraparound():
    x7 = CountPoly.from_terms({7: 1}, 8)
    x1 = CountPoly.from_terms({1: 1}, 8)
    assert x7 * x1 == CountPoly.one(8)  # x^8 = 1
    assert x7 * x7 == CountPoly.from_terms({6: 1}, 8)


def test_countpoly_pow_skips_the_last_squaring(monkeypatch):
    f = CountPoly.from_terms({0: 2, 3: 1, 6: 2}, 8)
    fourth = f * f * f * f
    products = []
    mul = CountPoly.__mul__

    def counting_mul(self, other):
        products.append(self is other)
        return mul(self, other)

    monkeypatch.setattr(CountPoly, "__mul__", counting_mul)
    assert f**0 == CountPoly.one(8) and products == []
    assert f**1 == f
    assert products == [False]  # no squaring after the exponent's last bit
    products.clear()
    assert f**4 == fourth
    assert products.count(True) == 2
    with pytest.raises(ValueError):
        f**-1


def test_countpoly_golden_product():
    # 9 * (2 + 2x^6)(4 + x^6) = 72 + 18x^4 + 90x^6 in Z[x]/(x^8 - 1)
    g2 = CountPoly.from_terms({0: 3}, 8)
    g3 = CountPoly.from_terms({0: 2, 6: 2}, 8)
    g4 = CountPoly.from_terms({0: 4, 6: 1}, 8)
    prod = g2 * g2 * g3 * g4
    assert prod == CountPoly.from_terms({0: 72, 4: 18, 6: 90}, 8)
    assert str(prod) == "72 + 18x^4 + 90x^6"


def test_countpoly_matches_plain_reduction():
    # Oracle: multiply in Z[x] with schoolbook convolution, then fold
    # exponents mod L by long division against x^L - 1.
    rng = random.Random(17)
    for _ in range(40):
        L = rng.choice((1, 2, 5, 8))
        a = [rng.randrange(9) for _ in range(L)]
        b = [rng.randrange(9) for _ in range(L)]
        plain = [0] * (2 * L)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                plain[i + j] += ai * bj
        folded = [0] * L
        for k, c in enumerate(plain):
            folded[k % L] += c
        assert CountPoly(a) * CountPoly(b) == CountPoly(folded)


def test_countpoly_pow():
    f = CountPoly.from_terms({0: 2, 6: 2}, 8)
    byhand = CountPoly.one(8)
    for e in range(6):
        assert f**e == byhand
        byhand = byhand * f
    assert (f**5).eval_one() == 4**5  # evaluation at 1 is multiplicative


def test_countpoly_errors():
    with pytest.raises(ValueError):
        CountPoly(())
    with pytest.raises(ValueError):
        CountPoly((1, 2)) * CountPoly((1, 2, 3))
    with pytest.raises(TypeError):
        CountPoly((1,)) * 3
    with pytest.raises(ValueError):
        CountPoly((1, 2)) ** -1


# -- digit histograms ----------------------------------------------------------


def test_digit_counts_goldens(ctx9):
    assert digit_counts(1811, ctx9) == [0, 0, 2, 1, 1, 0, 0, 0, 0]
    assert digit_counts(0, ctx9) == [1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert digit_counts(80, ctx9) == [0, 0, 0, 0, 0, 0, 0, 0, 2]
    assert digit_counts(81, ctx9) == [2, 1, 0, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        digit_counts(-1, ctx9)


def test_digit_counts_mass(ctx9):
    # The histogram total is the number of base-9 digits of n.
    for n in (0, 5, 80, 81, 1811, 10**12):
        ndigits = 1
        v = n // 9
        while v:
            ndigits += 1
            v //= 9
        assert sum(digit_counts(n, ctx9)) == ndigits


# -- single-digit tables ---------------------------------------------------------


def test_base_table_goldens(table9):
    assert str(table9.gpoly(0)) == "1"
    assert str(table9.gpoly(1)) == "2"
    assert str(table9.gpoly(2)) == "3"
    assert str(table9.gpoly(3)) == "2 + 2x^6"
    assert str(table9.gpoly(4)) == "4 + x^6"
    assert table9.row(0) == (0,)
    assert table9.row(3) == (0, 6, 6, 0)
    assert table9.row(4) == (0, 0, 6, 0, 0)


def test_base_table_mass(table9, small_rings):
    # G_d(1) = d + 1: all single-digit binomials with m <= d are units.
    for d in range(9):
        assert table9.gpoly(d).eval_one() == d + 1
    for ctx, cache in small_rings:
        for d, g in enumerate(base_table(ctx, cache)):
            assert g.eval_one() == d + 1


def test_base_table_symmetry(table9):
    # binom(d, m) = binom(d, d - m) shows up as palindromic rows.
    for d in range(9):
        row = table9.row(d)
        assert row == row[::-1]
        assert row[0] == 0 and row[-1] == 0


def test_base_table_laziness_and_presets(ctx9, cache9):
    t = BaseTable(ctx9, cache9)
    g = t.gpoly(3)
    assert t.gpoly(3) is g  # built once, then kept
    assert t.row(3) is t.row(3)
    assert t.gpoly(0) == CountPoly.one(8)


def test_base_table_ring_mismatch(ctx9, f3):
    other = ResidueCtx(parse_poly("T+1", f3))
    with pytest.raises(ValueError):
        BaseTable(ctx9, DigitBinomCache(other))


def _foreign_census_calls(f2, f3, ctx9, cache9):
    """Census calls handed a cache or table of another prime or root; over
    F_2 the true census of n = 2 mod T^4+T+1 is [(0, 2), (5, 1)], and over
    F_3 root T+2 in place of T+1 labels the 90 binomials = T as 2*T."""
    ctx_a = ResidueCtx(parse_poly("T^4+T+1", f2))
    ctx_b = ResidueCtx(parse_poly("T^4+T^3+1", f2))
    cache_a, cache_b = DigitBinomCache(ctx_a), DigitBinomCache(ctx_b)
    other_root = ResidueCtx(ctx9.prime, primitive_root=parse_poly("T+2", f3))
    other_cache = DigitBinomCache(other_root)
    return {
        "brute-other-prime-cache": lambda: distribution_brute(2, ctx_a, cache_b),
        "fast-other-prime-table":
            lambda: distribution(2, ctx_a, cache_a, table=BaseTable(ctx_b, cache_b)),
        "fast-other-root-cache": lambda: distribution(1811, ctx9, other_cache),
        "gn-other-root-table":
            lambda: gn_fast(1811, ctx9, cache9, BaseTable(other_root, other_cache)),
        "table-other-root-cache": lambda: BaseTable(ctx9, other_cache),
    }


@pytest.mark.parametrize("call", ["brute-other-prime-cache", "fast-other-prime-table",
                                  "fast-other-root-cache", "gn-other-root-table",
                                  "table-other-root-cache"])
def test_census_rejects_another_ring_or_root(call, f2, f3, ctx9, cache9):
    # A cache's or table's logs are to its own prime and root; read against
    # another they mislabel the census.
    with pytest.raises(ValueError):
        _foreign_census_calls(f2, f3, ctx9, cache9)[call]()


def test_census_accepts_an_equal_context(f2, ctx9, cache9):
    ctx_a = ResidueCtx(parse_poly("T^4+T+1", f2))
    assert distribution_brute(2, ctx_a, DigitBinomCache(ctx_a)).nonzero_items() == [(0, 2), (5, 1)]
    # An equal but distinct context is the same ring and root.
    twin = ResidueCtx(ctx9.prime, primitive_root=ctx9.primitive_root.rep)
    twin_cache = DigitBinomCache(twin)
    twin_table = BaseTable(twin, twin_cache)
    assert distribution(1811, ctx9, twin_cache) == distribution(1811, ctx9, cache9)
    assert gn_fast(1811, ctx9, cache9, twin_table) == gn_fast(1811, ctx9, cache9)
    assert (distribution_brute(1811, ctx9, twin_cache, table=twin_table)
            == distribution_brute(1811, ctx9, cache9))


# -- the fast product ---------------------------------------------------------


def test_gn_fast_golden(ctx9, cache9, table9):
    g = gn_fast(1811, ctx9, cache9, table9)
    assert str(g) == "72 + 18x^4 + 90x^6"
    assert g.eval_one() == 180


def test_gn_fast_smalls(ctx9, cache9, table9):
    assert gn_fast(0, ctx9, cache9, table9) == CountPoly.one(8)
    assert gn_fast(3, ctx9, cache9, table9) == CountPoly.from_terms({0: 2, 6: 2}, 8)
    # single digits reproduce the table rows verbatim
    for d in range(9):
        assert gn_fast(d, ctx9, cache9, table9) == table9.gpoly(d)
    with pytest.raises(ValueError):
        gn_fast(-1, ctx9, cache9)


def test_gn_fast_huge(ctx9, cache9, table9):
    n = 10**40
    g = gn_fast(n, ctx9, cache9, table9)
    expect_mass = 1
    for d, c in enumerate(digit_counts(n, ctx9)):
        expect_mass *= (d + 1) ** c
    assert g.eval_one() == expect_mass
    assert g.length == 8


# -- distributions: brute oracle and equivalence --------------------------------


def test_brute_pinned_to_exact(ctx9, cache9):
    # The linear scan must agree with classifying each m through exact
    # integer-polynomial division, reduction, and discrete logs.
    f3 = ctx9.field
    for n in (0, 1, 3, 9, 14, 30, 40):
        counts = [0] * 8
        zero = 0
        for m in range(n + 1):
            b = ctx9.reduce(binom_exact(n, m, f3))
            if b.is_zero():
                zero += 1
            else:
                counts[ctx9.dlog(b)] += 1
        got = distribution_brute(n, ctx9, cache9)
        assert got.counts == CountPoly(counts), n
        assert got.zero_count == zero, n
        assert got.method == "brute"


def test_fast_matches_brute(small_rings):
    for ctx, cache in small_rings:
        table = BaseTable(ctx, cache)
        for n in range(120):
            fast = distribution(n, ctx, cache, method="fast", table=table)
            brute = distribution(n, ctx, cache, method="brute", table=table)
            assert fast.counts == brute.counts, (ctx.prime, n)
            assert fast.zero_count == brute.zero_count, (ctx.prime, n)


def test_distribution_golden(ctx9, cache9, table9):
    d = distribution(1811, ctx9, cache9, table=table9)
    assert d.nonzero_items() == [(0, 72), (4, 18), (6, 90)]
    assert d.zero_count == 1632
    assert d.epsilon(0) == 72
    assert d.epsilon(4) == 18
    assert d.epsilon(8) == 72  # wraps mod 8
    assert d.epsilon(-4) == 18
    assert d.epsilon(1) == 0
    assert d.residue_label(0) == "1"
    assert d.residue_label(6) == "T"
    assert d.residue_labels == ["1", "T+1", "2*T", "2*T+1", "2", "2*T+2", "T", "T+2"]


def test_counting_identity(ctx9, cache9, table9):
    # Every m in [0, n] is either zero or in exactly one class.
    for n in (0, 1, 7, 8, 9, 80, 81, 1811, 12345, 10**25):
        d = distribution(n, ctx9, cache9, table=table9)
        assert d.counts.eval_one() + d.zero_count == n + 1


def test_distribution_equality(ctx9, cache9):
    a = distribution(30, ctx9, cache9)
    b = distribution(30, ctx9, cache9)
    c = distribution(31, ctx9, cache9)
    assert a == b
    assert a != c
    assert a != distribution(30, ctx9, cache9, method="brute")  # method is part of identity


def test_distribution_errors(ctx9, cache9):
    with pytest.raises(ValueError):
        distribution(5, ctx9, cache9, method="magic")
    with pytest.raises(ValueError):
        distribution(-1, ctx9, cache9)
    with pytest.raises(GuardrailError):
        distribution_brute(10**8, ctx9, cache9)
    with pytest.raises(GuardrailError):
        distribution(10**8, ctx9, cache9, method="brute")
    distribution(10**8, ctx9, cache9, method="fast")  # fast path has no such limit


def test_primitive_root_invariance(ctx9, cache9, f3):
    # A different primitive root permutes the exponents but the counts per
    # actual residue class are the same.
    prime = parse_poly("T^2+1", f3)
    alt = ResidueCtx(prime, primitive_root=parse_poly("2*T+1", f3))
    alt_cache = DigitBinomCache(alt)
    for n in (3, 4, 100, 1811):
        d1 = distribution(n, ctx9, cache9)
        d2 = distribution(n, alt, alt_cache)
        by_label1 = {d1.residue_label(j): c for j, c in d1.nonzero_items()}
        by_label2 = {d2.residue_label(j): c for j, c in d2.nonzero_items()}
        assert by_label1 == by_label2, n
        assert d1.zero_count == d2.zero_count
    # n = 0 has the same counts under both roots; the root tells them apart.
    assert distribution(0, ctx9, cache9) != distribution(0, alt, alt_cache)


def _monic_irreducibles(field, degree):
    q = field.q
    for e in range(q**degree):
        coeffs = [(e // q**i) % q for i in range(degree)] + [1]
        prime = Poly(field, coeffs)
        if is_irreducible(prime):
            yield prime


def test_every_small_prime(f2, f3, f4):
    # Every monic irreducible of degree <= 4 over F_2 and F_3 and of degree
    # <= 2 over F_4: digit binomials and rows against exact division, and the
    # fast product against the brute scan for n < 2 q^h.
    rings = 0
    for field, max_degree in ((f2, 4), (f3, 4), (f4, 2)):
        q = field.q
        exact = {}  # binom(a, b)_C does not depend on the prime
        for h in range(1, max_degree + 1):
            for a in range(q**h):
                for b in range(a + 1):
                    if (a, b) not in exact:
                        exact[a, b] = binom_exact(a, b, field)
            for prime in _monic_irreducibles(field, h):
                rings += 1
                ctx = ResidueCtx(prime)
                cache = DigitBinomCache(ctx)
                table = BaseTable(ctx, cache)
                for a in range(ctx.base):
                    row = table.row(a)
                    for b in range(ctx.base):
                        got = cache.digit_binom(a, b)
                        if b > a:
                            assert got.is_zero()
                            continue
                        want = ctx.reduce(exact[a, b])
                        assert got == want, (str(prime), a, b)
                        assert row[b] == ctx.dlog(want), (str(prime), a, b)
                for n in range(2 * ctx.base):
                    brute = distribution_brute(n, ctx, cache, table=table)
                    assert gn_fast(n, ctx, cache, table) == brute.counts, (str(prime), n)
    assert rings == 50


# -- JSON interchange -----------------------------------------------------------


def test_json_round_trip(ctx9, cache9):
    for n in (0, 3, 1811, 10**30):
        d = distribution(n, ctx9, cache9)
        doc = json.loads(json.dumps(to_json_dict(d)))
        back = from_json_dict(doc)
        assert back == d
        assert back.ctx.group_order == 8


def test_json_schema_shape(ctx9, cache9):
    doc = to_json_dict(distribution(1811, ctx9, cache9))
    assert doc["p"] == 3 and doc["s"] == 1 and doc["h"] == 2
    assert doc["field_modulus"] is None
    assert doc["prime"] == "T^2+1"
    assert doc["primitive_root"] == "T+1"
    assert doc["group_order"] == "8"
    assert doc["n"] == "1811"
    assert doc["zero_count"] == "1632"
    assert doc["counts"][0] == {"exponent": "0", "residue": "1", "count": "72"}
    assert all(isinstance(e["count"], str) for e in doc["counts"])


def test_json_round_trip_extension(small_rings):
    for ctx, cache in small_rings:
        d = distribution(57, ctx, cache)
        assert from_json_dict(to_json_dict(d)) == d


def test_json_validation(ctx9, cache9):
    good = to_json_dict(distribution(3, ctx9, cache9))
    bad = dict(good, group_order="7")
    with pytest.raises(ValueError):
        from_json_dict(bad)
    bad = dict(good)
    bad["counts"] = [dict(good["counts"][0], residue="T+2")]
    with pytest.raises(ValueError):
        from_json_dict(bad)


def test_residue_labels_walk_the_root_powers(f2):
    ctx = ResidueCtx(parse_poly("T^7+T+1", f2))
    d = distribution(300, ctx, DigitBinomCache(ctx))
    assert d.residue_labels == [ctx.label(j) for j in range(ctx.group_order)]
