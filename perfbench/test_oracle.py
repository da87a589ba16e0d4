"""Tests of the benchmark's reference arithmetic (oracle.py).

    python3 -m pytest perfbench/test_oracle.py -q
    python3 perfbench/test_oracle.py          # without pytest

They import nothing from carlitz.
"""

from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle as o  # noqa: E402

F3 = o.GF(3)
F4 = o.GF(2, 2)


def _rejects(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except o.Mismatch:
        return True
    return False


def _worked_ring():
    return o.Ring(F3, o.parse_poly(F3, "T^2+1"), o.parse_poly(F3, "T+1"))


def test_worked_example():
    ring = _worked_ring()
    counts, zero = ring.census(1811)
    assert counts == {0: 72, 4: 18, 6: 90}
    assert zero == 1632
    o.check_census(ring, 1811, counts, zero)
    o.check_census(ring, 1811, counts, zero, points=range(ring.L))


def test_corrupted_count_is_rejected():
    ring = _worked_ring()
    assert _rejects(o.check_census, ring, 1811, {0: 73, 4: 18, 6: 90}, 1631)
    assert _rejects(o.check_census, ring, 1811, {0: 72, 4: 17, 6: 91}, 1632)
    # Same mass, wrong classes: only the root-of-unity values can tell.
    assert _rejects(o.check_census, ring, 1811, {0: 72, 4: 17, 6: 91}, 1632,
                    points=range(ring.L))
    n = 10**40 + 12345
    counts, zero = _product_census(ring, n)
    o.check_census(ring, n, counts, zero, points=range(ring.L))
    j = next(iter(counts))
    bad = dict(counts)
    bad[j] -= 1
    bad[(j + 1) % ring.L] = bad.get((j + 1) % ring.L, 0) + 1
    assert _rejects(o.check_census, ring, n, bad, zero, points=range(ring.L))


def test_wrong_zero_count_is_rejected():
    ring = _worked_ring()
    assert _rejects(o.check_census, ring, 1811, {0: 72, 4: 18, 6: 90}, 1633)
    n = 10**30 + 7
    counts, zero = _product_census(ring, n)
    assert _rejects(o.check_census, ring, n, counts, zero + 1, points=[1])
    assert _rejects(o.check_census, ring, n, counts, zero - 1, points=[1])


def test_wrong_exact_binomial_is_rejected():
    o.check_binom_exact(4, 2, 3, o.parse_poly(F3, "T^3+2*T"))
    assert _rejects(o.check_binom_exact, 4, 2, 3, o.parse_poly(F3, "T^3+T"))
    for p, n, m in [(3, 200, 77), (2, 300, 129), (5, 150, 60)]:
        F = o.GF(p)
        quotient, rem = o.pdivmod(F, o.factorial(n, p),
                                  o.kmul(o.factorial(m, p), o.factorial(n - m, p), p))
        assert rem == []
        o.check_binom_exact(n, m, p, quotient)
        bad = list(quotient)
        bad[len(bad) // 2] = (bad[len(bad) // 2] + 1) % p
        assert _rejects(o.check_binom_exact, n, m, p, bad)


def test_factorials_from_the_definition():
    assert o.format_poly(F3, o.factorial(3, 3)) == "T^3+2*T"  # D_1 = T^3 - T
    assert o.format_poly(F3, o.factorial(4, 3)) == "T^3+2*T"
    # D_2 over F_2 = (T^4 - T)(T^4 - T^2) = T^8 + T^6 + T^5 + T^3
    assert o.format_poly(o.GF(2), o.d_poly(2, 2)) == "T^8+T^6+T^5+T^3"


def test_non_primitive_root_is_rejected():
    assert not o.is_primitive(F3, o.parse_poly(F3, "T^2+1"), o.parse_poly(F3, "T"))
    assert _rejects(o.Ring, F3, o.parse_poly(F3, "T^2+1"), o.parse_poly(F3, "T"))


def test_f4_arithmetic_and_text():
    u = F4.p
    assert F4.modulus == (1, 1, 1)  # u^2 + u + 1
    assert F4.mul[u][u] == F4.add[u][1]  # u^2 = u + 1
    assert all(F4.mul[a][F4.inv[a]] == 1 for a in range(1, 4))
    a = o.parse_poly(F4, "(u+1)*T^2+T+(u)")
    assert a == [u, 1, F4.add[u][1]]
    assert o.format_poly(F4, a) == "(u+1)*T^2+T+(u)"


def test_kronecker_matches_schoolbook():
    rnd = random.Random(1)
    for p in (2, 3, 7):
        F = o.GF(p)
        for la, lb in [(1, 1), (5, 200), (300, 257)]:
            a = o.trim([rnd.randrange(p) for _ in range(la - 1)] + [1])
            b = o.trim([rnd.randrange(p) for _ in range(lb - 1)] + [1])
            school = [0] * (la + lb - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    school[i + j] = (school[i + j] + x * y) % p
            assert o.kmul(a, b, p) == o.trim(school)
            assert o.pmul(F, a, b) == o.trim(school)


def _product_census(ring, n):
    """G_n as the cyclic product of the single-digit G_d (the paper's rule)."""
    L = ring.L
    acc = {0: 1}
    for a in o.digits(n, ring.base):
        g = ring.gpoly(a)
        out = {}
        for i, x in acc.items():
            for j, y in g.items():
                out[(i + j) % L] = out.get((i + j) % L, 0) + x * y
        acc = out
    return acc, n + 1 - sum(acc.values())


def test_enumeration_agrees_with_the_digit_product():
    """The enumeration never uses the base-q^h digit rule, so agreeing with
    it on every n below a bound checks the oracle's two halves against each
    other, F_4 and a prime with h > 1 dividing the bracket index included."""
    cases = [(F3, "T^2+1", 400), (o.GF(2), "T^3+T+1", 300), (F4, "T^2+T+(u)", 200),
             (o.GF(5), "T^2+2", 150), (o.GF(2), "T^4+T+1", 200)]
    for F, prime, bound in cases:
        ring = _any_ring(F, o.parse_poly(F, prime))
        for n in range(bound):
            counts, zero = ring.census(n)
            assert (counts, zero) == _product_census(ring, n), (prime, n)


def _any_ring(F, P):
    h = len(P) - 1
    roots = (o.trim([(e // F.q**i) % F.q for i in range(h)]) for e in range(1, F.q**h))
    return o.Ring(F, P, next(g for g in roots if o.is_primitive(F, P, g)))


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print("ok", t.__name__)
