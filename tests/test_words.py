import random

import pytest

from carlitz import (
    DigitBinomCache,
    GuardrailError,
    ResidueCtx,
    Word,
    binom_exact,
    class_set,
    digits_of,
    nat_tail,
    nat_window,
    parse_poly,
)


def test_digits_of():
    assert digits_of(1811, 9) == [2, 3, 4, 2]
    assert digits_of(0, 9) == [0]
    assert digits_of(8, 9) == [8]
    assert digits_of(9, 9) == [0, 1]
    assert digits_of(5, 2) == [1, 0, 1]
    with pytest.raises(ValueError):
        digits_of(-1, 9)
    with pytest.raises(ValueError):
        digits_of(3, 1)


def test_word_round_trip():
    rng = random.Random(7)
    for base in (2, 3, 9, 16):
        for _ in range(50):
            n = rng.randrange(base**5)
            w = Word.from_int(n, base)
            assert w.value() == n
            assert w.base == base
            assert w.degree == len(digits_of(n, base))


def test_word_padding():
    w = Word.from_int(3, 9, length=4)
    assert w.digits == (3, 0, 0, 0)
    assert w.value() == 3
    assert w.degree == 4
    with pytest.raises(ValueError):
        Word.from_int(100, 9, length=1)


def test_word_validation():
    with pytest.raises(ValueError):
        Word((), 9)
    with pytest.raises(ValueError):
        Word((9,), 9)
    with pytest.raises(ValueError):
        Word((-1,), 9)
    with pytest.raises(ValueError):
        Word((0,), 1)


def test_word_is_an_immutable_value():
    w = Word((3, 0, 1), 9)
    with pytest.raises(AttributeError, match="cannot assign to field 'digits'"):
        w.digits = (1,)
    with pytest.raises(AttributeError, match="cannot delete field 'base'"):
        del w.base
    assert repr(w) == "Word(digits=(3, 0, 1), base=9)"
    assert w.__eq__((3, 0, 1)) is NotImplemented and w != (3, 0, 1)
    assert w != Word((3, 0, 1), 16)
    assert {w, Word.from_int(84, 9, length=3)} == {w}


def test_concat_law():
    # z(a * b) = z(a) + base^deg(a) * z(b), and concatenation is associative
    # but not commutative.
    rng = random.Random(11)
    for base in (2, 9):
        for _ in range(40):
            a = Word.from_int(rng.randrange(base**3), base, length=rng.randrange(3, 5))
            b = Word.from_int(rng.randrange(base**3), base, length=rng.randrange(3, 5))
            c = Word.from_int(rng.randrange(base**3), base)
            ab = a * b
            assert ab.value() == a.value() + base**a.degree * b.value()
            assert ab.degree == a.degree + b.degree
            assert (a * b) * c == a * (b * c)
    x = Word((1, 0), 9)
    y = Word((2,), 9)
    assert x * y != y * x
    assert (x * y).value() == 1 + 81 * 2
    assert (y * x).value() == 2 + 9 * 1


def test_concat_mismatch():
    with pytest.raises(ValueError):
        Word((1,), 9) * Word((1,), 4)
    with pytest.raises(TypeError):
        Word((1,), 9) * 3


def test_windowing_goldens():
    assert nat_tail(1811, 1, 9) == 201
    assert nat_tail(1811, 0, 9) == 1811
    assert nat_tail(1811, 4, 9) == 0
    assert nat_window(1811, 0, 0, 9) == 2
    assert nat_window(1811, 1, 1, 9) == 39  # digits (3, 4)
    assert nat_window(1811, 2, 1, 9) == 201  # digits (3, 4, 2)
    assert nat_window(1811, 0, 3, 9) == 2


def test_windowing_split_identity():
    # u = low digits + base^s * window + base^(s+r+1) * tail, always.
    rng = random.Random(13)
    for _ in range(200):
        base = rng.choice((2, 3, 9))
        u = rng.randrange(base**8)
        s = rng.randrange(4)
        r = rng.randrange(4)
        low = u % base**s
        mid = nat_window(u, r, s, base)
        high = nat_tail(u, s + r + 1, base)
        assert u == low + base**s * mid + base ** (s + r + 1) * high
        assert 0 <= mid < base ** (r + 1)


def test_windowing_errors():
    with pytest.raises(ValueError):
        nat_tail(-1, 0, 9)
    with pytest.raises(ValueError):
        nat_tail(5, -1, 9)
    with pytest.raises(ValueError):
        nat_window(5, -1, 0, 9)


def test_class_set_goldens(ctx9, cache9):
    w = Word((3,), 9)
    assert class_set(w, 0, cache9) == {0, 3}
    assert class_set(w, 6, cache9) == {1, 2}
    assert class_set(w, 1, cache9) == set()
    # j is read mod the unit-group order
    assert class_set(w, 8, cache9) == {0, 3}
    assert class_set(w, -2, cache9) == {1, 2}


def test_class_set_partitions(ctx9, cache9):
    # The classes and the zero locus partition [0, z].
    for n in (3, 10, 30):
        w = Word.from_int(n, 9)
        sets = [class_set(w, j, cache9) for j in range(ctx9.group_order)]
        seen = set()
        for s in sets:
            assert not (s & seen)
            seen |= s
        zeros = {u for u in range(n + 1) if cache9.binom(n, u).is_zero()}
        assert not (seen & zeros)
        assert seen | zeros == set(range(n + 1))


def test_class_set_against_exact(ctx9, cache9):
    # Independent classification through exact division and reduction.
    f3 = ctx9.field
    n = 14
    w = Word.from_int(n, 9)
    for j in range(8):
        expect = set()
        for u in range(n + 1):
            b = ctx9.reduce(binom_exact(n, u, f3))
            if b and ctx9.dlog(b) == j:
                expect.add(u)
        assert class_set(w, j, cache9) == expect


def test_class_set_takes_only_bracket_dlogs(ctx9, dlog_calls):
    # Every log is a sum of bracket logs over the carries: h - 1 dlogs in all.
    cache = DigitBinomCache(ctx9)
    assert class_set(Word.from_int(30, 9), 6, cache) == {1, 2, 9, 12, 18, 21, 28, 29}
    class_set(Word.from_int(1811, 9), 0, cache)
    assert len(dlog_calls) == ctx9.h - 1


def test_class_set_table_free(f2, dlog_calls):
    # On T^15+T+1, baby-step/giant-step bracket logs give the table's sets.
    prime = parse_poly("T^15+T+1", f2)
    table = ResidueCtx(prime)
    bsgs = ResidueCtx(prime, primitive_root=table.primitive_root.rep, dlog_table_limit=0)
    z = 2**15 + 300
    w = Word.from_int(z, 2**15)
    cache = DigitBinomCache(table)
    js = {table.dlog(cache.binom(z, u)) for u in (1, 2, 3, 299)}
    for j in js:
        dlog_calls.clear()
        got = class_set(w, j, DigitBinomCache(bsgs))
        assert len(dlog_calls) == 14
        assert got and got == class_set(w, j, cache)


def test_class_set_guardrail(cache9):
    w = Word.from_int(100, 9)
    with pytest.raises(GuardrailError):
        class_set(w, 0, cache9, limit=50)
    class_set(w, 0, cache9, limit=100)  # boundary: z == limit is allowed


def test_class_set_base_mismatch(cache9):
    with pytest.raises(ValueError):
        class_set(Word((1,), 4), 0, cache9)
