"""Finite digit words over the alphabet {0, ..., q^h - 1} and the natural
numbers they encode.

A word (a_0, ..., a_r) stands for the integer z = sum a_i * (q^h)^i, i.e. it
is a base-q^h digit string, least significant digit first, allowing leading
(that is, trailing-index) zeros.  Concatenation a * b satisfies

    z(a * b) = z(a) + (q^h)^deg(a) * z(b),

so words form a monoid refining integer addition by digit position.  The
windowing helpers slice an integer's digit string: tail(u, s) drops the s
lowest digits, window(u, r, s) keeps digit positions s .. s+r.

class_set(w, j) collects the lower indices u <= z(w) whose binomial
binom(z(w), u)_C lands in the unit class primitive_root^j mod the prime,
by one scan of their carry logs; the bulk counting lives in dist.
"""

from __future__ import annotations

from .limits import DEFAULT_CLASS_ENUM_LIMIT, refuse_above


def digits_of(n: int, base: int) -> list[int]:
    """Base-`base` digits of n >= 0, least significant first; [0] for n = 0."""
    if n < 0:
        raise ValueError("digit expansion needs n >= 0")
    if base < 2:
        raise ValueError("digit base must be >= 2")
    out = [n % base]
    n //= base
    while n:
        out.append(n % base)
        n //= base
    return out


class Word:
    """A nonempty digit word over {0, ..., base-1}, lowest position first.
    Immutable: assigning to a word raises AttributeError."""

    def __init__(self, digits: tuple, base: int):
        if not digits:
            raise ValueError("words must be nonempty")
        if base < 2:
            raise ValueError("word base must be >= 2")
        for d in digits:
            if not 0 <= d < base:
                raise ValueError(f"digit {d} out of range [0, {base})")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "base", base)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"Word(digits={self.digits!r}, base={self.base!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.digits, self.base) == (other.digits, other.base)

    def __hash__(self):
        return hash((self.digits, self.base))

    @classmethod
    def from_int(cls, n: int, base: int, length: int | None = None) -> "Word":
        ds = digits_of(n, base)
        if length is not None:
            if length < len(ds):
                raise ValueError(f"{n} does not fit in {length} base-{base} digits")
            ds += [0] * (length - len(ds))
        return cls(tuple(ds), base)

    @property
    def degree(self) -> int:
        return len(self.digits)

    def value(self) -> int:
        """The integer this word spells."""
        z = 0
        for d in reversed(self.digits):
            z = z * self.base + d
        return z

    def concat(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            raise TypeError(f"expected Word, got {type(other).__name__}")
        if self.base != other.base:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word(self.digits + other.digits, self.base)

    def __mul__(self, other):
        return self.concat(other)


def nat_tail(u: int, s: int, base: int) -> int:
    """Drop the s lowest base-`base` digits of u."""
    if u < 0 or s < 0:
        raise ValueError("tail needs u >= 0 and s >= 0")
    return u // base**s


def nat_window(u: int, r: int, s: int, base: int) -> int:
    """The integer spelled by digit positions s .. s+r of u."""
    if r < 0:
        raise ValueError("window needs r >= 0")
    return nat_tail(u, s, base) % base ** (r + 1)


def class_set(word: Word, j: int, cache: DigitBinomCache,
              limit: int = DEFAULT_CLASS_ENUM_LIMIT) -> set[int]:
    """All u in [0, z(word)] with binom(z(word), u)_C in class root^j mod p.

    j may be any integer; it is reduced mod q^h - 1.  Zero binomials belong
    to no class.  Each log is read off the carries of u + (z - u)
    (DigitBinomCache.binom_logs), so the scan takes no discrete log beyond
    the h - 1 logs of the brackets [1] .. [h-1].
    """
    ctx = cache.ctx
    if word.base != ctx.base:
        raise ValueError(f"word base {word.base} does not match the ring's q^h = {ctx.base}")
    z = word.value()
    refuse_above(z, limit, "class-set scan of z =", "limit")
    j %= ctx.group_order
    return {u for u, log in enumerate(cache.binom_logs(z)) if log == j}
