"""Counting Carlitz binomial coefficients by residue class.

For a prime p of degree h, primitive root g, and L = q^h - 1, let eps_j(n)
count the m in [0, n] with binom(n, m)_C = g^j mod p.  If c_d(n) counts the
digit d in the base-q^h expansion of n (c_0(0) = 1), then

    G_n(x) = sum_j eps_j(n) x^j = prod_d G_d(x)^(c_d(n))   in Z[x]/(x^L - 1).

G_d is the histogram of the row of logs of binom(d, m)_C, m <= d.  Only the
distinct digits of n are built, so G_n for huge n costs a handful of cyclic
multiplications (naive convolution with exact bigint coefficients).  gn_fast
implements that product.  distribution_brute instead classifies every m in
[0, n] by the base-q carries of m + (n - m) across the whole of n
(DigitBinomCache.binom_logs) and never splits n into base-q^h digits, so
checking one against the other tests the digit-product identity itself.
distribution wraps both behind a method switch.

Binomials that are = 0 mod p belong to no class; their count is
n + 1 - G_n(1) and is reported separately.  to_json_dict alone decides what
a census document holds, and from_json_dict accepts exactly what it writes.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import mul

from .binom import DigitBinomCache
from .gf import Field, power
from .limits import DEFAULT_ENUM_LIMIT, DENSE_CENSUS_LIMIT, refuse_above
from .polyring import parse_poly, parse_upoly
from .residue import ResidueCtx
from .words import digits_of


class CountPoly:
    """An element of Z[x]/(x^L - 1) with nonnegative integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(int(c) for c in coeffs)
        if not cs:
            raise ValueError("a count polynomial needs modulus length >= 1")
        self.coeffs = cs

    @classmethod
    def one(cls, length: int) -> "CountPoly":
        return cls((1,) + (0,) * (length - 1))

    @classmethod
    def from_terms(cls, terms: dict, length: int) -> "CountPoly":
        out = [0] * length
        for j, c in terms.items():
            out[j % length] += c
        return cls(out)

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def coeff(self, j: int) -> int:
        """Coefficient at exponent j, reduced mod the ring length."""
        return self.coeffs[j % len(self.coeffs)]

    def __eq__(self, other):
        return isinstance(other, CountPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, CountPoly):
            raise TypeError(f"expected CountPoly, got {type(other).__name__}")
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("count polynomials live in rings of different length")
        L = len(self.coeffs)
        out = [0] * L
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        k = i + j
                        if k >= L:
                            k -= L
                        out[k] += a * b
        return CountPoly(out)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("count polynomials only take nonnegative powers")
        return power(self, e, CountPoly.one(len(self.coeffs)), mul)

    def eval_one(self) -> int:
        """The total mass G(1) = sum of coefficients."""
        return sum(self.coeffs)

    def __str__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                mono = "x" if j == 1 else f"x^{j}"
                terms.append(mono if c == 1 else f"{c}{mono}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"CountPoly({self})"


def digit_counts(n: int, ctx: ResidueCtx) -> list[int]:
    """Histogram c_d(n) of the base-q^h digits of n (c_0(0) = 1)."""
    if n < 0:
        raise ValueError("digit counts need n >= 0")
    _check_ring(ctx)
    counts = [0] * ctx.base
    for d in digits_of(n, ctx.base):
        counts[d] += 1
    return counts


def _check_ring(ctx: ResidueCtx, *parts):
    """Raise ValueError unless each cache or table given has ctx's root (and prime),
    and GuardrailError if ctx refuses discrete logs or a census of length q^h - 1: for
    every n, even one with no carry and so no log, before anything that long is built."""
    if any(p is not None and p.ctx is not ctx and p.ctx.primitive_root != ctx.primitive_root
           for p in parts):
        raise ValueError("a cache or table belongs to another ring or primitive root")
    ctx._baby_step_count
    refuse_above(ctx.group_order, DENSE_CENSUS_LIMIT, "q^h - 1 =", "dense-census limit")


class BaseTable:
    """Lazy per-digit data: class rows and single-digit polynomials G_d."""

    def __init__(self, ctx: ResidueCtx, cache: DigitBinomCache):
        _check_ring(ctx, cache)
        self.ctx = ctx
        self.cache = cache
        self._rows: dict[int, tuple] = {}
        self._gpolys: dict[int, CountPoly] = {}

    def row(self, d: int) -> tuple:
        """Discrete logs of binom(d, m)_C mod p for m = 0 .. d.

        A single digit's carries stay below position h, so every entry is a
        genuine exponent, never None.
        """
        hit = self._rows.get(d)
        if hit is None:
            hit = self._rows[d] = tuple(self.cache.binom_logs(d))
        return hit

    def gpoly(self, d: int) -> CountPoly:
        """The single-digit polynomial G_d(x)."""
        hit = self._gpolys.get(d)
        if hit is None:
            hit = self._gpolys[d] = CountPoly.from_terms(Counter(self.row(d)),
                                                         self.ctx.group_order)
        return hit

    def all(self) -> list[CountPoly]:
        return [self.gpoly(d) for d in range(self.ctx.base)]


def base_table(ctx: ResidueCtx, cache: DigitBinomCache) -> list[CountPoly]:
    """All q^h single-digit polynomials G_0 .. G_{q^h - 1}."""
    return BaseTable(ctx, cache).all()


def gn_fast(n: int, ctx: ResidueCtx, cache: DigitBinomCache,
            table: BaseTable | None = None) -> CountPoly:
    """G_n(x) = prod_d G_d(x)^(c_d(n)) over the distinct base-q^h digits d of n;
    polylogarithmic in n."""
    if n < 0:
        raise ValueError("distributions need n >= 0")
    _check_ring(ctx, cache, table)
    if table is None:
        table = BaseTable(ctx, cache)
    digits = Counter(digits_of(n, ctx.base))
    return reduce(mul, (table.gpoly(d) ** c for d, c in digits.items()))


class Distribution:
    """The class-by-class census of binom(n, m)_C mod p over m in [0, n]."""

    def __init__(self, n: int, method: str, counts: CountPoly, zero_count: int,
                 ctx: ResidueCtx):
        self.n = n
        self.method = method
        self.counts = counts
        self.zero_count = zero_count
        self.ctx = ctx

    def __repr__(self):
        return (f"Distribution(n={self.n!r}, method={self.method!r}, "
                f"counts={self.counts!r}, zero_count={self.zero_count!r})")

    def epsilon(self, j: int) -> int:
        """eps_j(n); j may be any integer and reduces mod q^h - 1."""
        return self.counts.coeff(j)

    def residue_label(self, j: int) -> str:
        return self.ctx.label(j)

    @property
    def residue_labels(self) -> list[str]:
        """Labels of root^0 .. root^(q^h - 2), one walk over the powers."""
        return [str(r) for r in self.ctx.powers(self.ctx.group_order)]

    def nonzero_items(self) -> list[tuple[int, int]]:
        """(exponent, count) pairs for the classes that actually occur."""
        return [(j, c) for j, c in enumerate(self.counts.coeffs) if c]

    def __eq__(self, other):
        return (
            isinstance(other, Distribution)
            and self.n == other.n
            and self.method == other.method
            and self.counts == other.counts
            and self.zero_count == other.zero_count
            and self.ctx.primitive_root == other.ctx.primitive_root  # compares the rings too
        )


def distribution_brute(n: int, ctx: ResidueCtx, cache: DigitBinomCache,
                       limit: int = DEFAULT_ENUM_LIMIT,
                       table: BaseTable | None = None) -> Distribution:
    """Classify every m in [0, n] one by one; the linear-time oracle.

    Each m is judged by the base-q carries of m + (n - m) over the whole of
    n, so no digit row and no product identity is involved.  A given `table`
    must be of this ring and root, but its rows are never read: that would
    make this no oracle for the fast path.
    """
    if n < 0:
        raise ValueError("distributions need n >= 0")
    refuse_above(n, limit, "brute scan of n =", "enumeration limit")
    _check_ring(ctx, cache, table)
    hist = Counter(cache.binom_logs(n))
    zero_count = hist.pop(None, 0)
    return Distribution(n=n, method="brute",
                        counts=CountPoly.from_terms(hist, ctx.group_order),
                        zero_count=zero_count, ctx=ctx)


def distribution(n: int, ctx: ResidueCtx, cache: DigitBinomCache,
                 method: str = "fast", table: BaseTable | None = None,
                 limit: int = DEFAULT_ENUM_LIMIT) -> Distribution:
    """The distribution of binom(n, m)_C mod p over m in [0, n]."""
    if method == "fast":
        counts = gn_fast(n, ctx, cache, table)
        return Distribution(n=n, method="fast", counts=counts,
                            zero_count=n + 1 - counts.eval_one(), ctx=ctx)
    if method == "brute":
        return distribution_brute(n, ctx, cache, limit=limit, table=table)
    raise ValueError(f"unknown method {method!r} (expected 'fast' or 'brute')")


# -- JSON interchange ---------------------------------------------------------


def to_json_dict(dist: Distribution) -> dict:
    """The stable JSON form.  Field names are part of the contract; every
    unbounded integer is a decimal string."""
    ctx = dist.ctx
    f = ctx.field
    return {
        "p": f.p,
        "s": f.s,
        "field_modulus": f.modulus_str(),
        "prime": str(ctx.prime),
        "h": ctx.h,
        "primitive_root": str(ctx.primitive_root),
        "group_order": str(ctx.group_order),
        "n": str(dist.n),
        "method": dist.method,
        "counts": [
            {"exponent": str(j), "residue": ctx.label(j), "count": str(c)}
            for j, c in dist.nonzero_items()
        ],
        "zero_count": str(dist.zero_count),
    }


def from_json_dict(doc: dict) -> Distribution:
    """Rebuild a Distribution (and its ring) from exactly what to_json_dict writes."""
    p = int(doc["p"])
    s = int(doc["s"])
    modulus = parse_upoly(doc["field_modulus"], p) if doc["field_modulus"] else None
    f = Field(p, s, modulus=modulus)
    prime = parse_poly(doc["prime"], f)
    ctx = ResidueCtx(prime, primitive_root=parse_poly(doc["primitive_root"], f))
    _check_ring(ctx)
    terms = {int(e["exponent"]): int(e["count"]) for e in doc["counts"]}
    dist = Distribution(n=int(doc["n"]), method=doc["method"],
                        counts=CountPoly.from_terms(terms, ctx.group_order),
                        zero_count=int(doc["zero_count"]), ctx=ctx)
    rebuilt = to_json_dict(dist)
    for key in [*rebuilt, *doc]:
        if key not in doc or key not in rebuilt or doc[key] != rebuilt[key]:
            raise ValueError(f"field {key!r} is not what to_json_dict writes for this census")
    if (dist.method not in ("fast", "brute")
            or min(dist.n, dist.zero_count, min(dist.counts.coeffs)) < 0
            or dist.counts.eval_one() + dist.zero_count != dist.n + 1):
        raise ValueError("a census needs method 'fast' or 'brute', and n, zero_count and "
                         "counts >= 0 that add up to n + 1")
    return dist
