"""Dense univariate polynomials over F_q: the ring A = F_q[T].

Coefficients are int-encoded field elements (see gf), stored little-endian
with no trailing zeros, so the zero polynomial has an empty tuple and its
degree is the sentinel NEG_INF rather than an integer.

Text form, both for parsing and canonical output:

    poly  := term ('+' term)*
    term  := coeff | coeff '*' mono | mono
    mono  := 'T' ('^' uint)?
    coeff := uint | '(' upoly ')' | umono

where upoly is the same grammar over the extension generator u with plain
integer coefficients and no parentheses, and umono is its mono.  Text is
read one term at a time, each ending at a '+' outside parentheses or at the
end, and a coefficient by the same loop at the u level, evaluated in F_q.
Whitespace is dropped, but none may split a number; integers are taken
mod p.  Canonical output (gf's terms_str) lists terms by descending power,
'+'-separated, elides unit coefficients, and parenthesizes extension
coefficients ("T^3+2*T", "(u+1)*T+(u)").

Every product is one Kronecker substitution: both coefficient lists are
packed into a single Python int, multiplied once (CPython's Karatsuba does
the convolution) and unpacked (Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symb. Comput. 2009).  Over F_q with
q = p^s, s > 1, the substitution has two variables (von zur Gathen and
Gerhard, Modern Computer Algebra, section 8.4): each coefficient spreads its
s base-p coordinates over a block of 2s - 1 slots, and the u^s .. u^(2s-2)
slots of the product are folded back by the field's reduction rows.  A
product by the constant 1 is no product at all.  A power reads its exponent
in base q: as F_q's elements are fixed by c -> c^q, f^q = f(T^q) is a spread
of f's coefficients, so only each digit's power is multiplied out, by
square-and-multiply.

Every division takes the quotient from a Newton inverse of the reversed
divisor, so it is a few such products too.  Each of them is a short product:
only its low n coefficients are wanted, so the operands are cut to n terms
and the product int to n blocks before it is unpacked and reduced mod p
(von zur Gathen and Gerhard, section 9.1).  The remainder a - q * b has
degree below deg b, so only the low deg b terms of q * b are computed, and
when they equal a's the division is exact and no subtraction is made.  The
divisor keeps its inverse, grown to the longest quotient asked of it so far,
so repeated divisions by one modulus (powmod, a residue ring's prime) invert
it once.  Coefficients stay Python ints throughout, so any prime p works.
"""

from __future__ import annotations

import re
import sys
from array import array
from operator import mul

from .gf import Field, fold, power, terms_str
from .intfactor import prime_factors
from .limits import DEFAULT_EXACT_DEGREE_LIMIT, refuse_above
from .words import digits_of

NEG_INF = float("-inf")  # degree of the zero polynomial

# array typecodes by item size: slots of 1, 2, 4 or 8 bytes pack in C.
_ARRAY_CODES = {array(t).itemsize: t for t in "BHIQ"}


def _slot_width(bound):
    """Bytes per Kronecker slot for coefficients up to bound: 1, 2, 4, 8 or more."""
    w = (bound.bit_length() + 7) // 8
    return next((c for c in (1, 2, 4, 8) if w <= c), w)


def _pack(cs, w):
    code = _ARRAY_CODES.get(w)
    if code:
        raw = array(code, cs).tobytes()
    else:
        raw = b"".join(c.to_bytes(w, sys.byteorder) for c in cs)
    return int.from_bytes(raw, sys.byteorder)


def _unpack(x, n, w):
    raw = x.to_bytes(n * w, sys.byteorder)
    code = _ARRAY_CODES.get(w)
    if code:
        return array(code, raw)
    return [int.from_bytes(raw[i : i + w], sys.byteorder) for i in range(0, len(raw), w)]


def _spread(cs, p, s):
    """Each F_q element of cs as its s base-p coordinates, then s - 1 zeros."""
    if s == 1:
        return cs
    t = 2 * s - 1
    out = [0] * (len(cs) * t)
    for j in range(s):
        pj = p**j
        out[j::t] = [c // pj % p for c in cs]
    return out


def _kmul(a, b, field, n=None):
    """The low n coefficients of a * b over F_q (all len(a) + len(b) - 1 of
    them when n is None or larger), for nonempty coefficient sequences a and
    b (zeros anywhere are allowed).  Each coefficient takes a block of 2s - 1
    slots (see the module doc); a short product drops the terms of a and b
    from T^n up and the product's slots from block n up before unpacking."""
    p, s = field.p, field.s
    t = 2 * s - 1
    square = b is a  # CPython squares faster
    full = len(a) + len(b) - 1
    if n is None or n >= full:
        n = full
    else:
        a = a[:n]
        b = a if square else b[:n]
    # A slot of the integer product is at most min(len a, len b) * s * (p-1)^2,
    # and the fold adds at most (s - 1) * (p - 1) times that, so no slot
    # carries into the next one.
    w = _slot_width(min(len(a), len(b)) * s * (p - 1) ** 2 * (1 + (s - 1) * (p - 1)))
    x = _pack(_spread(a, p, s), w)
    y = x if square else _pack(_spread(b, p, s), w)
    z = x * y
    if n < full:
        z &= (1 << 8 * w * n * t) - 1
    vals = _unpack(z, n * t, w)
    if s == 1:
        return [c % p for c in vals]
    # The fold is linear, so it runs once on whole columns, column k packing
    # slot k of every block.
    cols = fold([_pack(vals[k::t], w) for k in range(t)], s, field._fold_rows)
    out = [0] * n
    for col in reversed(cols):
        out = [e * p + c % p for e, c in zip(out, _unpack(col, n, w))]
    return out


def _inverse_series(f, n, field):
    """g with f * g = 1 mod T^n over F_q, by Newton iteration; f[0] != 0."""
    f = list(f[:n]) + [0] * (n - len(f))
    g = [field.inv(f[0])]
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        # f * g = 1 + T^k * e mod T^k2, so g - T^k * g * e is right mod T^k2.
        e = _kmul(f, g, field, k2)[k:]
        g += field._lincomb([0] * (k2 - k), _kmul(g, e, field, k2 - k), -1)
        k = k2
    return g


class Poly:
    """An element of F_q[T]."""

    # _inv: the reversed Newton inverse series that __divmod__ computes for
    # this divisor and keeps, as a Poly never changes.
    __slots__ = ("field", "coeffs", "_inv")

    def __init__(self, field: Field, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient {c} is not an element encoding of F_{field.q}")
        self.field = field
        self.coeffs = tuple(cs)

    @staticmethod
    def _mk(field, trimmed) -> "Poly":
        # Internal constructor for already-normalized coefficient tuples.
        p = object.__new__(Poly)
        p.field = field
        p.coeffs = trimmed
        return p

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls._mk(field, ())

    @classmethod
    def one(cls, field):
        return cls._mk(field, (1,))

    @classmethod
    def gen(cls, field):
        """The variable T."""
        return cls._mk(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        field._check(c)
        return cls._mk(field, (c,) if c else ())

    @classmethod
    def monomial(cls, field, k, c=1):
        """c * T^k."""
        field._check(c)
        if c == 0:
            return cls.zero(field)
        return cls._mk(field, (0,) * k + (c,))

    # -- basic structure -------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def _same_ring(self, other):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if self.field != other.field:
            raise ValueError("polynomials lie over different fields")

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, sign):
        """self + sign * other, in one pass over the coefficients."""
        self._same_ring(other)
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        out = self.field._lincomb(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)), sign)
        while out and out[-1] == 0:
            out.pop()
        return Poly._mk(self.field, tuple(out))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return Poly.zero(self.field) - self

    def scale(self, c):
        """Multiply by the field element c."""
        return self * Poly.constant(self.field, c)

    def shift(self, k):
        """Multiply by T^k."""
        if not self.coeffs:
            return self
        return Poly._mk(self.field, (0,) * k + self.coeffs)

    def __mul__(self, other):
        self._same_ring(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        if a == (1,):
            return other
        if b == (1,):
            return self
        return Poly._mk(f, tuple(_kmul(a, b, f)))

    def _frobenius(self):
        """self^q = self(T^q), as F_q's elements are fixed by c -> c^q."""
        cs, q = self.coeffs, self.field.q
        out = [0] * ((len(cs) - 1) * q + 1)  # [] for the zero polynomial
        out[::q] = cs
        return Poly._mk(self.field, tuple(out))

    def __pow__(self, e):
        """self^e from e's base-q digits r_j: the product of the powers
        (self^(q^j))^(r_j), each self^(q^j) one Frobenius spread of the last."""
        if e < 0:
            raise ValueError("negative polynomial powers are not defined in A")
        one = Poly.one(self.field)
        result, base = one, self
        while True:
            e, r = divmod(e, self.field.q)
            if r:
                result = result * power(base, r, one, mul)
            if not e:
                return result
            base = base._frobenius()

    def __divmod__(self, other):
        self._same_ring(other)
        f = self.field
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            return Poly.zero(f), self
        db = len(b) - 1
        nq = len(a) - db
        # Reversed, a = q * b + r reads rev(a) = rev(q) * rev(b) mod T^nq.
        inv = getattr(other, "_inv", ())
        if len(inv) < nq:
            inv = other._inv = _inverse_series(b[::-1], nq, f)
        quo = _kmul(a[::-1], inv, f, nq)[::-1]
        # r = a - q * b has degree < db, so only the low db terms are needed,
        # and the division is exact when they agree with a's.
        rem = []
        if db:
            low = _kmul(quo, b, f, db)
            if tuple(low) != a[:db]:
                rem = f._lincomb(a[:db], low, -1)
        while rem and rem[-1] == 0:
            rem.pop()
        return Poly._mk(f, tuple(quo)), Poly._mk(f, tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if not self.coeffs:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    # -- text ----------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self.field!r}, {format_poly(self)!r})"

    @classmethod
    def parse(cls, text, field):
        return parse_poly(text, field)


# -- gcd family ------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) is an error."""
    return poly_xgcd(a, b)[0]


def poly_xgcd(a: Poly, b: Poly):
    """(g, x, y) with g = gcd monic and x*a + y*b = g."""
    a._same_ring(b)
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    f = a.field
    r0, r1 = a, b
    x0, x1 = Poly.one(f), Poly.zero(f)
    y0, y1 = Poly.zero(f), Poly.one(f)
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    c = f.inv(r0.lead)
    return r0.scale(c), x0.scale(c), y0.scale(c)


def poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e mod `mod` by square-and-multiply; e must be >= 0."""
    if e < 0:
        raise ValueError("powmod exponent must be nonnegative")
    return power(base % mod, e, Poly.one(base.field) % mod, lambda x, y: x * y % mod)


def reduction_rows(m: Poly) -> list:
    """x^k mod m for k = deg m .. 2 deg m - 2, the rows of gf's fold, as tuples;
    the longest quotient is taken first, so m computes its inverse once."""
    n = m.degree
    return [(Poly.monomial(m.field, k) % m).coeffs for k in range(2 * n - 2, n - 1, -1)][::-1]


# -- irreducibility ----------------------------------------------------------


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: f is irreducible over F_q iff T^(q^d) = T mod f and
    gcd(T^(q^(d/l)) - T, f) = 1 for every prime l dividing d = deg f."""
    if f.degree < 1:  # NEG_INF, the zero polynomial's degree, too
        raise ValueError("irreducibility is only defined for degree >= 1")
    f = f.monic()
    d = f.degree
    q = f.field.q
    t = Poly.gen(f.field)
    if poly_powmod(t, q**d, f) != t % f:
        return False
    for ell in prime_factors(d):
        g = poly_gcd(poly_powmod(t, q ** (d // ell), f) - t, f)
        if g.degree != 0:
            return False
    return True


def find_irreducible(h: int, field: Field) -> Poly:
    """The first monic irreducible of degree h, taking the coefficient tuple
    (c_0, ..., c_{h-1}) ascending in the canonical integer encoding."""
    if h < 1:
        raise ValueError(f"degree must be >= 1, got {h}")
    refuse_above(h, DEFAULT_EXACT_DEGREE_LIMIT, "degree", "exact-degree limit")  # before q^h
    q = field.q
    for e in range(q**h):
        cs = digits_of(e, q)
        cand = Poly._mk(field, tuple(cs + [0] * (h - len(cs))) + (1,))
        if is_irreducible(cand):
            return cand
    raise ArithmeticError(f"no monic irreducible of degree {h} over F_{q}")  # unreachable


# -- parsing / formatting ---------------------------------------------------


class ParseError(ValueError):
    pass


# One term per variable, [coeff '*'] var ['^' k] | coeff, then the '+' before
# the next term or the end of the text.  A T-level coeff is a uint, one u-term
# or u-text in parentheses; a u-level coeff is a uint.
_TERM = {var: re.compile(rf"(?:(?:(?P<c>{c})\*)?(?P<v>{var})(?:\^(?P<k>\d+))?|(?P<a>{c}))"
                         rf"(?P<plus>\+|\Z)")
         for var, c in (("T", r"\d+|\([^()]*\)|u(?:\^\d+)?"), ("u", r"\d+"))}


def _terms(text, var, field):
    """Whitespace-free text read one term in var at a time, summed into
    {power: coefficient encoding}."""
    acc, pos, plus = {}, 0, "+"
    while plus:
        m = _TERM[var].match(text, pos)
        if m is None:
            raise ParseError(f"cannot read a term in {var} from {text[pos:pos + 20]!r}")
        pos, plus, coeff = m.end(), m["plus"], m["a"] if m["v"] is None else m["c"]
        c = 1 if coeff is None else _coefficient(coeff, field)
        if c:
            k = int(m["k"] or 1) if m["v"] else 0
            acc[k] = field.add(acc.get(k, 0), c)
    return acc


def _coefficient(text, field):
    """An integer, one u-term, or u-text in parentheses, as an F_q element."""
    if text.isdecimal():
        return int(text) % field.p  # plain integers embed as F_p values in any F_q
    inner = text.strip("()")
    if field.s == 1 and "u" in inner:
        raise ParseError(f"coefficient outside field: 'u' is not an element of F_{field.p}")
    val = 0
    for k, c in _terms(inner, "u", field).items():  # k > 0 only if s > 1
        val = field.add(val, field.mul(c, field.pow(field.from_coords((0, 1)), k)) if k else c)
    return val


def _read(text, var, field):
    """The whole text as a polynomial in var ('T', or 'u' for modulus text)."""
    if re.search(r"\d\s+\d", text):
        raise ParseError("whitespace inside a number")
    acc = _terms("".join(text.split()), var, field)
    top = max(acc, default=-1)
    refuse_above(top, DEFAULT_EXACT_DEGREE_LIMIT, "degree", "exact-degree limit")
    return Poly(field, [acc.get(k, 0) for k in range(top + 1)])


def parse_poly(text: str, field: Field) -> Poly:
    """Parse ring-polynomial text over the given field."""
    return _read(text, "T", field)


def parse_upoly(text: str, p: int) -> tuple:
    """Parse extension-modulus text like 'u^2+u+1' into F_p coefficients
    (little-endian, including the leading one)."""
    return _read(text, "u", Field(p)).coeffs


def format_poly(poly: Poly) -> str:
    f = poly.field
    return terms_str(poly.coeffs, "T",
                     lambda c: str(c) if c < f.p else f"({f.element_str(c)})") or "0"
