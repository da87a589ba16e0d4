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
integer coefficients and no parentheses, and umono is its mono: one parser
reads both, and evaluates u-level coefficients in F_q.  Whitespace is ignored
and integer coefficients are taken mod p.  Canonical output (gf's terms_str)
lists terms by descending power, '+'-separated, elides unit coefficients,
and parenthesizes extension coefficients ("T^3+2*T", "(u+1)*T+(u)").

Over a prime field every product is one Kronecker substitution: both
coefficient lists are packed into a single Python int, multiplied once
(CPython's Karatsuba does the convolution) and unpacked (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J. Symb.
Comput. 2009).  Large divisions take the quotient from a Newton inverse of
the reversed divisor, so they are a few such products too.  Coefficients
stay Python ints throughout, so any prime p works.
"""

from __future__ import annotations

import sys
from array import array
from operator import mul

from .gf import Field, power, terms_str
from .intfactor import prime_factors
from .limits import DEFAULT_EXACT_DEGREE_LIMIT, GuardrailError
from .words import digits_of

NEG_INF = float("-inf")  # degree of the zero polynomial

# array typecodes by item size: slots of 1, 2, 4 or 8 bytes pack in C.
_ARRAY_CODES = {array(t).itemsize: t for t in "BHIQ"}

# Division switches from schoolbook to the Newton quotient once both the
# quotient and the divisor have at least this many coefficients.  Schoolbook
# is one Python-level step per quotient coefficient, each as long as the
# divisor; Newton is about 2 log2(len q) kernel products, whose fixed cost
# only pays off once both are long.  Timed over F_2, F_3 and F_7, the two
# break even near 32-48 coefficients; the wide slots of p > 2^32 pack in
# Python and break even later.
_NEWTON_MIN_LEN = 48


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
        out = array(code)
        out.frombytes(raw)
        return out
    return [int.from_bytes(raw[i : i + w], sys.byteorder) for i in range(0, len(raw), w)]


def _kmul(a, b, p):
    """Coefficients of a * b over F_p, all len(a) + len(b) - 1 of them, for
    nonempty coefficient sequences a and b (zeros anywhere are allowed)."""
    # Every coefficient of the integer product is at most this, so no slot
    # carries into the next one.
    w = _slot_width(min(len(a), len(b)) * (p - 1) ** 2)
    x = _pack(a, w)
    y = x if b is a else _pack(b, w)  # CPython squares faster than it multiplies
    return [c % p for c in _unpack(x * y, len(a) + len(b) - 1, w)]


def _inverse_series(f, n, p):
    """g with f * g = 1 mod T^n over F_p, by Newton iteration; f[0] != 0."""
    f = list(f[:n]) + [0] * (n - len(f))
    g = [pow(f[0], p - 2, p)]
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        # f * g = 1 + T^k * e mod T^k2, so g - T^k * g * e is right mod T^k2.
        e = _kmul(f[:k2], g, p)[k:k2]
        g += [-c % p for c in _kmul(g[: k2 - k], e, p)[: k2 - k]]
        k = k2
    return g


class Poly:
    """An element of F_q[T]."""

    __slots__ = ("field", "coeffs")

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

    def __add__(self, other):
        self._same_ring(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        if f.s == 1:
            p = f.p
            for i, c in enumerate(b):
                out[i] = (out[i] + c) % p
        else:
            for i, c in enumerate(b):
                out[i] = f.add(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return Poly._mk(f, tuple(out))

    def __neg__(self):
        f = self.field
        return Poly._mk(f, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by the field element c."""
        f = self.field
        f._check(c)
        if c == 0:
            return Poly.zero(f)
        if c == 1:
            return self
        if f.s == 1:
            p = f.p
            return Poly._mk(f, tuple(x * c % p for x in self.coeffs))
        return Poly._mk(f, tuple(f.mul(x, c) for x in self.coeffs))

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
        if f.s == 1:
            return Poly._mk(f, tuple(_kmul(a, b, f.p)))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = f.add(out[i + j], f.mul(x, y))
        while out and out[-1] == 0:
            out.pop()
        return Poly._mk(f, tuple(out))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial powers are not defined in A")
        return power(self, e, Poly.one(self.field), mul)

    def __divmod__(self, other):
        self._same_ring(other)
        f = self.field
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            return Poly.zero(f), self
        if f.s == 1:
            return self._divmod_prime(other)
        db = len(b) - 1
        binv = f.inv(b[-1])
        r = list(a)
        qcoeffs = [0] * (len(a) - db)
        for k in range(len(a) - 1 - db, -1, -1):
            c = r[k + db]
            if c:
                qc = f.mul(c, binv)
                qcoeffs[k] = qc
                for j in range(db + 1):
                    if b[j]:
                        r[k + j] = f.sub(r[k + j], f.mul(qc, b[j]))
        rem = r[:db]
        while rem and rem[-1] == 0:
            rem.pop()
        while qcoeffs and qcoeffs[-1] == 0:
            qcoeffs.pop()
        return Poly._mk(f, tuple(qcoeffs)), Poly._mk(f, tuple(rem))

    def _divmod_prime(self, other):
        f = self.field
        p = f.p
        a, b = self.coeffs, other.coeffs
        db = len(b) - 1
        nq = len(a) - db
        if min(nq, db) < _NEWTON_MIN_LEN:
            # Long division on Python ints, reducing mod p only where read.
            binv = pow(b[-1], p - 2, p)
            r = list(a)
            quo = [0] * nq
            for k in range(nq - 1, -1, -1):
                c = r[k + db] % p
                if c:
                    qc = quo[k] = c * binv % p
                    r[k : k + db] = [x - qc * y for x, y in zip(r[k : k + db], b)]
            rem = [c % p for c in r[:db]]
        else:
            # Reversed, a = q * b + r reads rev(a) = rev(q) * rev(b) mod T^nq.
            inv = _inverse_series(b[::-1], nq, p)
            quo = _kmul(a[::-1][:nq], inv, p)[nq - 1 :: -1]
            # r = a - q * b has degree < db, so only the low db terms are needed.
            low = _kmul(quo[:db], b[:db], p)
            rem = [(x - y) % p for x, y in zip(a[:db], low)]
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
    base._same_ring(mod)
    if not mod:
        raise ZeroDivisionError("powmod modulus is zero")
    return power(base % mod, e, Poly.one(base.field) % mod, lambda x, y: x * y % mod)


# -- irreducibility ----------------------------------------------------------


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: f is irreducible over F_q iff T^(q^d) = T mod f and
    gcd(T^(q^(d/l)) - T, f) = 1 for every prime l dividing d = deg f."""
    if f.degree == NEG_INF or f.degree < 1:
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


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
            continue
        if ch in "Tu^*+()":
            toks.append((ch, ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} in polynomial text")
    return toks


class _Parser:
    def __init__(self, toks, field):
        self.toks = toks
        self.i = 0
        self.field = field

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self, kind=None):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of polynomial text")
        tok = self.toks[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}")
        self.i += 1
        return tok

    def parse(self, var):
        """The whole text as a polynomial in var ('T', or 'u' for modulus text)."""
        acc = self.terms(var)
        if self.i != len(self.toks):
            raise ParseError(f"trailing input at {self.toks[self.i][1]!r}")
        top = max(acc, default=-1)
        if top > DEFAULT_EXACT_DEGREE_LIMIT:
            raise GuardrailError(f"degree {top} exceeds the exact-degree limit "
                                 f"{DEFAULT_EXACT_DEGREE_LIMIT}")
        return Poly(self.field, [acc.get(k, 0) for k in range(top + 1)])

    def terms(self, var):
        """'+'-separated terms in var, summed into {power: coefficient encoding}."""
        f = self.field
        acc = {}
        while True:
            k, c = self.term(var)
            if c:
                acc[k] = f.add(acc.get(k, 0), c)
            if self.peek() != "+":
                return acc
            self.take("+")

    def term(self, var):
        """One term; returns (power of var, coefficient encoding)."""
        kind = self.peek()
        if kind is None:
            raise ParseError("empty term")
        if kind == var:
            return self.mono(var), 1
        coeff = self.coefficient(var)
        if self.peek() == "*":
            self.take("*")
            return self.mono(var), coeff
        return 0, coeff

    def mono(self, var):
        self.take(var)
        if self.peek() == "^":
            self.take("^")
            return self.take("int")[1]
        return 1

    def coefficient(self, var):
        kind = self.peek()
        f = self.field
        if kind == "int":
            # Plain integers embed as F_p values in any F_q.
            return self.take()[1] % f.p
        if var != "T" or kind not in ("u", "("):
            raise ParseError(f"expected a coefficient, found {kind!r}")
        # An F_q coefficient: one u-term, or a u-polynomial in parentheses.
        start = self.i
        if kind == "u":
            upoly = {self.mono("u"): 1}
        else:
            self.take("(")
            upoly = self.terms("u")
            self.take(")")
        if f.s == 1 and ("u", "u") in self.toks[start : self.i]:
            raise ParseError(f"coefficient outside field: 'u' is not an element of F_{f.p}")
        val = 0
        for k, c in upoly.items():
            if k:  # so s > 1: a prime field has no u
                c = f.mul(c, f.pow(f.from_coords((0, 1)), k))
            val = f.add(val, c)
        return val


def parse_poly(text: str, field: Field) -> Poly:
    """Parse ring-polynomial text over the given field."""
    return _Parser(_tokenize(text), field).parse("T")


def parse_upoly(text: str, p: int) -> tuple:
    """Parse extension-modulus text like 'u^2+u+1' into F_p coefficients
    (little-endian, including the leading one)."""
    return _Parser(_tokenize(text), Field(p)).parse("u").coeffs


def format_poly(poly: Poly) -> str:
    f = poly.field
    return terms_str(poly.coeffs, "T",
                     lambda c: str(c) if c < f.p else f"({f.element_str(c)})") or "0"
