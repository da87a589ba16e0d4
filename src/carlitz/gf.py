"""Arithmetic in the coefficient field F_q, q = p^s.

Elements are encoded as plain integers in [0, q): the element with
F_p-coordinates (c_0, ..., c_{s-1}) in the basis 1, u, ..., u^{s-1} is
stored as sum(c_i * p**i).  For a prime field (s = 1) that is just the
usual residue 0 <= a < p.  All arithmetic goes through the Field object,
which owns the defining modulus for s > 1.

Extension fields are F_p[u] modulo a monic irreducible of degree s.  When
no modulus is supplied the canonical one is used: the monic irreducible
whose coefficient tuple (c_0, ..., c_{s-1}) is smallest in the integer
encoding above, so every run of every build picks the same field.  That
search and the check of a supplied modulus are polyring's
find_irreducible and Rabin test over the prime field F_p, so F_p[u] has
no polynomial arithmetic of its own here.  As the bottom of the tower F_q,
F_q[T], A/p, gf also holds what every level shares: the square-and-multiply
`power`, the fold by reduction rows `fold` (with `mul_fold`, a schoolbook
product folded by it) and the term printer `terms_str`.
"""

from __future__ import annotations

from .intfactor import is_prime
from .words import digits_of


def power(x, e, one, mul):
    """x^e for an integer e >= 0 by square-and-multiply under mul, with
    identity one; nothing is squared after e's last bit."""
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def mul_fold(a, b, n, rows, p):
    """Coefficients of a * b mod m over F_p (n of them, or fewer), for a, b
    of length <= n, m monic of degree n and rows[k] = x^(n+k) mod m."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    # Reduced first, the terms to fold stay small and are often zero.
    out[n:] = [c % p for c in out[n:]]
    return [c % p for c in fold(out, n, rows)]


def fold(out, n, rows):
    """out[:n] plus out[n+k] * rows[k] for every k: sum out[k] * x^k mod m
    over the integers, for m monic of degree n, rows[k] = x^(n+k) mod m and
    len(out) <= 2n - 1.  Being linear, it folds integers that pack many
    coefficients as well as single ones."""
    res = out[:n]
    # Each row has degree < n, so folding one never feeds a higher one.
    for k in range(n, len(out)):
        c = out[k]
        if c:
            for i, rc in enumerate(rows[k - n]):
                res[i] += c * rc
    return res


def terms_str(cs, var, coeff_str=str) -> str:
    """Canonical text of sum cs[k] * var^k: descending powers, '+'-separated,
    zero terms dropped, unit coefficients elided; "" when every cs[k] is 0."""
    terms = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if not c:
            continue
        if k == 0:
            terms.append(coeff_str(c))
        else:
            mono = var if k == 1 else f"{var}^{k}"
            terms.append(mono if c == 1 else f"{coeff_str(c)}*{mono}")
    return "+".join(terms)


class Field:
    """The finite field F_q, q = p^s, acting on int-encoded elements."""

    __slots__ = ("p", "s", "q", "modulus", "_fold_rows")

    def __init__(self, p: int, s: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if s < 1:
            raise ValueError(f"extension degree must be >= 1, got {s}")
        self.p = p
        self.s = s
        if s == 1:
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
            self.q = p
            self.modulus = None
            self._fold_rows = None
            return
        # polyring imports Field, so it can only be imported once gf is loaded.
        from .polyring import Poly, find_irreducible, is_irreducible, reduction_rows

        fp = Field(p)
        if modulus is None:
            m = find_irreducible(s, fp)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {s}")
            m = Poly(fp, modulus)
            if not is_irreducible(m):
                raise ValueError("modulus is reducible")
        self.modulus = m.coeffs
        self.q = p**s  # only now: the search above refuses a huge s first
        self._fold_rows = reduction_rows(m)  # fold any product of coordinates (see mul)

    # -- encoding ----------------------------------------------------------

    def coords(self, a: int) -> tuple:
        """F_p-coordinates (c_0, ..., c_{s-1}) of the encoded element a."""
        self._check(a)
        cs = digits_of(a, self.p)
        return tuple(cs + [0] * (self.s - len(cs)))

    def from_coords(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.s:
            raise ValueError(f"too many coordinates for F_{self.q}")
        return sum(int(c) % self.p * self.p**i for i, c in enumerate(cs))

    def _check(self, a):
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element encoding of F_{self.q}")

    def elements(self):
        return range(self.q)

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._lincomb((a,), (b,), 1)[0]

    def neg(self, a: int) -> int:
        return self._lincomb((0,), (a,), -1)[0]

    def sub(self, a: int, b: int) -> int:
        return self._lincomb((a,), (b,), -1)[0]

    def _lincomb(self, xs, ys, sign):
        """[x + sign * y] for the pairs of xs and ys (to the shorter length),
        one base-p coordinate at a time; sign is 1 or -1."""
        p = self.p
        if self.s == 1:
            return [(x + sign * y) % p for x, y in zip(xs, ys)]
        out = [0] * min(len(xs), len(ys))
        for pj in reversed([p**j for j in range(self.s)]):  # top coordinate first
            out = [e * p + (x // pj + sign * (y // pj)) % p for e, x, y in zip(out, xs, ys)]
        return out

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.s == 1:
            return a * b % p
        if a == 0 or b == 0:
            return 0
        return self.from_coords(
            mul_fold(self.coords(a), self.coords(b), self.s, self._fold_rows, p)
        )

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.q}")
        if a < self.p:  # an element of the prime field, as in every F_p
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        return power(a, e, 1, self.mul)

    # -- text --------------------------------------------------------------

    def element_str(self, a: int) -> str:
        """Canonical text of an element: decimal for F_p values, else a u-polynomial."""
        self._check(a)
        if self.s == 1 or a < self.p:
            return str(a)
        return terms_str(self.coords(a), "u")

    def modulus_str(self):
        """Canonical u-polynomial text of the defining modulus, None for s = 1."""
        if self.modulus is None:
            return None
        return terms_str(self.modulus, "u")

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"Field({self.p})"
        return f"Field({self.p}, {self.s}, modulus={self.modulus_str()!r})"
