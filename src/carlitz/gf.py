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
no polynomial arithmetic of its own here.
"""

from __future__ import annotations

from .intfactor import is_prime


def _upoly_str(cs) -> str:
    """Canonical text of the u-polynomial with F_p coefficients cs, lowest first."""
    terms = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            mono = "u" if i == 1 else f"u^{i}"
            terms.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(terms)


class Field:
    """The finite field F_q, q = p^s, acting on int-encoded elements."""

    __slots__ = ("p", "s", "q", "modulus", "_red_rows")

    def __init__(self, p: int, s: int = 1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if s < 1:
            raise ValueError(f"extension degree must be >= 1, got {s}")
        self.p = p
        self.s = s
        self.q = p**s
        if s == 1:
            if modulus is not None:
                raise ValueError("a prime field takes no modulus")
            self.modulus = None
            self._red_rows = None
            return
        # polyring imports Field, so it can only be imported once gf is loaded.
        from .polyring import Poly, find_irreducible, is_irreducible

        if modulus is None:
            modulus = find_irreducible(s, Field(p)).coeffs
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {s}")
            if not is_irreducible(Poly(Field(p), modulus)):
                raise ValueError("modulus is reducible")
        self.modulus = modulus
        # Reduction rows: coordinates of u^k mod modulus for k = s .. 2s-2.
        rows = {s: tuple((-c) % p for c in modulus[:-1])}
        for k in range(s + 1, 2 * s - 1):
            shifted = [0] + list(rows[k - 1])
            lead = shifted.pop()
            if lead:
                base = rows[s]
                shifted = [(shifted[i] + lead * base[i]) % p for i in range(s)]
            rows[k] = tuple(shifted)
        self._red_rows = rows

    # -- encoding ----------------------------------------------------------

    def coords(self, a: int) -> tuple:
        """F_p-coordinates (c_0, ..., c_{s-1}) of the encoded element a."""
        self._check(a)
        out = []
        for _ in range(self.s):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coords(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.s:
            raise ValueError(f"too many coordinates for F_{self.q}")
        e = 0
        for i, c in enumerate(cs):
            e += (int(c) % self.p) * self.p**i
        return e

    def _check(self, a):
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element encoding of F_{self.q}")

    def elements(self):
        return range(self.q)

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mul = 1
        while a or b:
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        if self.s == 1:
            return -a % self.p
        p = self.p
        out = 0
        mul = 1
        while a:
            out += (-a % p) * mul
            a //= p
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.s == 1:
            return a * b % p
        if a == 0 or b == 0:
            return 0
        ac = self.coords(a)
        bc = self.coords(b)
        s = self.s
        conv = [0] * (2 * s - 1)
        for i, x in enumerate(ac):
            if x:
                for j, y in enumerate(bc):
                    conv[i + j] += x * y
        out = [c % p for c in conv[:s]]
        for k in range(s, 2 * s - 1):
            c = conv[k] % p
            if c:
                row = self._red_rows[k]
                for i in range(s):
                    out[i] = (out[i] + c * row[i]) % p
        return self.from_coords(out)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.q}")
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return result

    # -- text --------------------------------------------------------------

    def element_str(self, a: int) -> str:
        """Canonical text of an element: decimal for F_p values, else a u-polynomial."""
        self._check(a)
        if self.s == 1 or a < self.p:
            return str(a)
        return _upoly_str(self.coords(a))

    def modulus_str(self):
        """Canonical u-polynomial text of the defining modulus, None for s = 1."""
        if self.modulus is None:
            return None
        return _upoly_str(self.modulus)

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
