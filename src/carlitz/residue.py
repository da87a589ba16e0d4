"""The residue ring A/pA for a monic irreducible p of degree h, and the
discrete-log structure of its unit group.

A residue is represented by its canonical remainder, a polynomial of degree
below h, kept as a trimmed tuple of field-element encodings.  Residues also
have a canonical integer encoding sum(enc(c_i) * q^i) in [0, q^h), which
indexes the discrete-log table and keys every cache.

The unit group is cyclic of order q^h - 1.  A ResidueCtx fixes one
generator ("primitive root"): either a validated caller choice or the first
primitive element when candidates are ordered by ascending integer encoding
(equivalently by degree, then coefficient tuple).  Discrete logs come from a
full table while the group is small and from baby-step/giant-step beyond.
"""

from __future__ import annotations

import numpy as np

from .intfactor import factorize
from .limits import DLOG_TABLE_LIMIT
from .polyring import NEG_INF, Poly, is_irreducible, poly_xgcd


class Residue:
    """An element of A/pA, attached to its ResidueCtx."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    @property
    def rep(self) -> Poly:
        """The canonical representative, as a polynomial of degree < h."""
        return Poly._mk(self.ctx.field, self.coeffs)

    @property
    def enc(self) -> int:
        q = self.ctx.q
        e = 0
        for c in reversed(self.coeffs):
            e = e * q + c
        return e

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _same_ctx(self, other):
        if not isinstance(other, Residue):
            raise TypeError(f"expected Residue, got {type(other).__name__}")
        if self.ctx is not other.ctx and self.ctx.key != other.ctx.key:
            raise ValueError("residues live in different rings")

    def __eq__(self, other):
        return (
            isinstance(other, Residue)
            and self.ctx.key == other.ctx.key
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.key, self.coeffs))

    def __add__(self, other):
        self._same_ctx(other)
        f = self.ctx.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return Residue(self.ctx, tuple(out))

    def __neg__(self):
        f = self.ctx.field
        return Residue(self.ctx, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._same_ctx(other)
        return Residue(self.ctx, self.ctx._mul(self.coeffs, other.coeffs))

    def __pow__(self, e):
        ctx = self.ctx
        if not self.coeffs:
            if e < 0:
                raise ZeroDivisionError("cannot raise the zero residue to a negative power")
            return ctx.one if e == 0 else ctx.zero
        e %= ctx.group_order
        result = ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("the zero residue has no inverse")
        ctx = self.ctx
        g, x, _ = poly_xgcd(self.rep, ctx.prime)
        # g is monic; prime is irreducible and rep is nonzero of lower degree,
        # so g = 1 and x * rep = 1 mod prime.
        return ctx.reduce(x)

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return f"<{self.rep} mod {self.ctx.prime}>"


class ResidueCtx:
    """Everything attached to one prime p: the quotient ring, a primitive
    root, the factored group order, and discrete-log machinery."""

    def __init__(self, prime: Poly, primitive_root: Poly | None = None,
                 dlog_table_limit: int = DLOG_TABLE_LIMIT):
        if prime.degree == NEG_INF or prime.degree < 1:
            raise ValueError("the prime must have degree >= 1")
        if not prime.is_monic():
            raise ValueError("the prime must be monic")
        if not is_irreducible(prime):
            raise ValueError(f"{prime} is reducible")
        self.field = prime.field
        self.prime = prime
        self.h = prime.degree
        self.q = self.field.q
        self.base = self.q**self.h
        self.group_order = self.base - 1
        self.factors = factorize(self.group_order) if self.group_order > 1 else []
        self.key = (self.field, prime.coeffs)

        # T^k mod prime for k = h .. 2h-2 (enough to fold any product of reps).
        # _shift_mod folds with rows[0], so the list is in place before it runs.
        rows = [tuple(self.field.neg(c) for c in prime.coeffs[:-1])]
        self._fold_rows = rows
        for _ in range(self.h - 2):
            rows.append(self._shift_mod(rows[-1]))
        self._red_rows = None  # lazily extended T^k rows for reduce()
        self._red_matrix = None

        self.zero = Residue(self, ())
        self.one = Residue(self, (1,))

        if primitive_root is not None:
            cand = self.reduce(primitive_root)
            if not self._is_primitive(cand):
                order = self.mult_order(cand) if cand else 0
                raise ValueError(
                    f"{primitive_root} is not a primitive root mod {prime}: "
                    f"its order is {order}, not {self.group_order}"
                )
            self.primitive_root = cand
        else:
            self.primitive_root = self._find_primitive_root()

        self._dlog_table = None
        if self.group_order <= dlog_table_limit:
            self._build_dlog_table()

    # -- construction helpers ------------------------------------------------

    def _shift_mod(self, coeffs):
        """coeffs (degree < h, padded or trimmed) -> T * coeffs mod prime."""
        f = self.field
        shifted = (0,) + coeffs
        if len(shifted) <= self.h:
            return shifted
        lead = shifted[self.h]
        shifted = shifted[: self.h]
        if lead:
            base = self._fold_rows[0]
            shifted = tuple(
                f.add(shifted[i], f.mul(lead, base[i] if i < len(base) else 0))
                for i in range(self.h)
            )
        out = list(shifted)
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    def _is_primitive(self, r: Residue) -> bool:
        if not r:
            return False
        return all(r ** (self.group_order // ell) != self.one for ell, _ in self.factors)

    def _find_primitive_root(self) -> Residue:
        for e in range(1, self.base):
            cand = self.from_enc(e)
            if self._is_primitive(cand):
                return cand
        raise ArithmeticError("no primitive root found")  # unreachable

    def _build_dlog_table(self):
        table = [-1] * self.base
        cur = self.one
        for j in range(self.group_order):
            table[cur.enc] = j
            cur = cur * self.primitive_root
        self._dlog_table = table

    # -- residue construction ----------------------------------------------

    def from_enc(self, e: int) -> Residue:
        if not 0 <= e < self.base:
            raise ValueError(f"residue encoding {e} out of range [0, {self.base})")
        q = self.q
        coeffs = []
        while e:
            coeffs.append(e % q)
            e //= q
        return Residue(self, tuple(coeffs))

    def reduce(self, poly: Poly) -> Residue:
        """The residue of an arbitrary ring element."""
        if poly.field != self.field:
            raise ValueError("polynomial lies over a different field")
        if len(poly.coeffs) <= self.h:
            return Residue(self, poly.coeffs)
        f = self.field
        if f.s == 1 and (len(poly.coeffs) + 1) * (f.p - 1) * (f.p - 1) < 2**62:
            m = self._reduction_matrix(len(poly.coeffs) - 1)
            vec = np.array(poly.coeffs, dtype=np.int64)
            out = (vec @ m[: len(vec)]) % f.p
            coeffs = [int(c) for c in out]
        else:
            rows = self._extend_red_rows(len(poly.coeffs) - 1)
            acc = list(poly.coeffs[: self.h])
            for k in range(self.h, len(poly.coeffs)):
                c = poly.coeffs[k]
                if c:
                    row = rows[k]
                    for i in range(len(row)):
                        acc[i] = f.add(acc[i], f.mul(c, row[i]))
            coeffs = acc
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return Residue(self, tuple(coeffs))

    def _extend_red_rows(self, maxdeg):
        if self._red_rows is None:
            # rows[k] holds T^k mod prime; the k < h slots are never read.
            self._red_rows = [()] * self.h
        rows = self._red_rows
        while len(rows) <= maxdeg:
            k = len(rows)
            rows.append(self._fold_rows[0] if k == self.h else self._shift_mod(rows[-1]))
        return rows

    def _reduction_matrix(self, maxdeg):
        if self._red_matrix is not None and self._red_matrix.shape[0] > maxdeg:
            return self._red_matrix
        # Grow geometrically so repeated slightly-larger requests don't rebuild.
        grown = max(maxdeg, 2 * self.h)
        if self._red_matrix is not None:
            grown = max(grown, 2 * self._red_matrix.shape[0])
        rows = self._extend_red_rows(grown)
        m = np.zeros((len(rows), self.h), dtype=np.int64)
        for k in range(self.h):
            m[k, k] = 1
        for k in range(self.h, len(rows)):
            row = rows[k]
            m[k, : len(row)] = row
        self._red_matrix = m
        return m

    # -- core arithmetic -----------------------------------------------------

    def _mul(self, ac, bc):
        """Product of two residue coefficient tuples, folded mod the prime."""
        if not ac or not bc:
            return ()
        f = self.field
        h = self.h
        if f.s == 1:
            p = f.p
            out = [0] * (len(ac) + len(bc) - 1)
            for i, x in enumerate(ac):
                if x:
                    for j, y in enumerate(bc):
                        out[i + j] += x * y
            for k in range(len(out) - 1, h - 1, -1):
                c = out[k] % p
                out[k] = 0
                if c:
                    row = self._fold_rows[k - h]
                    for i, rc in enumerate(row):
                        out[i] += c * rc
            res = [c % p for c in out[:h]]
        else:
            out = [0] * (len(ac) + len(bc) - 1)
            for i, x in enumerate(ac):
                if x:
                    for j, y in enumerate(bc):
                        if y:
                            out[i + j] = f.add(out[i + j], f.mul(x, y))
            for k in range(len(out) - 1, h - 1, -1):
                c = out[k]
                out[k] = 0
                if c:
                    row = self._fold_rows[k - h]
                    for i, rc in enumerate(row):
                        if rc:
                            out[i] = f.add(out[i], f.mul(c, rc))
            res = out[:h]
        while res and res[-1] == 0:
            res.pop()
        return tuple(res)

    # -- group structure ------------------------------------------------------

    def mult_order(self, r: Residue) -> int:
        """Multiplicative order of a nonzero residue."""
        if not r:
            raise ZeroDivisionError("the zero residue has no multiplicative order")
        order = self.group_order
        for ell, _ in self.factors:
            while order % ell == 0 and r ** (order // ell) == self.one:
                order //= ell
        return order

    def dlog(self, r: Residue) -> int:
        """Exponent j in [0, q^h - 1) with primitive_root^j = r; r must be nonzero."""
        if not r:
            raise ValueError("the zero residue has no discrete log")
        if self._dlog_table is not None:
            return self._dlog_table[r.enc]
        return self._dlog_bsgs(r)

    def _dlog_bsgs(self, r: Residue) -> int:
        order = self.group_order
        m = int(order**0.5) + 1
        baby = {}
        cur = self.one
        for j in range(m):
            baby.setdefault(cur.enc, j)
            cur = cur * self.primitive_root
        giant = (self.primitive_root ** m).inverse()
        gamma = r
        for i in range(m + 1):
            j = baby.get(gamma.enc)
            if j is not None:
                return (i * m + j) % order
            gamma = gamma * giant
        raise ArithmeticError(f"discrete log of {r} not found")  # unreachable

    def label(self, j: int) -> str:
        """Canonical text of primitive_root^j (j taken mod the group order)."""
        return str(self.primitive_root ** j)

    def __repr__(self):
        return f"ResidueCtx(prime={self.prime}, q={self.q}, root={self.primitive_root})"
