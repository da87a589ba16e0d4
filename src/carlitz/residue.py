"""The residue ring A/pA for a monic irreducible p of degree h, and the
discrete-log structure of its unit group.

A residue is represented by its canonical remainder, a polynomial of degree
below h, kept as a trimmed tuple of field-element encodings.  Its arithmetic
is polyring's: sums and negatives are Poly arithmetic on the representative,
and a ring element, or over F_q with s > 1 a product of two, is reduced by
Poly division by the prime, which keeps its own Newton inverse between
divisions.  Over a prime field a product is instead gf's mul_fold, which
folds the schoolbook product back with the rows T^k mod p, k = h .. 2h-2,
as that is faster on these short representatives.
Residues also have a canonical integer encoding sum(enc(c_i) * q^i) in
[0, q^h), which indexes the discrete-log table and keys every cache.

The unit group is cyclic of order q^h - 1.  A ResidueCtx fixes one
generator ("primitive root"): either a validated caller choice or the first
primitive element when candidates are ordered by ascending integer encoding
(equivalently by degree, then coefficient tuple).  The first discrete log
builds the full table, or above a limit the baby steps that later logs share.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, repeat
from math import isqrt
from operator import mul

from .gf import mul_fold, power
from .intfactor import factorize
from .limits import DLOG_TABLE_LIMIT
from .polyring import NEG_INF, Poly, is_irreducible, poly_xgcd
from .words import digits_of


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
        return Residue(self.ctx, (self.rep + other.rep).coeffs)

    def __neg__(self):
        return Residue(self.ctx, (-self.rep).coeffs)

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
        return power(self, e % ctx.group_order, ctx.one, mul)

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

        # Over F_p, T^k mod prime for k = h .. 2h-2: enough to fold any
        # product of reps (see _mul).  The longest quotient comes first, so
        # the prime computes its Newton inverse once.
        if self.field.s == 1:
            self._fold_rows = [(Poly.monomial(self.field, k) % prime).coeffs
                               for k in range(2 * self.h - 2, self.h - 1, -1)][::-1]

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
        self._dlog_table_limit = dlog_table_limit

    # -- construction helpers ------------------------------------------------

    def _is_primitive(self, r: Residue) -> bool:
        if not r:
            return False
        return all(r ** (self.group_order // ell) != self.one for ell, _ in self.factors)

    def _find_primitive_root(self) -> Residue:
        # A constant's order divides q - 1, so for h >= 2 start at T (encoding q).
        for e in range(1 if self.h == 1 else self.q, self.base):
            cand = self.from_enc(e)
            if self._is_primitive(cand):
                return cand
        raise ArithmeticError("no primitive root found")  # unreachable

    # -- residue construction ----------------------------------------------

    def from_enc(self, e: int) -> Residue:
        if not 0 <= e < self.base:
            raise ValueError(f"residue encoding {e} out of range [0, {self.base})")
        return Residue(self, tuple(digits_of(e, self.q)) if e else ())

    def reduce(self, poly: Poly) -> Residue:
        """The residue of an arbitrary ring element."""
        return Residue(self, (poly % self.prime).coeffs)

    # -- core arithmetic -----------------------------------------------------

    def _mul(self, ac, bc):
        """Product of two residue coefficient tuples, reduced mod the prime."""
        if not ac or not bc:
            return ()
        f = self.field
        if f.s > 1:
            return self.reduce(Poly._mk(f, ac) * Poly._mk(f, bc)).coeffs
        # Over F_p, folding the schoolbook product with the rows T^k mod prime
        # builds the full dlog table of T^15+T+1 twice as fast as Poly * Poly % prime.
        res = mul_fold(ac, bc, self.h, self._fold_rows, f.p)
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

    @cached_property
    def _baby_steps(self):
        """(lookup, m, root^-m) with lookup(enc(root^j)) = j for j < m.  Up to the
        table limit m = q^h - 1, in a list by encoding (a dict took 2 MiB more
        peak memory on T^15+T+1); above it m = ceil(sqrt(q^h - 1)), in a dict."""
        order = self.group_order
        full = order <= self._dlog_table_limit
        m = order if full else isqrt(order - 1) + 1
        steps = [None] * self.base if full else {}
        lookup = steps.__getitem__ if full else steps.get
        for j, r in enumerate(self.powers(m)):
            steps[r.enc] = j
        return lookup, m, (self.primitive_root ** m).inverse()

    def dlog(self, r: Residue) -> int:
        """Exponent j in [0, q^h - 1) with primitive_root^j = r; r must be nonzero."""
        if not r:
            raise ValueError("the zero residue has no discrete log")
        lookup, m, giant = self._baby_steps
        for i in range(m):  # m * m >= q^h - 1, so the log i*m + j has i < m
            j = lookup(r.enc)
            if j is not None:
                return i * m + j
            r = r * giant
        raise ArithmeticError("discrete log not found")  # unreachable

    def powers(self, count: int):
        """primitive_root^0 .. primitive_root^(count - 1), one product each."""
        return accumulate(repeat(self.primitive_root, count - 1), mul, initial=self.one)

    def label(self, j: int) -> str:
        """Canonical text of primitive_root^j (j taken mod the group order)."""
        return str(self.primitive_root ** j)

    def __repr__(self):
        return f"ResidueCtx(prime={self.prime}, q={self.q}, root={self.primitive_root})"
