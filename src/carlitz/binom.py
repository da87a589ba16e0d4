"""Carlitz factorials and binomial coefficients over A = F_q[T].

With D_0 = 1 and D_i = prod_{r<i} (T^(q^i) - T^(q^r)) of degree i*q^i, the
Carlitz factorial of n = sum n_i q^i (base q) is n!_C = prod D_i^(n_i), and

    binom(n, m)_C = n!_C / (m!_C * (n-m)!_C)   for m <= n, else 0,

is again an element of A.  binom_exact computes it by honest polynomial
division (a nonzero remainder is an internal error); factorial degrees grow
fast, so the exact routines take a degree guardrail.

With [k] = T^(q^k) - T, so that D_i = [i] * D_{i-1}^q, the binomial is also
the product of [k] over the positions k that receive a carry when m and
n - m are added in base q (Kummer's theorem for F_q[T]; Thakur, Function
Field Arithmetic, 2004).  Modulo a prime p of degree h, [k] = [k mod h] and
[0] = 0: the binomial vanishes once a carry lands on a multiple of h, and
is otherwise a product of the units [1] .. [h-1] mod p.  DigitBinomCache
holds those, and the D_i mod p for i < h.
"""

from __future__ import annotations

from functools import lru_cache

from .gf import Field
from .limits import DEFAULT_EXACT_DEGREE_LIMIT, GuardrailError
from .polyring import Poly
from .residue import Residue, ResidueCtx


@lru_cache(maxsize=64)
def d_poly(i: int, field: Field, degree_limit: int = DEFAULT_EXACT_DEGREE_LIMIT) -> Poly:
    """The exact polynomial D_i."""
    if i < 0:
        raise ValueError("D_i needs i >= 0")
    if i == 0:
        return Poly.one(field)
    q = field.q
    deg = i * q**i
    if deg > degree_limit:
        raise GuardrailError(
            f"deg D_{i} = {deg} exceeds the exact-degree limit {degree_limit}"
        )
    acc = Poly.one(field)
    qi = q**i
    for r in range(i):
        # acc *= T^(q^i) - T^(q^r); both factors are monomials, so shift.
        acc = acc.shift(qi) - acc.shift(q**r)
    return acc


def _base_digits(n, base):
    digits = [n % base]
    n //= base
    while n:
        digits.append(n % base)
        n //= base
    return digits


@lru_cache(maxsize=4096)
def factorial_exact(n: int, field: Field,
                    degree_limit: int = DEFAULT_EXACT_DEGREE_LIMIT) -> Poly:
    """The Carlitz factorial n!_C as an exact polynomial."""
    if n < 0:
        raise ValueError("factorial needs n >= 0")
    q = field.q
    digits = _base_digits(n, q)
    deg = sum(ni * i * q**i for i, ni in enumerate(digits))
    if deg > degree_limit:
        raise GuardrailError(
            f"deg {n}!_C = {deg} exceeds the exact-degree limit {degree_limit}"
        )
    result = Poly.one(field)
    for i, ni in enumerate(digits):
        if ni and i:
            di = d_poly(i, field, degree_limit)
            for _ in range(ni):
                result = result * di
    return result


def binom_exact(n: int, m: int, field: Field,
                degree_limit: int = DEFAULT_EXACT_DEGREE_LIMIT) -> Poly:
    """The Carlitz binomial coefficient as an exact polynomial, by division."""
    if n < 0 or m < 0:
        raise ValueError("binomial indices must be nonnegative")
    if m > n:
        return Poly.zero(field)
    num = factorial_exact(n, field, degree_limit)
    den = factorial_exact(m, field, degree_limit) * factorial_exact(n - m, field, degree_limit)
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"binom({n}, {m})_C is not integral: division left remainder {rem}"
        )
    return quot


def _carries(a: int, b: int, q: int):
    """Positions k >= 1 that receive a carry when a and b are added in base q."""
    k = carry = 0
    while a or b:
        k += 1
        carry = a % q + b % q + carry >= q
        if carry:
            yield k
        a //= q
        b //= q


class DigitBinomCache:
    """Per-context residues: the brackets [k] and the D_i, mod the prime."""

    def __init__(self, ctx: ResidueCtx):
        self.ctx = ctx
        q = ctx.q
        # brackets[k] = [k] = T^(q^k) - T mod prime for k < h; [0] = 0.
        t = tk = ctx.reduce(Poly.gen(ctx.field))
        brackets = [ctx.zero]
        d_mod = [ctx.one]
        for _ in range(1, ctx.h):
            tk = tk ** q
            brackets.append(tk - t)
            d_mod.append(brackets[-1] * d_mod[-1] ** q)
        self.brackets = tuple(brackets)
        self.d_mod = tuple(d_mod)

    def digit_binom(self, a: int, b: int) -> Residue:
        """binom(a, b)_C mod the prime for single base-q^h digits a, b."""
        ctx = self.ctx
        if not 0 <= a < ctx.base or not 0 <= b < ctx.base:
            raise ValueError(f"digits must lie in [0, {ctx.base})")
        return self.binom(a, b)

    def binom(self, n: int, m: int) -> Residue:
        """binom(n, m)_C mod the prime: the product of [k mod h] over the
        carries of m + (n - m), zero once a carry lands on a multiple of h."""
        if n < 0 or m < 0:
            raise ValueError("binomial indices must be nonnegative")
        ctx = self.ctx
        if m > n:
            return ctx.zero
        h = ctx.h
        result = ctx.one
        for k in _carries(m, n - m, ctx.q):
            k %= h
            if not k:
                return ctx.zero
            result = result * self.brackets[k]
        return result

    def factorial(self, n: int) -> Residue:
        """n!_C mod the prime: prod (D_i mod p)^(n_i) over base-q digits.
        Beware: unlike the exact factorial this is only a unit product while
        every digit index stays below h; for larger n the true n!_C is
        divisible by the prime, so this reports the zero residue."""
        if n < 0:
            raise ValueError("factorial needs n >= 0")
        ctx = self.ctx
        result = ctx.one
        for i, ni in enumerate(_base_digits(n, ctx.q)):
            if ni:
                if i >= ctx.h:
                    return ctx.zero
                result = result * self.d_mod[i] ** ni
        return result
