"""Carlitz factorials and binomial coefficients over A = F_q[T].

With D_0 = 1 and D_i = prod_{r<i} (T^(q^i) - T^(q^r)) of degree i*q^i, the
Carlitz factorial of n = sum n_i q^i (base q) is n!_C = prod D_i^(n_i), and

    binom(n, m)_C = n!_C / (m!_C * (n-m)!_C)   for m <= n, else 0,

is again an element of A.  As D_i^(min(n_i, m_i + (n-m)_i)) cancels, with
e_i = n_i - m_i - (n-m)_i binom_exact divides only prod_{e_i>0} D_i^(e_i) by
prod_{e_i<0} D_i^(-e_i) (a nonzero remainder is an internal error).  Both
exact routines first check deg n!_C against a degree guardrail.  They and
DigitBinomCache.factorial (with the D_i mod p) share one prod D_i^(e_i).

With [k] = T^(q^k) - T, so that D_i = [i] * D_{i-1}^q = [i] * D_{i-1}(T^q)
(F_q coefficients are fixed by Frobenius), the binomial is also
the product of [k] over the positions k that receive a carry when m and
n - m are added in base q (Kummer's theorem for F_q[T]; Thakur, Function
Field Arithmetic, 2004).  Modulo a prime p of degree h, [k] = [k mod h] and
[0] = 0: the binomial vanishes once a carry lands on a multiple of h, and
is otherwise a product of the units [1] .. [h-1] mod p.  DigitBinomCache
holds those and the D_i mod p for i < h and, once asked, the discrete logs
of the brackets, from which binom_logs classifies every binom(n, m)_C,
m <= n, by its carries alone.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import zip_longest

from .gf import Field
from .limits import DEFAULT_EXACT_DEGREE_LIMIT, refuse_above
from .polyring import Poly
from .residue import Residue, ResidueCtx
from .words import digits_of


@lru_cache(maxsize=64)
def d_poly(i: int, field: Field, degree_limit: int = DEFAULT_EXACT_DEGREE_LIMIT) -> Poly:
    """The exact polynomial D_i = [i] * D_{i-1}(T^q), written without a product."""
    if i < 0:
        raise ValueError("D_i needs i >= 0")
    if i == 0:
        return Poly.one(field)
    q = field.q
    deg = i * q**i
    refuse_above(deg, degree_limit, f"deg D_{i} =", "exact-degree limit")
    prev = d_poly(i - 1, field, degree_limit).coeffs
    # D_{i-1}(T^q) * T^(q^i) fills the positions = 0 mod q and
    # -D_{i-1}(T^q) * T those = 1 mod q, so the two never overlap.
    cs = [0] * (deg + 1)
    cs[q**i :: q] = prev
    cs[1 : (len(prev) - 1) * q + 2 : q] = field._lincomb([0] * len(prev), prev, -1)
    return Poly._mk(field, tuple(cs))


def _factorial_digits(n: int, q: int, degree_limit: int) -> list:
    """n's base-q digits n_i, once deg n!_C = sum n_i * i * q^i is known to
    stay within degree_limit (GuardrailError otherwise)."""
    digits = digits_of(n, q)
    refuse_above(sum(ni * i * q**i for i, ni in enumerate(digits)), degree_limit,
                 f"deg {n}!_C =", "exact-degree limit")
    return digits


def _d_powers(exps, d, one):
    """one * prod d(i)^(e_i), ascending, over the i >= 1 with e_i > 0 (D_0 = 1)."""
    result = one
    for i, e in enumerate(exps):
        if e > 0 and i:
            result = result * d(i) ** e
    return result


def factorial_exact(n: int, field: Field,
                    degree_limit: int = DEFAULT_EXACT_DEGREE_LIMIT) -> Poly:
    """The Carlitz factorial n!_C as an exact polynomial: one power
    D_i^(n_i) per nonzero base-q digit."""
    if n < 0:
        raise ValueError("factorial needs n >= 0")
    # d_poly positionally, so its cache hits the entries its recursion fills.
    return _d_powers(_factorial_digits(n, field.q, degree_limit),
                     lambda i: d_poly(i, field, degree_limit), Poly.one(field))


def binom_exact(n: int, m: int, field: Field,
                degree_limit: int = DEFAULT_EXACT_DEGREE_LIMIT) -> Poly:
    """The Carlitz binomial coefficient as an exact polynomial: the D_i^(e_i)
    with e_i > 0 divided by those with e_i < 0 (see the module doc)."""
    if n < 0 or m < 0:
        raise ValueError("binomial indices must be nonnegative")
    if m > n:
        return Poly.zero(field)
    q = field.q
    digits = zip_longest(_factorial_digits(n, q, degree_limit),
                         digits_of(m, q), digits_of(n - m, q), fillvalue=0)
    exps = [ni - mi - ri for ni, mi, ri in digits]
    d, one = (lambda i: d_poly(i, field, degree_limit)), Poly.one(field)
    quot, rem = divmod(_d_powers(exps, d, one), _d_powers([-e for e in exps], d, one))
    if rem:
        raise ArithmeticError(
            f"binom({n}, {m})_C is not integral: division left remainder {rem}")
    return quot


def _carry_positions(n: int, q: int):
    """(k, q^k, n mod q^k) for every position k >= 1 that a carry of
    m + (n - m), m <= n, can reach: k receives one iff m mod q^k > n mod q^k."""
    k, qk = 1, q
    while qk <= n:
        yield k, qk, n % qk
        k += 1
        qk *= q


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

    @cached_property
    def bracket_logs(self) -> tuple:
        """dlog [k] for 0 < k < h, after None for [0] = 0.  Taken on first
        use, so binom and factorial need no discrete log."""
        return (None,) + tuple(self.ctx.dlog(b) for b in self.brackets[1:])

    def binom_logs(self, n: int):
        """Yield, for m = 0 .. n, the discrete log of binom(n, m)_C mod the
        prime, or None where it is 0: the binomial is 0 once a carry of
        m + (n - m) (see _carry_positions) lands on a multiple of h, and
        otherwise its log is the sum of dlog [k mod h] over the carries k."""
        if n < 0:
            raise ValueError("binomial indices must be nonnegative")
        ctx = self.ctx
        q, h, order = ctx.q, ctx.h, ctx.group_order
        # (q^k, n mod q^k, dlog [k mod h]) for every k a carry can reach,
        # the k = 0 mod h first: a carry there settles m as None.
        positions = [(qk, r, self.bracket_logs[k % h]) for k, qk, r in _carry_positions(n, q)]
        positions.sort(key=lambda pos: pos[2] is not None)
        for m in range(n + 1):
            s = 0
            for qk, r, lam in positions:
                if m % qk > r:
                    if lam is None:
                        yield None
                        break
                    s += lam
            else:
                yield s % order

    def digit_binom(self, a: int, b: int) -> Residue:
        """binom(a, b)_C mod the prime for single base-q^h digits a, b."""
        ctx = self.ctx
        if not 0 <= a < ctx.base or not 0 <= b < ctx.base:
            raise ValueError(f"digits must lie in [0, {ctx.base})")
        return self.binom(a, b)

    def binom(self, n: int, m: int) -> Residue:
        """binom(n, m)_C mod the prime: the product of [k mod h] over the
        carries of m + (n - m), zero once a carry lands on a multiple of h.
        Carries are read by the rule _carry_positions states."""
        if n < 0 or m < 0:
            raise ValueError("binomial indices must be nonnegative")
        ctx = self.ctx
        if m > n:
            return ctx.zero
        h = ctx.h
        result = ctx.one
        for k, qk, r in _carry_positions(n, ctx.q):
            if m % qk > r:
                if not k % h:
                    return ctx.zero
                result = result * self.brackets[k % h]
        return result

    def factorial(self, n: int) -> Residue:
        """n!_C mod the prime: prod (D_i mod p)^(n_i) over base-q digits.
        Beware: unlike the exact factorial this is only a unit product while
        every digit index stays below h; for larger n the true n!_C is
        divisible by the prime, so this reports the zero residue."""
        if n < 0:
            raise ValueError("factorial needs n >= 0")
        digits = digits_of(n, self.ctx.q)
        if len(digits) > self.ctx.h:
            return self.ctx.zero
        return _d_powers(digits, self.d_mod.__getitem__, self.ctx.one)
