"""Integer primality testing and factoring.

Group orders q^h - 1 need to be factored to find primitive roots and
element orders.  Trial division up to 10^6 handles everything small; what
remains is split by Brent's Pollard rho within _RHO_BOUND steps.  All
choices are deterministic so repeated runs factor the same way.
"""

from __future__ import annotations

import math

from .limits import GuardrailError

_TRIAL_BOUND = 10**6
_RHO_BOUND = 2**24  # Brent steps, y -> y^2 + c, in one factorize call

# Deterministic Miller-Rabin witnesses, sufficient for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = _MR_WITNESSES
    if n >= 3_317_044_064_679_887_385_961_981:
        # Beyond the proven range, add fixed extra bases; still deterministic.
        witnesses = _MR_WITNESSES + tuple(range(41, 200, 2))
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, steps: int) -> tuple[int, int]:
    """A nontrivial factor of composite odd n (Brent's cycle finding), and
    steps plus the Brent steps it took, refused before that passes _RHO_BOUND."""
    def spend(k):  # k more steps
        nonlocal steps
        steps += k
        if steps > _RHO_BOUND:
            raise GuardrailError(f"factoring {n} needs more than {_RHO_BOUND} Pollard rho steps")
        return k

    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(spend(r)):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(spend(min(m, r - k))):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                spend(1)
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    raise ArithmeticError(f"pollard rho failed to split {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Factor n >= 1 into sorted (prime, multiplicity) pairs.  factorize(1) = []."""
    if n < 1:
        raise ValueError("can only factor positive integers")
    factors: dict[int, int] = {}
    for p in range(2, _TRIAL_BOUND + 1):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    steps = 0
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d, steps = _pollard_rho(m, steps)
        stack += (d, m // d)
    return sorted(factors.items())


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    return [p for p, _ in factorize(n)]
