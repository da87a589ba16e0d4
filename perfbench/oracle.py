"""Reference arithmetic for checking carlitz's answers.

This module shares no code with carlitz: it has its own finite fields, its
own F_q[T] arithmetic, its own parser for carlitz's polynomial text, and it
derives everything from the definition

    D_i = prod_{r<i} (T^(q^i) - T^(q^r)),   n!_C = prod D_i^(n_i),
    binom(n, m)_C = n!_C / (m!_C (n-m)!_C).

Modulo a prime P of degree h it never uses the base-q^h digit rule to
classify a single binomial.  Instead it writes [k] = T^(q^k) - T, so that
D_i = prod_{r<i} [i-r]^(q^r).  [k] is squarefree and P divides it exactly
when h divides k, so v_P(D_i) and the unit part of D_i mod P follow from
[k] mod P^2.  A binomial is zero mod P iff v_P(n!) - v_P(m!) - v_P((n-m)!)
is positive; otherwise its discrete log is the same difference of unit
logs.  Enumerating m gives the full census of a small n.

For large n two properties are checked instead: the unit mass
G_n(1) = prod (a_i + 1) over the base-q^h digits a_i of n, and, modulo a
prime r = 1 (mod L), the values of G_n at L-th roots of unity against the
product of this module's own single-digit polynomials G_d evaluated there.

Exact binomials are checked by multiplying them back: quotient times
m!_C (n-m)!_C must equal n!_C, with factorials built here from D_i and a
Kronecker-substitution product on Python integers.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache


class Mismatch(AssertionError):
    """A carlitz answer disagrees with the reference."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


# -- integers -----------------------------------------------------------------


def is_prime(n):
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:  # deterministic below 3.3 * 10^24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def digits(n, base):
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    return out


# -- the coefficient field F_q ------------------------------------------------


class GF:
    """F_q for q = p or q = p^s with s in (2, 3), by lookup tables.

    An element with F_p-coordinates (c_0, .., c_{s-1}) over the basis
    1, u, .., u^(s-1) is encoded as sum c_i p^i.  The modulus is the monic
    irreducible of degree s whose coefficient tuple is smallest in that
    encoding (irreducible = rootless, since s <= 3).
    """

    def __init__(self, p, s=1):
        if not is_prime(p) or s not in (1, 2, 3):
            raise ValueError(f"unsupported field p={p}, s={s}")
        self.p, self.s, self.q = p, s, p**s
        q = self.q
        if s == 1:
            self.modulus = None
            mul = lambda a, b: a * b % p
        else:
            self.modulus = next(
                m for m in (tuple(self.coords(e)) + (1,) for e in range(q))
                if all(sum(c * x**i for i, c in enumerate(m)) % p for x in range(p))
            )
            mul = self._mul_slow
        self.add = [[self._add_slow(a, b) for b in range(q)] for a in range(q)]
        self.mul = [[mul(a, b) for b in range(q)] for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] + [next(b for b in range(q) if self.mul[a][b] == 1) for a in range(1, q)]

    def coords(self, a):
        return [(a // self.p**i) % self.p for i in range(self.s)]

    def _add_slow(self, a, b):
        p = self.p
        return sum(((x + y) % p) * p**i
                   for i, (x, y) in enumerate(zip(self.coords(a), self.coords(b))))

    def _mul_slow(self, a, b):
        p, s, m = self.p, self.s, self.modulus
        conv = [0] * (2 * s - 1)
        for i, x in enumerate(self.coords(a)):
            for j, y in enumerate(self.coords(b)):
                conv[i + j] += x * y
        for k in range(2 * s - 2, s - 1, -1):  # u^s = -sum m_i u^i
            c = conv[k]
            conv[k] = 0
            for i in range(s):
                conv[k - s + i] -= c * m[i]
        return sum((c % p) * p**i for i, c in enumerate(conv[:s]))

    def u_power(self, k):
        """The encoding of u^k; u itself is encoded as p."""
        x = 1
        for _ in range(k):
            x = self.mul[x][self.p]
        return x


# -- dense polynomials over F_q, little-endian coefficient lists ---------------


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    add = F.add
    for i, c in enumerate(b):
        out[i] = add[out[i]][c]
    return trim(out)


def psub(F, a, b):
    return padd(F, a, [F.neg[c] for c in b])


def pmul(F, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    add, mul = F.add, F.mul
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add[out[i + j]][row[y]]
    return trim(out)


def pdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(a)
    db = len(b) - 1
    if len(r) <= db:
        return [], trim(r)
    inv = F.inv[b[-1]]
    add, mul, neg = F.add, F.mul, F.neg
    quo = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db]
        if c:
            qc = mul[c][inv]
            quo[k] = qc
            nq = neg[qc]
            for j, bj in enumerate(b):
                if bj:
                    r[k + j] = add[r[k + j]][mul[nq][bj]]
    return trim(quo), trim(r[:db])


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def ppowmod(F, a, e, m):
    result = [1]
    a = pmod(F, a, m)
    while e:
        if e & 1:
            result = pmod(F, pmul(F, result, a), m)
        e >>= 1
        if e:
            a = pmod(F, pmul(F, a, a), m)
    return result


# Kronecker substitution: pack each coefficient into a fixed-width slot of
# one Python integer, multiply once, unpack and reduce mod p.
_TYPECODES = {array(t).itemsize: t for t in "IQ"}


def kmul(a, b, p):
    if not a or not b:
        return []
    bound = min(len(a), len(b)) * (p - 1) ** 2
    width = 4 if bound < 2**32 else 8
    code = _TYPECODES[width]
    order = sys.byteorder
    x = int.from_bytes(array(code, a).tobytes(), order)
    y = int.from_bytes(array(code, b).tobytes(), order)
    n = len(a) + len(b) - 1
    out = array(code)
    out.frombytes((x * y).to_bytes(n * width, order))
    return trim([c % p for c in out])


# -- carlitz's polynomial text ---------------------------------------------------


def _split_top(text, sep="+"):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _parse_coeff(F, text):
    """'2', '(u)', '(u+1)', '(2*u^2+1)' -> element encoding."""
    if text.startswith("("):
        text = text[1:-1]
    acc = 0
    for term in text.split("+"):
        c, star, mono = term.partition("*")
        if not star:
            c, mono = ("1", term) if term.startswith("u") else (term, "")
        k = (int(mono[2:]) if mono.startswith("u^") else 1) if mono else 0
        acc = F.add[acc][F.mul[int(c) % F.p][F.u_power(k)]]
    return acc


def parse_poly(F, text):
    """Coefficient list of carlitz's text form, e.g. '(u+1)*T^2+T+(u)'."""
    text = text.strip().replace(" ", "")
    if text == "0":
        return []
    out = {}
    for term in _split_top(text):
        if "T" in term:
            head, _, power = term.partition("T")
            k = int(power[1:]) if power else 1
            head = head[:-1] if head.endswith("*") else head
            c = _parse_coeff(F, head) if head else 1
        else:
            k, c = 0, _parse_coeff(F, term)
        out[k] = F.add[out.get(k, 0)][c]
    coeffs = [0] * (max(out) + 1)
    for k, c in out.items():
        coeffs[k] = c
    return trim(coeffs)


def format_poly(F, a):
    """carlitz's canonical text for a coefficient list."""
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if c < F.p:
            ctext = str(c)
        else:
            us = []
            for i in range(F.s - 1, -1, -1):
                ci = F.coords(c)[i]
                if ci:
                    mono = "" if i == 0 else ("u" if i == 1 else f"u^{i}")
                    us.append(str(ci) if not mono else (mono if ci == 1 else f"{ci}*{mono}"))
            ctext = "(" + "+".join(us) + ")"
        if k == 0:
            terms.append(ctext)
        else:
            mono = "T" if k == 1 else f"T^{k}"
            terms.append(mono if c == 1 else f"{ctext}*{mono}")
    return "+".join(terms)


# -- the residue ring A/PA and its census ------------------------------------------


def is_primitive(F, P, g):
    """Whether g generates the unit group of A/PA, of order L = q^deg P - 1."""
    L = F.q ** (len(P) - 1) - 1
    g = pmod(F, g, P)
    if not g or ppowmod(F, g, L, P) != [1]:
        return False
    return all(ppowmod(F, g, L // ell, P) != [1] for ell in prime_divisors(L))



class Ring:
    """A/PA for a monic irreducible P, with discrete logs to a given root."""

    def __init__(self, F, prime, root):
        self.F, self.prime = F, trim(list(prime))
        self.h = len(self.prime) - 1
        self.base = F.q**self.h
        self.L = self.base - 1
        expect(self.h >= 1 and self.prime[-1] == 1, "the prime must be monic of degree >= 1")
        self.prime2 = pmul(F, self.prime, self.prime)
        self.root = pmod(F, root, self.prime)
        expect(is_primitive(F, self.prime, self.root),
               f"{format_poly(F, root)} is not a primitive root")
        self._baby = None
        self._unit_logs = {}  # k -> (v_P([k]), dlog of the unit part of [k])
        self._fact_rows = [(0, 0)]  # i -> (v_P(D_i), dlog of the unit part of D_i)

    def mul(self, a, b):
        return pmod(self.F, pmul(self.F, a, b), self.prime)

    def pow(self, a, e):
        return ppowmod(self.F, a, e, self.prime)

    def dlog(self, x):
        """Baby-step giant-step discrete log of a nonzero residue."""
        expect(bool(x), "the zero residue has no discrete log")
        m = int(self.L**0.5) + 1
        if self._baby is None:
            baby, cur = {}, [1]
            for j in range(m):
                baby.setdefault(tuple(cur), j)
                cur = self.mul(cur, self.root)
            # giant step: multiply by root^(-m) = root^(L - m mod L)
            self._baby = baby, self.pow(self.root, (-m) % self.L)
        baby, giant = self._baby
        cur = pmod(self.F, x, self.prime)
        for i in range(m + 1):
            j = baby.get(tuple(cur))
            if j is not None:
                return (i * m + j) % self.L
            cur = self.mul(cur, giant)
        raise Mismatch("discrete log not found; the root is not primitive")

    def bracket(self, k):
        """(v_P([k]), dlog of [k] / P^v mod P) for [k] = T^(q^k) - T."""
        hit = self._unit_logs.get(k)
        if hit is None:
            F = self.F
            t = [0, 1]
            for _ in range(k):
                t = ppowmod(F, t, F.q, self.prime2)
            b = pmod(F, psub(F, t, [0, 1]), self.prime2)
            quo, rem = pdivmod(F, b, self.prime)
            if rem:
                hit = (0, self.dlog(rem))
            else:
                expect(bool(quo), f"[{k}] is divisible by the square of the prime")
                hit = (1, self.dlog(quo))
            self._unit_logs[k] = hit
        return hit

    def fact_row(self, i):
        """(v_P(D_i), dlog of the unit part of D_i), from D_i = prod [i-r]^(q^r)."""
        rows = self._fact_rows
        q, L = self.F.q, self.L
        while len(rows) <= i:
            j = len(rows)
            v = e = 0
            for r in range(j):
                bv, be = self.bracket(j - r)
                v += bv * q**r
                e += be * pow(q, r, L)
            rows.append((v, e % L))
        return rows[i]

    def factorial(self, x):
        """(v_P(x!_C), dlog of its unit part)."""
        v = e = 0
        for i, xi in enumerate(digits(x, self.F.q)):
            if xi:
                fv, fe = self.fact_row(i)
                v += xi * fv
                e += xi * fe
        return v, e % self.L

    def binom_class(self, n, m):
        """None if binom(n, m)_C = 0 mod P, else its discrete log."""
        vn, en = self.factorial(n)
        vm, em = self.factorial(m)
        vr, er = self.factorial(n - m)
        v = vn - vm - vr
        expect(v >= 0, "negative valuation: binomials lie in A")
        return None if v else (en - em - er) % self.L

    def census(self, n):
        """({exponent: count}, zero_count) by classifying every m <= n."""
        facts = [self.factorial(x) for x in range(n + 1)]
        vn, en = facts[n]
        counts, zero = {}, 0
        L = self.L
        for m in range(n + 1):
            vm, em = facts[m]
            vr, er = facts[n - m]
            if vn - vm - vr:
                zero += 1
            else:
                j = (en - em - er) % L
                counts[j] = counts.get(j, 0) + 1
        return counts, zero

    def gpoly(self, d):
        """The single-digit polynomial G_d as {exponent: count}, d < q^h."""
        counts, zero = self.census(d)
        expect(zero == 0, "a single-digit binomial vanished mod the prime")
        return counts


@lru_cache(maxsize=None)
def root_of_unity_prime(L):
    """(r, zeta): a prime r = 1 mod L above 2^61 and zeta of order exactly L."""
    k = (2**61) // L + 1
    while not is_prime(k * L + 1):
        k += 1
    r = k * L + 1
    for g in range(2, r):
        zeta = pow(g, (r - 1) // L, r)
        if all(pow(zeta, L // ell, r) != 1 for ell in prime_divisors(L)):
            return r, zeta
    raise AssertionError("unreachable")


def check_census(ring, n, counts, zero_count, points=None):
    """Check one census of binom(n, m)_C mod P, m = 0..n.

    counts maps exponent -> count (zero counts may be omitted).  With
    points=None the census is compared in full against enumeration, which
    suits small n.  Otherwise points is a list of exponents t: the unit mass
    and G_n(zeta^t) mod r are compared with the product of this module's own
    single-digit polynomials.
    """
    L = ring.L
    counts = {j % L: c for j, c in counts.items() if c}
    expect(all(c > 0 for c in counts.values()), "negative count")
    if points is None:
        want, want_zero = ring.census(n)
        expect(counts == want, f"census of n = {n} disagrees with enumeration")
        expect(zero_count == want_zero,
               f"zero_count of n = {n} is {zero_count}, expected {want_zero}")
        return
    hist = {}
    for a in digits(n, ring.base) or [0]:
        hist[a] = hist.get(a, 0) + 1
    mass = 1
    for a, c in hist.items():
        mass *= (a + 1) ** c
    expect(sum(counts.values()) == mass, f"unit mass of n = {n} is not prod (a_i + 1)")
    expect(zero_count == n + 1 - mass, f"zero_count of n = {n} is not n + 1 - G_n(1)")
    r, zeta = root_of_unity_prime(L)
    counts = {j: c % r for j, c in counts.items()}
    gpolys = {a: ring.gpoly(a) for a in hist}
    for t in points:
        w = pow(zeta, t % L, r)
        powers = [1] * L
        for j in range(1, L):
            powers[j] = powers[j - 1] * w % r
        got = sum(c * powers[j] for j, c in counts.items()) % r
        want = 1
        for a, c in hist.items():
            ga = sum(cc * powers[j] for j, cc in gpolys[a].items()) % r
            want = want * pow(ga, c, r) % r
        expect(got == want, f"G_n(zeta^{t}) of n = {n} disagrees with the digit product")


# -- exact factorials and binomials --------------------------------------------------


@lru_cache(maxsize=64)
def d_poly(i, p):
    """D_i over F_p, straight from the product of T^(q^i) - T^(q^r)."""
    acc = [1]
    qi = p**i
    for r in range(i):
        qr = p**r
        out = [0] * (len(acc) + qi)
        for k, c in enumerate(acc):
            if c:
                out[k + qi] = (out[k + qi] + c) % p
                out[k + qr] = (out[k + qr] - c) % p
        acc = trim(out)
    return acc


def factorial(n, p):
    """n!_C over F_p as a coefficient list."""
    acc = [1]
    for i, ni in enumerate(digits(n, p)):
        for _ in range(ni if i else 0):
            acc = kmul(acc, d_poly(i, p), p)
    return acc


def check_binom_exact(n, m, p, quotient):
    """quotient * m!_C * (n-m)!_C must equal n!_C over F_p."""
    back = kmul(kmul(quotient, factorial(m, p), p), factorial(n - m, p), p)
    expect(back == factorial(n, p),
           f"binom({n}, {m})_C over F_{p}: quotient times m!(n-m)! is not n!")
