"""The four workloads and their seeded input lists.

Input generation never imports carlitz: the operations themselves run in a
round process (rounds.py), and their answers are checked by verify.py.
"""

from __future__ import annotations

import math
import os
import random

import oracle

NAMES = ("cli", "census-wide", "check", "exact")


def child_env(root):
    """Environment for every child: the checkout's src on the path, no
    base-table disk cache, a fixed hash seed."""
    env = dict(os.environ)
    env.pop("CARLITZ_CACHE_DIR", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# -- input lists -------------------------------------------------------------
#
# Every input list is built from two generators.  `fixed` draws what sets
# the amount of work, the same for every seed; `rng` draws from the seed
# what can change without changing that work.  On this code a freely drawn
# 40-digit n, or a free (n, m), moves a round's cost by 8-16 % between
# seeds (the borrow pattern of each digit decides how many residue products
# a single-digit binomial takes), which is more than the bounds allow.  The
# order of the operations is fixed as well: an operation's time depends on
# what ran before it in the same process, by up to 15 %.


def _stratified_digits(rng, base, k):
    """k base-`base` digits, digit j drawn from the j-th of k equal strata."""
    return [rng.randrange(j * base // k, max(j * base // k + 1, (j + 1) * base // k))
            for j in range(k)]


def _arrange(rng, ds, base):
    """The number whose base-`base` digits are ds in an order drawn by rng,
    with a nonzero leading digit.  G_n depends only on the digit histogram,
    so every order costs the fast census the same."""
    ds = list(ds)
    rng.shuffle(ds)
    if ds[-1] == 0:
        i = next(i for i, d in enumerate(ds) if d)
        ds[i], ds[-1] = ds[-1], ds[i]
    n = 0
    for d in reversed(ds):
        n = n * base + d
    return n


def _cli_inputs(fixed, rng):
    ex = ["dist", "-p", "3", "--prime", "T^2+1", "-n", "1811"]
    n_b = rng.randrange(10**11, 10**12)
    n_e = rng.randrange(100, 300)
    p_r, prime_r = rng.choice([(7, "T^2+1"), (5, "T^2+2"), (3, "T^3+2*T+1"), (2, "T^4+T+1")])
    p_i, deg_i = rng.choice([(2, 4), (2, 5), (3, 2), (3, 3)])
    return [
        {"argv": ex},
        {"argv": ex + ["--output", "table"]},
        {"argv": ex + ["--output", "csv"]},
        {"argv": ["dist", "-p", "2", "--prime", "T^4+T+1",
                  "-n", str(rng.randrange(10**39, 10**40))]},
        {"argv": ["dist", "-p", "5", "--prime", "T^2+2",
                  "-n", str(rng.randrange(10**19, 10**20)), "--output", "csv"]},
        {"argv": ["dist", "-p", "2", "-s", "2", "--prime", "T^2+T+(u)",
                  "-n", str(rng.randrange(2000, 4000))]},
        {"argv": ["binom", "-p", "3", "--prime", "T^2+1",
                  "-n", str(n_b), "-m", str(rng.randrange(n_b + 1))]},
        {"argv": ["binom", "-p", "3", "-n", str(n_e), "-m", str(rng.randrange(n_e + 1)),
                  "--exact"]},
        {"argv": ["factorial", "-p", "2", "-n", str(rng.randrange(50, 150))]},
        {"argv": ["primroot", "-p", str(p_r), "--prime", prime_r]},
        {"argv": ["irreducible", "-p", str(p_i), "--degree", str(deg_i)]},
        {"argv": ["check", "-p", "3", "--prime", "T^2+1",
                  "--max-n", str(rng.randrange(30, 60))]},
    ]


# (p, s, prime, decimal digits of n, operations per round).  The mid-size
# ring runs three times a round so the median latency sits inside its
# cluster rather than on the gap between two rings.
_WIDE = [
    (2, 1, "T^9+T+1", 40, 1),
    (3, 1, "T^5+2*T+1", 40, 3),
    (7, 1, "T^3+T+1", 20, 1),
    (2, 2, "T^3+T+1", 40, 1),
]


def _census_wide_inputs(fixed, rng):
    ops = []
    for p, s, prime, dec, reps in _WIDE:
        base = p ** (s * _degree(p, s, prime))
        k = int(dec / math.log10(base))
        for _ in range(reps):
            n = _arrange(rng, _stratified_digits(fixed, base, k), base)
            ops.append({"p": p, "s": s, "prime": prime, "n": n})
    # q^h = 2^15: each n is a single base-2^15 digit.
    for _ in range(2):
        ops.append({"p": 2, "s": 1, "prime": "T^15+T+1", "n": fixed.randrange(512, 1024)})
    return ops


def _degree(p, s, prime):
    return len(oracle.parse_poly(oracle.GF(p, s), prime)) - 1


_CHECK = [
    (2, 1, "T^7+T+1", 300),
    (5, 1, "T^3+T+1", 250),
    (3, 1, "T^4+T+2", 200),
    (2, 2, "T^3+T+1", 150),
    (7, 1, "T^3+T+1", 400),
]


def _check_inputs(fixed, rng):
    """The rings and bounds are fixed; the seed picks each ring's primitive
    root, which changes every discrete log but not the amount of work."""
    ops = []
    for p, s, prime, max_n in _CHECK:
        F = oracle.GF(p, s)
        P = oracle.parse_poly(F, prime)
        h = len(P) - 1
        while True:
            g = oracle.trim([rng.randrange(F.q) for _ in range(h)])
            if g and oracle.is_primitive(F, P, g):
                break
        argv = ["check", "-p", str(p)] + (["-s", str(s)] if s > 1 else []) + [
            "--prime", prime, "--primitive-root", oracle.format_poly(F, g),
            "--max-n", str(max_n)]
        samples = sorted({max_n} | {rng.randrange(max_n) for _ in range(7)})
        ops.append({"argv": argv, "p": p, "s": s, "prime": prime, "samples": samples})
    return ops


def _carlitz_degree(n, q):
    return sum(ni * i * q**i for i, ni in enumerate(oracle.digits(n, q)))


EXACT_BAND = (15_000, 25_000)  # deg n!_C of every exact operation
# Per p, the smallest n with deg n!_C >= 15,000 and the largest with
# deg n!_C <= 25,000 (deg n!_C is not monotone in n, hence the retry below).
EXACT_N = {2: (1568, 2383), 3: (2187, 3887), 5: (3125, 5624), 7: (4263, 6859)}


def _exact_inputs(fixed, rng):
    """Two fixed (n, m) per p; the seed picks m or n - m for each,
    which gives the same binomial from the same work."""
    lo, hi = EXACT_BAND
    ops = []
    for p, (n_lo, n_hi) in EXACT_N.items():
        for a, b in ((0.25, 0.375), (0.375, 0.5)):
            n = fixed.randrange(n_lo, n_hi + 1)
            while not lo <= _carlitz_degree(n, p) <= hi:
                n = fixed.randrange(n_lo, n_hi + 1)
            m = int(n * fixed.uniform(a, b))
            ops.append({"p": p, "n": n, "m": rng.choice((m, n - m))})
    return ops


_INPUTS = {
    "cli": _cli_inputs,
    "census-wide": _census_wide_inputs,
    "check": _check_inputs,
    "exact": _exact_inputs,
}


def inputs(name, seed):
    """The fixed operation list of one round of a workload."""
    return _INPUTS[name](random.Random(f"{name}:fixed"), random.Random(f"{name}:{seed}"))
