"""Checks of every workload's answers against oracle.py.

check(workload, spec, answer) raises oracle.Mismatch (or a parse error)
when carlitz's answer is wrong.  Answers are read from the text carlitz
prints, or from its public Distribution fields, never compared with a
stored copy of an earlier answer.
"""

from __future__ import annotations

import json

import oracle as o
from oracle import expect


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _field(argv):
    return o.GF(int(_opt(argv, "-p")), int(_opt(argv, "-s", 1)))


def _residue(F, e, h):
    return o.trim([(e // F.q**i) % F.q for i in range(h)])


def first_primitive(F, P):
    """The primitive root of smallest encoding sum c_i q^i."""
    h = len(P) - 1
    return next(g for g in (_residue(F, e, h) for e in range(1, F.q**h))
                if o.is_primitive(F, P, g))


def _monic(F, e, d):
    """The monic polynomial of degree d whose lower coefficients encode e."""
    return [(e // F.q**i) % F.q for i in range(d)] + [1]


def _irreducible(F, P):
    """Trial division by every monic polynomial of degree <= deg P / 2."""
    h = len(P) - 1
    return all(o.pmod(F, P, _monic(F, e, d))
               for d in range(1, h // 2 + 1) for e in range(F.q**d))


# -- the census as carlitz prints it -----------------------------------------


def _parse_dist(fmt, text):
    """(root text or None, [(exponent, label, count)], zero_count, header)."""
    if fmt == "json":
        doc = json.loads(text)
        rows = [(int(c["exponent"]), c["residue"], int(c["count"])) for c in doc["counts"]]
        return doc["primitive_root"], rows, int(doc["zero_count"]), doc
    lines = text.strip().splitlines()
    if fmt == "csv":
        expect(lines[0] == "exponent,residue,count", "bad csv header")
        rows = [line.split(",") for line in lines[1:-1]]
        tag, _, zero = lines[-1].split(",")
        expect(tag == "zero_count", "csv lacks the zero_count row")
        return None, [(int(j), r, int(c)) for j, r, c in rows], int(zero), {}
    head = dict(line.split(" = ", 1) for line in lines[:5] if " = " in line)
    root = lines[3].split(" = ")[1].split()[0]
    rows = [line.split() for line in lines[6:-1]]
    zero = lines[-1].split()
    expect(zero[0] == "zero", "table lacks the zero row")
    return root, [(int(j), r, int(c)) for j, r, c in rows], int(zero[1]), head


def _check_rows(F, P, n, root, rows, zero):
    """Labels must be root^exponent; then the census must be right.  Without
    a printed root (csv) the classes are keyed by the labels alone."""
    ring = o.Ring(F, P, o.parse_poly(F, root) if root else first_primitive(F, P))
    counts = {}
    for j, label, c in rows:
        res = o.parse_poly(F, label)
        if root:
            expect(ring.pow(ring.root, j) == res, f"label {label} is not root^{j}")
        k = ring.dlog(res)
        counts[k] = counts.get(k, 0) + c
    o.check_census(ring, n, counts, zero, None if n <= 10**4 else range(ring.L))


def _check_dist(argv, text):
    F = _field(argv)
    P = o.parse_poly(F, _opt(argv, "--prime"))
    n = int(_opt(argv, "-n"))
    fmt = _opt(argv, "--output", "json")
    root, rows, zero, head = _parse_dist(fmt, text)
    if fmt == "json":
        L = F.q ** (len(P) - 1) - 1
        expect((head["p"], head["s"], head["h"]) == (F.p, F.s, len(P) - 1), "field or h")
        expect(o.parse_poly(F, head["prime"]) == P, "prime")
        expect((head["group_order"], head["n"], head["method"]) == (str(L), str(n), "fast"),
               "group_order, n or method")
    if fmt == "table":
        expect(head["n"] == str(n), "n")
    _check_rows(F, P, n, root, rows, zero)


def _check_cli(argv, answer):
    expect(answer["rc"] == 0, f"exit code {answer['rc']}")
    text = answer["stdout"]
    cmd = argv[0]
    F = _field(argv)
    if cmd == "dist":
        return _check_dist(argv, text)
    if cmd == "check":
        return expect(text == f"OK {int(_opt(argv, '--max-n')) + 1} cases\n", "check verdict")
    got = o.parse_poly(F, text.strip())
    if cmd == "binom" and "--exact" in argv:
        return o.check_binom_exact(int(_opt(argv, "-n")), int(_opt(argv, "-m")), F.p, got)
    if cmd == "binom":
        P = o.parse_poly(F, _opt(argv, "--prime"))
        ring = o.Ring(F, P, first_primitive(F, P))
        cls = ring.binom_class(int(_opt(argv, "-n")), int(_opt(argv, "-m")))
        want = [] if cls is None else ring.pow(ring.root, cls)
        return expect(got == want, "binomial mod the prime")
    if cmd == "factorial":
        return expect(got == o.factorial(int(_opt(argv, "-n")), F.p), "exact factorial")
    if cmd == "primroot":
        P = o.parse_poly(F, _opt(argv, "--prime"))
        return expect(got == first_primitive(F, P), "not the primitive root of least encoding")
    if cmd == "irreducible":
        h = int(_opt(argv, "--degree"))
        want = next(P for P in (_monic(F, e, h) for e in range(F.q**h)) if _irreducible(F, P))
        return expect(got == want, "not the first monic irreducible")
    raise ValueError(f"unknown request {cmd}")


def _check_census(spec, answer):
    F = o.GF(spec["p"], spec["s"])
    ring = o.Ring(F, o.parse_poly(F, spec["prime"]), o.parse_poly(F, answer["root"]))
    counts = {int(j): int(c) for j, c in answer["counts"].items()}
    n = spec["n"]
    points = None if n <= 10**4 else range(ring.L) if ring.L <= 128 else range(1, 17)
    o.check_census(ring, n, counts, int(answer["zero"]), points)


def _check_check(spec, answer):
    argv = spec["argv"]
    _check_cli(argv, answer)
    F = _field(argv)
    ring = o.Ring(F, o.parse_poly(F, spec["prime"]), o.parse_poly(F, _opt(argv, "--primitive-root")))
    expect(sorted(map(int, answer["samples"])) == spec["samples"], "census samples missing")
    for n, census in answer["samples"].items():
        expect(census["root"] == _opt(argv, "--primitive-root"), "root")
        counts = {int(j): int(c) for j, c in census["counts"].items()}
        o.check_census(ring, int(n), counts, int(census["zero"]))


def check(workload, spec, answer):
    if workload == "cli":
        _check_cli(spec["argv"], answer)
    elif workload == "census-wide":
        _check_census(spec, answer)
    elif workload == "check":
        _check_check(spec, answer)
    elif workload == "exact":
        o.check_binom_exact(spec["n"], spec["m"], spec["p"], o.parse_poly(o.GF(spec["p"]), answer))
    else:
        raise ValueError(workload)
