"""Command-line front end.

    carlitz dist        -- count binomial classes mod a prime for one n
    carlitz check       -- compare the fast product against the brute scan
    carlitz binom       -- one binomial coefficient (mod p, or exact)
    carlitz factorial   -- one Carlitz factorial (exact, or mod p)
    carlitz primroot    -- find or verify a primitive root
    carlitz irreducible -- test a polynomial, or find one by degree

Exit codes: 0 success, 1 check mismatch, 2 bad usage or validation,
3 guardrail exceeded.  Integers of any length are accepted and printed:
Python's int-string digit limit is lifted while main runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .binom import DigitBinomCache, binom_exact, factorial_exact
from .dist import BaseTable, distribution, gn_fast, to_json_dict
from .gf import Field
from .limits import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_EXACT_DEGREE_LIMIT,
    GuardrailError,
)
from .polyring import ParseError, Poly, find_irreducible, is_irreducible, parse_poly, parse_upoly
from .residue import ResidueCtx

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_GUARDRAIL = 3

def _add_field_args(sp):
    sp.add_argument("-p", type=int, required=True, help="field characteristic (prime)")
    sp.add_argument("-s", type=int, default=1, help="extension degree (default 1)")
    sp.add_argument("--field-modulus", metavar="UPOLY",
                    help="defining modulus for s > 1, e.g. 'u^2+u+1' (default: canonical)")


def _add_prime_args(sp, root_help="primitive root to use (default: search)"):
    sp.add_argument("--prime", metavar="POLY", help="monic irreducible prime polynomial")
    sp.add_argument("--prime-degree", type=int, metavar="H",
                    help="pick the canonical prime of this degree instead of --prime")
    sp.add_argument("--primitive-root", metavar="POLY", help=root_help)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="carlitz",
        description="Carlitz binomial coefficients over F_q[T] and their distribution mod a prime.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="distribution of binom(n, m) mod the prime over m <= n")
    _add_field_args(d)
    _add_prime_args(d)
    d.add_argument("-n", required=True, metavar="N", help="upper index n (decimal, any size)")
    d.add_argument("--method", choices=("fast", "brute"), default="fast")
    d.add_argument("--output", choices=("json", "table", "csv"), default="json")
    d.add_argument("--enum-limit", type=int, default=DEFAULT_ENUM_LIMIT,
                   help="largest n the brute method will scan")

    c = sub.add_parser("check", help="verify fast == brute for every n up to a bound")
    _add_field_args(c)
    _add_prime_args(c)
    c.add_argument("--max-n", type=int, default=200, help="check all n <= this (default 200)")
    c.add_argument("--enum-limit", type=int, default=DEFAULT_ENUM_LIMIT)

    b = sub.add_parser("binom", help="one Carlitz binomial coefficient")
    _add_field_args(b)
    _add_prime_args(b)
    b.add_argument("-n", required=True, metavar="N", help="upper index")
    b.add_argument("-m", required=True, metavar="M", help="lower index")
    b.add_argument("--exact", action="store_true", help="exact polynomial instead of mod the prime")
    b.add_argument("--degree-limit", type=int, default=DEFAULT_EXACT_DEGREE_LIMIT,
                   help="degree guardrail for exact computation")

    f = sub.add_parser("factorial", help="one Carlitz factorial")
    _add_field_args(f)
    _add_prime_args(f)
    f.add_argument("-n", required=True, metavar="N", help="index")
    f.add_argument("--exact", action="store_true",
                   help="force the exact polynomial even when a prime is given")
    f.add_argument("--degree-limit", type=int, default=DEFAULT_EXACT_DEGREE_LIMIT)

    r = sub.add_parser("primroot", help="find or verify a primitive root mod the prime")
    _add_field_args(r)
    _add_prime_args(r, root_help="candidate root to verify instead of searching")

    i = sub.add_parser("irreducible", help="test irreducibility, or find a canonical irreducible")
    _add_field_args(i)
    i.add_argument("--poly", metavar="POLY", help="polynomial to test")
    i.add_argument("--degree", type=int, metavar="H", help="degree to search")

    return ap


def _field_from_args(args) -> Field:
    modulus = None
    if args.field_modulus is not None:
        if args.s == 1:
            raise ValueError("--field-modulus only applies when s > 1")
        modulus = parse_upoly(args.field_modulus, args.p)
        if len(modulus) != args.s + 1:
            raise ValueError(f"--field-modulus must have degree {args.s}")
    return Field(args.p, args.s, modulus=modulus)


def _ctx_from_args(args, field: Field) -> ResidueCtx:
    if getattr(args, "prime", None) and getattr(args, "prime_degree", None):
        raise ValueError("give either --prime or --prime-degree, not both")
    if getattr(args, "prime", None):
        prime = parse_poly(args.prime, field)
    elif getattr(args, "prime_degree", None):
        prime = find_irreducible(args.prime_degree, field)
    else:
        raise ValueError("a prime is required: pass --prime or --prime-degree")
    root = None
    if getattr(args, "primitive_root", None):
        root = parse_poly(args.primitive_root, field)
    return ResidueCtx(prime, primitive_root=root)


def _parse_n(text) -> int:
    try:
        n = int(text, 10)
    except ValueError:
        shown = text if len(text) <= 20 else text[:20] + "..."
        raise ValueError(f"expected a decimal integer, got {shown!r}") from None
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n


# -- output -------------------------------------------------------------------


def _print_dist(dist, fmt, out):
    if fmt == "json":
        print(json.dumps(to_json_dict(dist), indent=2), file=out)
        return
    if fmt == "csv":
        print("exponent,residue,count", file=out)
        for j, c in dist.nonzero_items():
            print(f"{j},{dist.residue_label(j)},{c}", file=out)
        print(f"zero_count,,{dist.zero_count}", file=out)
        return
    ctx = dist.ctx
    print(f"n = {dist.n}", file=out)
    print(f"field: q = {ctx.q} (p = {ctx.field.p}, s = {ctx.field.s})", file=out)
    print(f"prime = {ctx.prime}   (h = {ctx.h})", file=out)
    print(f"primitive root = {ctx.primitive_root}   group order = {ctx.group_order}", file=out)
    print(f"method = {dist.method}", file=out)
    print(f"{'exponent':>10}  {'residue':<16} {'count'}", file=out)
    for j, c in dist.nonzero_items():
        print(f"{j:>10}  {dist.residue_label(j):<16} {c}", file=out)
    print(f"{'zero':>10}  {'':<16} {dist.zero_count}", file=out)


# -- commands -------------------------------------------------------------------


def _cmd_dist(args, out):
    field = _field_from_args(args)
    ctx = _ctx_from_args(args, field)
    n = _parse_n(args.n)
    dist = distribution(n, ctx, DigitBinomCache(ctx), method=args.method,
                        limit=args.enum_limit)
    _print_dist(dist, args.output, out)
    return EXIT_OK


def _cmd_check(args, out):
    field = _field_from_args(args)
    ctx = _ctx_from_args(args, field)
    if args.max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    cache = DigitBinomCache(ctx)
    table = BaseTable(ctx, cache)
    for n in range(args.max_n + 1):
        fast = gn_fast(n, ctx, cache, table)
        brute = distribution(n, ctx, cache, method="brute", table=table,
                             limit=args.enum_limit)
        if fast != brute.counts:
            print(f"MISMATCH at n = {n}", file=out)
            print(f"  fast : {fast}", file=out)
            print(f"  brute: {brute.counts}", file=out)
            return EXIT_MISMATCH
    print(f"OK {args.max_n + 1} cases", file=out)
    return EXIT_OK


def _cmd_binom(args, out):
    field = _field_from_args(args)
    n = _parse_n(args.n)
    m = _parse_n(args.m)
    if args.exact:
        print(binom_exact(n, m, field, degree_limit=args.degree_limit), file=out)
        return EXIT_OK
    ctx = _ctx_from_args(args, field)
    cache = DigitBinomCache(ctx)
    print(cache.binom(n, m), file=out)
    return EXIT_OK


def _cmd_factorial(args, out):
    field = _field_from_args(args)
    n = _parse_n(args.n)
    wants_mod = (args.prime or args.prime_degree) and not args.exact
    if wants_mod:
        ctx = _ctx_from_args(args, field)
        cache = DigitBinomCache(ctx)
        print(cache.factorial(n), file=out)
    else:
        print(factorial_exact(n, field, degree_limit=args.degree_limit), file=out)
    return EXIT_OK


def _cmd_primroot(args, out):
    field = _field_from_args(args)
    ctx = _ctx_from_args(args, field)  # validates a supplied candidate
    print(ctx.primitive_root, file=out)
    return EXIT_OK


def _cmd_irreducible(args, out):
    field = _field_from_args(args)
    if (args.poly is None) == (args.degree is None):
        raise ValueError("give exactly one of --poly or --degree")
    if args.poly is not None:
        poly = parse_poly(args.poly, field)
        print("true" if is_irreducible(poly) else "false", file=out)
    else:
        print(find_irreducible(args.degree, field), file=out)
    return EXIT_OK


_COMMANDS = {
    "dist": _cmd_dist,
    "check": _cmd_check,
    "binom": _cmd_binom,
    "factorial": _cmd_factorial,
    "primroot": _cmd_primroot,
    "irreducible": _cmd_irreducible,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # n has no size bound, so lift the int <-> str digit limit (Python >=
    # 3.10.7), but only for this call: main also runs inside other programs.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        digit_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except GuardrailError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except (ParseError, ValueError, ArithmeticError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lift:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
