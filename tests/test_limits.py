"""Every work bound refuses through limits.refuse_above: the value at the
limit passes, one above it raises GuardrailError with the text pinned here,
and the CLI reports each refusal with the same stderr and exit code."""

import io

import pytest

from carlitz import (BaseTable, DigitBinomCache, Field, GuardrailError, ResidueCtx, Word,
                     binom_exact, class_set, cli, d_poly, digit_counts, distribution,
                     distribution_brute, factorial_exact, find_irreducible, from_json_dict,
                     gn_fast, parse_poly)
from carlitz.dist import _check_ring
from carlitz.limits import DENSE_CENSUS_LIMIT, refuse_above

F2, F3 = Field(2), Field(3)
CTX9 = ResidueCtx(parse_poly("T^2+1", F3), primitive_root=parse_poly("T+1", F3))
CACHE9 = DigitBinomCache(CTX9)


def _check_command(enum_limit):
    args = cli.build_parser().parse_args(
        ["check", "-p", "3", "--prime", "T^2+1", "--max-n", "10", "--enum-limit", str(enum_limit)])
    return cli._COMMANDS["check"](args, io.StringIO())


# (call, text): call(e) runs the site with its value e above its limit.
SITES = {
    "parse_poly": (lambda e: parse_poly(f"T^{10**6 + e}", F2),
                   "degree 1000001 exceeds the exact-degree limit 1000000"),
    # The search at degree 10^6 itself would not finish, so only e = 1 runs.
    "find_irreducible": (lambda e: e and find_irreducible(10**6 + e, F2),
                         "degree 1000001 exceeds the exact-degree limit 1000000"),
    "d_poly": (lambda e: d_poly(3, F2, degree_limit=24 - e),
               "deg D_3 = 24 exceeds the exact-degree limit 23"),
    "factorial_exact": (lambda e: factorial_exact(8, F2, degree_limit=24 - e),
                        "deg 8!_C = 24 exceeds the exact-degree limit 23"),
    "binom_exact": (lambda e: binom_exact(8, 1, F2, degree_limit=24 - e),
                    "deg 8!_C = 24 exceeds the exact-degree limit 23"),
    "distribution_brute": (lambda e: distribution_brute(10, CTX9, CACHE9, limit=10 - e),
                           "brute scan of n = 10 exceeds the enumeration limit 9"),
    "cli_check": (lambda e: _check_command(10 - e),
                  "brute scan of n = 10 exceeds the enumeration limit 9"),
    "class_set": (lambda e: class_set(Word.from_int(100, 9), 0, CACHE9, limit=100 - e),
                  "class-set scan of z = 100 exceeds the limit 99"),
}


@pytest.mark.parametrize("site", SITES)
def test_refusal_at_limit_plus_one(site):
    call, text = SITES[site]
    call(0)
    with pytest.raises(GuardrailError) as e:
        call(1)
    assert str(e.value) == text


def test_refuse_above_text():
    refuse_above(5, 5, "x =", "test limit")
    with pytest.raises(GuardrailError, match=r"^x = 6 exceeds the test limit 5$"):
        refuse_above(6, 5, "x =", "test limit")


# -- the dense census -----------------------------------------------------------

CENSUS_25 = "q^h - 1 = 33554431 exceeds the dense-census limit 16777216"


def test_census_bound_edges():
    # Both edges over F_2 without building anything of length q^h - 1.
    assert 2**24 - 1 <= DENSE_CENSUS_LIMIT < 2**25 - 1
    _check_ring(ResidueCtx(find_irreducible(24, F2)))
    ctx = ResidueCtx(find_irreducible(25, F2))
    cache = DigitBinomCache(ctx)
    doc = {"p": 2, "s": 1, "field_modulus": None, "prime": str(ctx.prime), "h": 25,
           "primitive_root": str(ctx.primitive_root), "group_order": str(ctx.group_order),
           "n": "5", "method": "fast", "zero_count": "2",
           "counts": [{"exponent": "0", "residue": "1", "count": "4"}]}
    for call in (lambda: _check_ring(ctx), lambda: digit_counts(5, ctx),
                 lambda: BaseTable(ctx, cache), lambda: gn_fast(5, ctx, cache),
                 lambda: distribution(1, ctx, cache, method="brute"),
                 lambda: from_json_dict(doc)):
        with pytest.raises(GuardrailError) as e:
            call()
        assert str(e.value) == CENSUS_25


# -- the CLI ------------------------------------------------------------------------

DEGREE_LIMIT = "exceeds the exact-degree limit 1000000\n"
BABY_STEPS = ("error: a discrete log mod T^64+T^4+T^3+T+1 needs 4294967296 baby steps, "
              "above the table limit 1048576\n")

# The refusals of the CI smoke step, with their stderr and exit code.
CLI_REFUSALS = [
    ("binom -p 3 -n 6561 -m 1 --exact --degree-limit 52487", 3,
     "error: deg 6561!_C = 52488 exceeds the exact-degree limit 52487\n"),
    ("irreducible -p 2 --poly T^2+", 2, "error: cannot read a term in T from ''\n"),
    ("irreducible -p 2 --poly T^1000001+T+1", 3, "error: degree 1000001 " + DEGREE_LIMIT),
    ("irreducible -p 2 --degree 1000001", 3, "error: degree 1000001 " + DEGREE_LIMIT),
    ("check -p 3 --prime T^2+1 --max-n 10000001", 3,
     "error: brute scan of n = 10000001 exceeds the enumeration limit 10000000\n"),
    ("dist -p 2 --prime-degree 64 -n 5", 3, BABY_STEPS),
    ("dist -p 2 --prime-degree 64 -n 5 --method brute", 3, BABY_STEPS),
    ("dist -p 2 --prime-degree 64 -n 1", 3, BABY_STEPS),
    ("dist -p 2147483647 --prime T+1 -n 5", 3,
     "error: q^h - 1 = 2147483646 exceeds the dense-census limit 16777216\n"),
    ("dist -p 65537 --prime-degree 2 -n 123456789012345", 3,
     "error: q^h - 1 = 4295098368 exceeds the dense-census limit 16777216\n"),
    ("dist -p 2 --prime T^28+T^3+1 -n 5", 3,
     "error: q^h - 1 = 268435455 exceeds the dense-census limit 16777216\n"),
]


@pytest.mark.parametrize("argv, code, err", CLI_REFUSALS, ids=[c[0] for c in CLI_REFUSALS])
def test_cli_refusal_text(capsys, argv, code, err):
    assert cli.main(argv.split()) == code
    assert capsys.readouterr() == ("", err)
