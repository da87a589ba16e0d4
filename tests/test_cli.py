import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carlitz
from carlitz import (BaseTable, CountPoly, DigitBinomCache, cli, distribution, intfactor,
                     to_json_dict)
from carlitz.cli import main

GOLDEN_1811 = {
    "p": 3,
    "s": 1,
    "field_modulus": None,
    "prime": "T^2+1",
    "h": 2,
    "primitive_root": "T+1",
    "group_order": "8",
    "n": "1811",
    "method": "fast",
    "counts": [
        {"exponent": "0", "residue": "1", "count": "72"},
        {"exponent": "4", "residue": "2", "count": "18"},
        {"exponent": "6", "residue": "T", "count": "90"},
    ],
    "zero_count": "1632",
}

BASE = ["dist", "-p", "3", "--prime", "T^2+1", "--primitive-root", "T+1"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_golden_json(capsys):
    code, out, err = run(BASE + ["-n", "1811"], capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out) == GOLDEN_1811


def test_dist_deterministic_bytes(capsys):
    _, out1, _ = run(BASE + ["-n", "1811"], capsys)
    _, out2, _ = run(BASE + ["-n", "1811"], capsys)
    assert out1 == out2


def test_dist_default_root_searches(capsys):
    # Omitting --primitive-root finds T+1, the first primitive element.
    code, out, _ = run(["dist", "-p", "3", "--prime", "T^2+1", "-n", "1811"], capsys)
    assert code == 0
    assert json.loads(out) == GOLDEN_1811


def test_dist_n_zero(capsys):
    code, out, _ = run(BASE + ["-n", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == [{"exponent": "0", "residue": "1", "count": "1"}]
    assert doc["zero_count"] == "0"


def test_dist_huge_n(capsys):
    code, out, _ = run(BASE + ["-n", str(10**40)], capsys)
    assert code == 0
    doc = json.loads(out)
    total = sum(int(e["count"]) for e in doc["counts"]) + int(doc["zero_count"])
    assert total == 10**40 + 1


def test_dist_brute_method_agrees(capsys):
    _, fast_out, _ = run(BASE + ["-n", "500"], capsys)
    code, brute_out, _ = run(BASE + ["-n", "500", "--method", "brute"], capsys)
    assert code == 0
    fast, brute = json.loads(fast_out), json.loads(brute_out)
    assert brute["method"] == "brute"
    assert fast["counts"] == brute["counts"]
    assert fast["zero_count"] == brute["zero_count"]


def test_dist_csv(capsys):
    code, out, _ = run(BASE + ["-n", "1811", "--output", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "exponent,residue,count",
        "0,1,72",
        "4,2,18",
        "6,T,90",
        "zero_count,,1632",
    ]


def test_dist_table(capsys):
    code, out, _ = run(BASE + ["-n", "1811", "--output", "table"], capsys)
    assert code == 0
    assert "n = 1811" in out
    assert "prime = T^2+1   (h = 2)" in out
    assert "primitive root = T+1   group order = 8" in out
    lines = [ln.split() for ln in out.splitlines() if ln.strip()]
    assert ["0", "1", "72"] in lines
    assert ["6", "T", "90"] in lines
    assert ["zero", "1632"] in lines


def test_dist_prime_degree(capsys):
    # --prime-degree 2 picks the canonical degree-2 irreducible, T^2+1.
    code, out, _ = run(
        ["dist", "-p", "3", "--prime-degree", "2", "-n", "1811"], capsys
    )
    assert code == 0
    assert json.loads(out) == GOLDEN_1811


def test_dist_prime_degree_8_over_f2(capsys):
    # The canonical degree-8 prime is not of the form T^h + aT + b.
    argv = ["dist", "-p", "2", "--prime-degree", "8", "-n", "100"]
    code, fast, err = run(argv, capsys)
    assert code == 0 and err == ""
    code, brute, _ = run(argv + ["--method", "brute"], capsys)
    assert code == 0
    fast, brute = json.loads(fast), json.loads(brute)
    assert fast["prime"] == "T^8+T^4+T^3+T+1"
    assert fast["counts"] == brute["counts"]
    assert fast["zero_count"] == brute["zero_count"]


def test_dist_extension_field(capsys):
    code, out, _ = run(
        ["dist", "-p", "2", "-s", "2", "--prime", "T+u", "-n", "20"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["field_modulus"] == "u^2+u+1"
    assert doc["group_order"] == "3"
    total = sum(int(e["count"]) for e in doc["counts"]) + int(doc["zero_count"])
    assert total == 21


def test_check_ok(capsys):
    code, out, _ = run(["check", "-p", "3", "--prime", "T^2+1", "--max-n", "100"], capsys)
    assert code == 0
    assert out == "OK 101 cases\n"


def test_check_extension(capsys):
    code, out, _ = run(
        ["check", "-p", "2", "-s", "2", "--prime", "T+u", "--max-n", "50"], capsys
    )
    assert code == 0
    assert out == "OK 51 cases\n"


# -- exit codes -----------------------------------------------------------------


def test_exit_usage_reducible_prime(capsys):
    code, out, err = run(["dist", "-p", "3", "--prime", "T^2+2", "-n", "5"], capsys)
    assert code == 2
    assert "error:" in err


def test_exit_usage_bad_root(capsys):
    code, _, err = run(
        ["dist", "-p", "3", "--prime", "T^2+1", "--primitive-root", "2", "-n", "5"],
        capsys,
    )
    assert code == 2
    assert "not" in err  # explains the order mismatch


def test_bad_root_names_its_order(capsys):
    # One mult_order call both rejects the root and reports its order.
    for root, order in (("T", 4), ("2", 2), ("T^2+1", 0)):
        code, out, err = run(
            ["primroot", "-p", "3", "--prime", "T^2+1", "--primitive-root", root], capsys
        )
        assert (code, out) == (2, ""), root
        assert f"its order is {order}, not 8" in err, root


def test_exit_usage_bad_n(capsys):
    assert run(BASE + ["-n", "abc"], capsys)[0] == 2
    assert run(BASE + ["-n", "-5"], capsys)[0] == 2
    assert run(BASE + ["-n", "0x10"], capsys)[0] == 2
    # A long bad argument is quoted by a short prefix only.
    code, _, err = run(BASE + ["-n", "7x" * 2500], capsys)
    assert code == 2
    assert err.startswith("error: expected a decimal integer")
    assert len(err.rstrip("\n")) < 100


def test_dist_n_beyond_int_str_digit_limit(capsys, ctx9):
    # 4,301 digits is past Python's default int <-> str limit; main lifts it
    # for its own run only and puts it back afterwards.
    limit = sys.get_int_max_str_digits()
    code, out, err = run(BASE + ["-n", "1" * 4301], capsys)
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    expected = distribution((10**4301 - 1) // 9, ctx9, DigitBinomCache(ctx9))
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out) == to_json_dict(expected)
    finally:
        sys.set_int_max_str_digits(limit)


def test_exit_usage_prime_spec(capsys):
    code, _, err = run(["dist", "-p", "3", "-n", "5"], capsys)
    assert code == 2
    assert "--prime" in err
    code, _, _ = run(
        ["dist", "-p", "3", "--prime", "T^2+1", "--prime-degree", "2", "-n", "5"],
        capsys,
    )
    assert code == 2


def test_exit_usage_prime_degree_zero(capsys):
    # --prime-degree 0 is a given degree, not a missing option.
    for command in ("dist", "factorial"):
        code, out, err = run([command, "-p", "3", "--prime-degree", "0", "-n", "5"], capsys)
        assert code == 2, command
        assert out == ""
        assert "degree must be >= 1, got 0" in err


def test_exit_usage_field_modulus_on_prime_field(capsys):
    code, _, _ = run(
        ["dist", "-p", "3", "--field-modulus", "u+1", "--prime", "T^2+1", "-n", "5"],
        capsys,
    )
    assert code == 2


def test_exit_usage_field_modulus_degree(capsys):
    # Field itself refuses a modulus of the wrong degree.
    code, out, err = run(["dist", "-p", "2", "-s", "2", "--field-modulus", "u^3+u+1",
                          "--prime", "T+u", "-n", "5"], capsys)
    assert (code, out) == (2, "")
    assert "modulus must be monic of degree 2" in err


def test_exit_usage_parse_error(capsys):
    code, _, err = run(["dist", "-p", "3", "--prime", "T^2+u", "-n", "5"], capsys)
    assert code == 2
    assert "error:" in err


def test_exit_guardrail(capsys):
    code, _, err = run(
        BASE + ["-n", "1000000", "--method", "brute", "--enum-limit", "1000"], capsys
    )
    assert code == 3
    assert "exceeds" in err
    code, _, _ = run(
        ["binom", "-p", "3", "-n", str(10**9), "-m", "5", "--exact"], capsys
    )
    assert code == 3
    code, _, _ = run(["factorial", "-p", "3", "-n", str(10**9)], capsys)
    assert code == 3


def test_check_refuses_max_n_above_enum_limit_before_any_scan(capsys, monkeypatch):
    scanned = []
    real = DigitBinomCache.binom_logs
    monkeypatch.setattr(DigitBinomCache, "binom_logs",
                        lambda self, n: scanned.append(n) or real(self, n))
    argv = ["check", "-p", "3", "--prime", "T^2+1", "--enum-limit", "10", "--max-n"]
    code, out, err = run(argv + ["11"], capsys)
    assert (code, out, scanned) == (3, "", [])
    assert "brute scan of n = 11 exceeds the enumeration limit 10" in err
    code, out, _ = run(argv + ["10"], capsys)
    assert (code, out) == (0, "OK 11 cases\n")
    assert 10 in scanned


def test_factoring_guardrail_exits_3(capsys, monkeypatch):
    # 2^67 - 1 takes 13,822 Brent steps to split.
    monkeypatch.setattr(intfactor, "_RHO_BOUND", 1000)
    code, out, err = run(["primroot", "-p", "2", "--prime", "T^67+T^5+T^2+T+1"], capsys)
    assert (code, out) == (3, "")
    assert "Pollard rho steps" in err


DEGREE_64 = ["-p", "2", "--prime-degree", "64"]


@pytest.mark.parametrize("argv", [
    pytest.param(["dist"] + DEGREE_64 + ["-n", n, "--method", method], id=method + suffix)
    for n, suffix in (("5", ""), ("1", "-n1")) for method in ("fast", "brute")
] + [pytest.param(["check"] + DEGREE_64 + ["--max-n", "1"], id="check-n1")])
def test_dist_refuses_dlogs_at_degree_64(capsys, argv):
    # 2^32 baby steps are refused before any object of length 2^64 - 1, also
    # for an n with no base-q carry, which takes no discrete log.
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    assert "needs 4294967296 baby steps" in err


def test_exit_guardrail_binom_exact_edge(capsys):
    # deg 6561!_C = 52,488 over F_3: one below it exits 3, at it the answer prints.
    argv = ["binom", "-p", "3", "-n", "6561", "-m", "1", "--exact", "--degree-limit"]
    code, out, err = run(argv + ["52487"], capsys)
    assert (code, out) == (3, "")
    assert "deg 6561!_C = 52488 exceeds" in err
    code, out, _ = run(argv + ["52488"], capsys)
    assert code == 0
    assert out.startswith("T^9840+")


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["dist", "-p", "3", "--prime", "T^2+1", "-n", "5", "--method", "magic"])
    assert e.value.code == 2


# -- check -----------------------------------------------------------------------


def test_check_mismatch_exits_1(capsys, monkeypatch):
    # A wrong G_3 reaches the fast product only; check's brute scan reads the
    # base-q carries of each n, so it flags the first n that uses the digit 3.
    good = BaseTable.gpoly

    def bad_gpoly(self, d):
        return CountPoly.from_terms({0: 2, 2: 2}, 8) if d == 3 else good(self, d)

    monkeypatch.setattr(BaseTable, "gpoly", bad_gpoly)
    code, out, _ = run(
        ["check", "-p", "3", "--prime", "T^2+1", "--primitive-root", "T+1",
         "--max-n", "10"],
        capsys,
    )
    assert code == 1
    assert "MISMATCH at n = 3" in out
    assert "fast : 2 + 2x^2" in out
    assert "brute: 2 + 2x^6" in out


def test_check_catches_a_bad_digit_row(capsys, monkeypatch):
    # One wrong entry in the row of the digit 3 reaches G_3 and so the fast
    # product; the brute scan reads no row, so check flags n = 3.  (Swapping
    # two entries of a row would leave its histogram, and every census, as is.)
    good = BaseTable.row

    def bad_row(self, d):
        row = good(self, d)
        return (row[0],) + row[:1] + row[2:] if d == 3 else row

    monkeypatch.setattr(BaseTable, "row", bad_row)
    code, out, _ = run(
        ["check", "-p", "3", "--prime", "T^2+1", "--primitive-root", "T+1",
         "--max-n", "10"],
        capsys,
    )
    assert code == 1
    assert "MISMATCH at n = 3" in out
    assert "fast : 3 + x^6" in out
    assert "brute: 2 + 2x^6" in out


# -- the small arithmetic commands -----------------------------------------------


def test_binom_command(capsys):
    code, out, _ = run(["binom", "-p", "3", "--prime", "T^2+1", "-n", "3", "-m", "1"], capsys)
    assert code == 0
    assert out == "T\n"
    code, out, _ = run(["binom", "-p", "3", "-n", "3", "-m", "1", "--exact"], capsys)
    assert code == 0
    assert out == "T^3+2*T\n"
    code, out, _ = run(["binom", "-p", "3", "--prime", "T^2+1", "-n", "1", "-m", "2"], capsys)
    assert out == "0\n"


def test_factorial_command(capsys):
    code, out, _ = run(["factorial", "-p", "3", "-n", "4"], capsys)
    assert code == 0
    assert out == "T^3+2*T\n"
    code, out, _ = run(["factorial", "-p", "3", "--prime", "T^2+1", "-n", "9"], capsys)
    assert out == "0\n"
    code, out, _ = run(
        ["factorial", "-p", "3", "--prime", "T^2+1", "-n", "9", "--exact"], capsys
    )
    assert out != "0\n" and "T" in out


def test_primroot_command(capsys):
    code, out, _ = run(["primroot", "-p", "3", "--prime", "T^2+1"], capsys)
    assert code == 0
    assert out == "T+1\n"
    code, out, _ = run(
        ["primroot", "-p", "3", "--prime", "T^2+1", "--primitive-root", "2*T+1"], capsys
    )
    assert code == 0
    assert out == "2*T+1\n"
    code, _, err = run(
        ["primroot", "-p", "3", "--prime", "T^2+1", "--primitive-root", "2"], capsys
    )
    assert code == 2


def test_primroot_large_characteristic(capsys):
    # Over F_(2^61-1) the search skips the q - 1 constants and reaches T+6 at once.
    code, out, err = run(
        ["primroot", "-p", "2305843009213693951", "--prime-degree", "2"], capsys
    )
    assert (code, out, err) == (0, "T+6\n", "")


def test_irreducible_command(capsys):
    code, out, _ = run(["irreducible", "-p", "3", "--poly", "T^2+1"], capsys)
    assert code == 0 and out == "true\n"
    code, out, _ = run(["irreducible", "-p", "3", "--poly", "T^2+2"], capsys)
    assert code == 0 and out == "false\n"
    code, out, _ = run(["irreducible", "-p", "3", "--degree", "2"], capsys)
    assert code == 0 and out == "T^2+1\n"
    assert run(["irreducible", "-p", "3"], capsys)[0] == 2
    assert run(["irreducible", "-p", "3", "--poly", "T", "--degree", "1"], capsys)[0] == 2


def test_irreducible_degree_guardrail(capsys):
    # The parser refuses the degree before the Rabin test would run on it.
    code, out, err = run(["irreducible", "-p", "2", "--poly", "T^1000001+T+1"], capsys)
    assert code == 3
    assert out == ""
    assert "exceeds the exact-degree limit" in err


def test_searched_degree_guardrail(capsys):
    # A searched prime or field modulus is refused before q^h and a dense
    # candidate of h + 1 terms are built.
    for argv in (["irreducible", "-p", "2", "--degree", "1000001"],
                 ["dist", "-p", "2", "--prime-degree", "1000001", "-n", "5"],
                 ["irreducible", "-p", "2", "-s", "1000001", "--degree", "1"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (3, ""), argv
        assert "exceeds the exact-degree limit" in err


def test_irreducible_large_prime(capsys):
    # p = 4294967311 > 2^32; sympy 1.14 verified this cubic irreducible offline.
    code, out, _ = run(["irreducible", "-p", "4294967311", "--poly",
                        "T^3+486215926*T^2+3869338171*T+2787324501"], capsys)
    assert code == 0 and out == "true\n"


def test_internal_error_exits_4(capsys, monkeypatch):
    def broken(args, out):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "primroot", broken)
    code, out, err = run(["primroot", "-p", "3", "--prime", "T^2+1"], capsys)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_import_does_not_load_numpy():
    src = str(Path(carlitz.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, carlitz.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_skips_dataclasses_typing_json():
    # -S keeps site's own imports out, so only carlitz.cli's imports count.
    src = str(Path(carlitz.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, carlitz.cli; "
         "print(sorted({'dataclasses', 'typing', 'json'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_installed_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "carlitz.cli"] + BASE + ["-n", "1811"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == GOLDEN_1811
