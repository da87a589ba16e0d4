"""The carlitz benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a carlitz checkout.  Workloads: cli, census-wide,
check, exact (see README.md).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 measures the end-to-end metrics: whole rounds, each in a fresh
interpreter, until the operations have taken S seconds.  Set-up time is the
median, over all rounds but the first, of spawn to the round's "ready" (its
imports plus input generation).  --trace 1 reports per-layer metrics
instead, from two pairs of rounds (one untraced, one traced) plus the CLI
start-up probes.  Every answer is checked against oracle.py before the
result is printed; a full copy of the result goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

TRACE_PAIRS = 2
FLOOR_PROBES = 5
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def run_round(args, mode, workload=None):
    """One round in a fresh interpreter: (its result, seconds from spawn to
    its "ready", i.e. imports plus input generation)."""
    cmd = [sys.executable, os.path.join(HERE, "rounds.py"), "--workload",
           workload or args.workload, "--seed", str(args.seed), "--mode", mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=workloads.child_env(ROOT), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"round process failed ({mode}) with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), ready_s


def spawn_ms(code):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=workloads.child_env(ROOT), cwd=ROOT, check=True,
                   capture_output=True, timeout=60)
    return (time.perf_counter() - t0) * 1000


def check_answers(name, specs, rounds):
    """Every round must give the same answers, and the first round's answers
    must pass the oracle.  Returns a list of problems (empty when correct)."""
    problems = []
    first = rounds[0]["answers"]
    for r in rounds[1:]:
        for i, (a, b) in enumerate(zip(first, r["answers"])):
            if a is not None and b is not None and a != b:
                problems.append(f"op {i}: answer differs between rounds")
    for i, (spec, answer) in enumerate(zip(specs, first)):
        if answer is None:
            continue
        try:
            verify.check(name, spec, answer)
        except (oracle.Mismatch, ValueError, KeyError, IndexError) as exc:
            problems.append(f"op {i} {spec.get('argv', spec)}: {exc}"[:2000])
    return problems


def measure(args):
    rounds, setups, busy = [], [], 0.0
    while busy < args.seconds:
        r, ready_s = run_round(args, "timed")
        rounds.append(r)
        setups.append(ready_s)
        busy += sum(r["latencies_s"])
        if not r["latencies_s"]:
            break  # every operation failed: nothing to time
    setups = setups[1:] or setups  # the first interpreter may compile bytecode
    lat = [x for r in rounds for x in r["latencies_s"]]
    metrics = {
        "ops_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000 if lat else 0.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (max(r["rss_kib"] for r in rounds) / 1024, "MiB"),
    }
    detail = {"setup_s": setups, "rounds": len(rounds), "latencies_s": lat}
    return rounds, metrics, detail


def measure_traced(args):
    floor = statistics.median(spawn_ms("pass") for _ in range(FLOOR_PROBES))
    imp = statistics.median(spawn_ms("import carlitz.cli") for _ in range(FLOOR_PROBES))
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_round(args, "inproc")[0])
        traced.append(run_round(args, "traced")[0])
    if args.workload == "cli":
        cli_rounds, problems = plain, []
    else:  # cli.main_ms comes from the cli requests on every workload
        cli_rounds = [run_round(args, "inproc", "cli")[0]]
        problems = check_answers("cli", workloads.inputs("cli", args.seed), cli_rounds)
    main_lat = [x for r in cli_rounds for x in r["latencies_s"]]
    summary = {"self_ns": {}, "calls": {}, "counters": {}}
    for r in traced:
        for part, values in r["spans"].items():
            for k, v in values.items():
                summary[part][k] = summary[part].get(k, 0) + v
    t_plain = sum(x for r in plain for x in r["latencies_s"])
    t_traced = sum(x for r in traced for x in r["latencies_s"])
    metrics = {
        "cli.interpreter_ms": (floor, "ms"),
        "cli.import_ms": (imp - floor, "ms"),
        "cli.main_ms": (statistics.median(main_lat) * 1000 if main_lat else 0.0, "ms"),
    }
    metrics.update(tracer.layer_metrics(summary))
    metrics["trace.overhead_pct"] = ((t_traced / t_plain - 1) * 100 if t_plain else 0.0, "%")
    detail = {"spans": summary, "untraced_s": t_plain, "traced_s": t_traced,
              "problems": problems}
    return plain + traced, metrics, detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "carlitz", "cli.py")):
        sys.exit(f"error: no carlitz sources under {os.path.join(ROOT, 'src')}")

    rounds, metrics, detail = (measure_traced if args.trace else measure)(args)
    problems = detail.pop("problems", [])
    problems += check_answers(args.workload, workloads.inputs(args.workload, args.seed), rounds)
    attempted = sum(len(r["answers"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    for r in rounds[:1]:
        for i, why in r["failed"]:
            sys.stderr.write(f"failed op {i}: {why}\n")
    for p in problems:
        sys.stderr.write(f"WRONG: {p}\n")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, "detail": detail,
                   "problems": problems}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
