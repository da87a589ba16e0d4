"""One round of a workload, in a fresh interpreter.

    python3 perfbench/rounds.py --workload NAME --seed N --mode MODE

MODE is one of
    timed    run the round's operations as a user would (the cli workload
             starts one `python -m carlitz.cli` child per request);
    inproc   run them in this process (cli requests through carlitz.cli.main);
    traced   as inproc, with the span recorder of tracer.py switched on.

Each round runs in its own interpreter, so nothing that carlitz caches in a
process (the factorial lru_cache, for one) carries over from one round to
the next.  The first line of stdout is "ready", printed once carlitz.cli is
imported and the inputs are built: the set-up the parent times.  The last
line of stdout is one JSON object: per-operation
latencies, the answers in plain JSON, failed operations, the peak resident
set size (of this process, or of the largest CLI child), and the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import carlitz  # noqa: E402
import carlitz.cli  # noqa: E402

import workloads  # noqa: E402


def _main_inproc(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = carlitz.cli.main(list(argv))
    return {"rc": rc, "stdout": out.getvalue()}


def _cli_child(argv, env):
    proc = subprocess.run([sys.executable, "-m", "carlitz.cli", *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    return {"rc": proc.returncode, "stdout": proc.stdout}


def _census(spec):
    field = carlitz.Field(spec["p"], spec["s"])
    ctx = carlitz.ResidueCtx(carlitz.parse_poly(spec["prime"], field))
    cache = carlitz.DigitBinomCache(ctx)
    return carlitz.distribution(spec["n"], ctx, cache)


def _census_json(dist):
    return {"root": str(dist.ctx.primitive_root),
            "counts": {str(j): str(c) for j, c in dist.nonzero_items()},
            "zero": str(dist.zero_count)}


def _exact(spec):
    # Looked up at call time, so the traced run sees the recorder's wrapper.
    return carlitz.binom_exact(spec["n"], spec["m"], carlitz.Field(spec["p"]))


def _check_samples(spec):
    """The brute census behind a `check` verdict, for a few n, outside timing."""
    field = carlitz.Field(spec["p"], spec["s"])
    root = spec["argv"][spec["argv"].index("--primitive-root") + 1]
    ctx = carlitz.ResidueCtx(carlitz.parse_poly(spec["prime"], field),
                             primitive_root=carlitz.parse_poly(root, field))
    cache = carlitz.DigitBinomCache(ctx)
    return {str(n): _census_json(carlitz.distribution(n, ctx, cache, method="brute"))
            for n in spec["samples"]}


def operation(name, mode, env):
    """(run, to_json) for one workload: run(spec) is the timed call, and
    to_json(spec, answer) turns its answer into plain JSON afterwards."""
    if name == "cli":
        if mode == "timed":
            return (lambda spec: _cli_child(spec["argv"], env)), (lambda spec, a: a)
        return (lambda spec: _main_inproc(spec["argv"])), (lambda spec, a: a)
    if name == "census-wide":
        return _census, (lambda spec, a: _census_json(a))
    if name == "check":
        return ((lambda spec: _main_inproc(spec["argv"])),
                (lambda spec, a: dict(a, samples=_check_samples(spec))))
    if name == "exact":
        return _exact, (lambda spec, a: str(a))
    raise ValueError(name)


def run_round(name, seed, mode):
    env = workloads.child_env(ROOT)
    specs = workloads.inputs(name, seed)
    print("ready", flush=True)
    run, to_json = operation(name, mode, env)
    recorder = None
    if mode == "traced":
        import tracer
        recorder = tracer.Recorder()
        recorder.install()
    latencies, answers, failed = [], [], []
    for i, spec in enumerate(specs):
        if recorder:
            recorder.enabled = True
        t0 = time.perf_counter()
        try:
            answer = run(spec)
        except Exception as exc:  # counted, not fatal: the parent reports it
            failed.append([i, f"{type(exc).__name__}: {exc}"])
            answers.append(None)
            continue
        finally:
            dt = time.perf_counter() - t0
            if recorder:
                recorder.enabled = False
        if name == "cli" and answer["rc"] != 0:
            failed.append([i, f"exit code {answer['rc']}"])
            answers.append(None)
            continue
        latencies.append(dt)
        answers.append(to_json(spec, answer))
    who = resource.RUSAGE_CHILDREN if mode == "timed" and name == "cli" else resource.RUSAGE_SELF
    rss_kib = resource.getrusage(who).ru_maxrss
    if recorder:
        recorder.uninstall()
    return {"latencies_s": latencies, "answers": answers, "failed": failed,
            "rss_kib": rss_kib, "spans": recorder.summary() if recorder else None}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "inproc", "traced"))
    args = ap.parse_args()
    print(json.dumps(run_round(args.workload, args.seed, args.mode)), flush=True)


if __name__ == "__main__":
    main()
