"""Span recorder for the traced run.

It wraps carlitz's layer functions from outside the package: each wrapper
times its call with perf_counter_ns, and a stack of child totals turns the
spans into self time (a span minus the spans it caused).  Spans are folded
into per-layer totals in memory as they end; nothing is written until the
round finishes.  A target that a future carlitz no longer has is skipped,
and its metrics read 0.

Field arithmetic (gf) and words are not wrapped: their calls are too
fine-grained to time without mostly timing the wrapper.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, class or None, attribute, span name)
TARGETS = [
    ("carlitz.residue", "ResidueCtx", "__init__", "residue.ctx"),
    ("carlitz.residue", "ResidueCtx", "dlog", "residue.dlog"),
    ("carlitz.binom", "DigitBinomCache", "__init__", "binom.cache_init"),
    ("carlitz.binom", "DigitBinomCache", "digit_binom", "binom.digit_binom"),
    ("carlitz.dist", "BaseTable", "row", "dist.row"),
    ("carlitz.dist", "BaseTable", "gpoly", "dist.gpoly"),
    ("carlitz.dist", "CountPoly", "__mul__", "dist.countpoly_mul"),
    ("carlitz.dist", "CountPoly", "__pow__", "dist.countpoly_pow"),
    ("carlitz.dist", None, "distribution_brute", "dist.brute"),
    ("carlitz.binom", None, "factorial_exact", "binom.factorial_exact"),
    ("carlitz.binom", None, "d_poly", "binom.d_poly"),
    ("carlitz.binom", None, "binom_exact", "binom.binom_exact"),
    ("carlitz.polyring", "Poly", "__mul__", "polyring.mul"),
    ("carlitz.polyring", "Poly", "__divmod__", "polyring.divmod"),
]

_SEEN = "_perfbench_seen"


def _first_time(obj, key):
    """True the first time `key` is seen on this object (memo reuse counts)."""
    try:
        seen = obj.__dict__.setdefault(_SEEN, set())
    except AttributeError:
        return False
    if key in seen:
        return False
    seen.add(key)
    return True


def _extra(span, args):
    """Extra counters recorded at the same boundary as the span."""
    if span == "binom.digit_binom" and _first_time(args[0], ("digit_binom",) + tuple(args[1:3])):
        return "binom.digit_binom_distinct", 1
    if span == "dist.row" and _first_time(args[0], ("row", args[1])):
        return "dist.row_builds", 1
    if span == "dist.gpoly" and _first_time(args[0], ("gpoly", args[1])):
        return "dist.gpoly_builds", 1
    if span == "dist.brute":
        return "dist.brute_m_scanned", args[0] + 1
    return None


class Recorder:
    def __init__(self):
        self.enabled = False
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = [0]
        self._undo = []

    def _wrap(self, fn, span):
        rec = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec.self_ns[span] += dt - child
                rec.calls[span] += 1
                extra = _extra(span, args)
                if extra:
                    rec.counters[extra[0]] += extra[1]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def install(self):
        import carlitz

        for modname, clsname, attr, span in TARGETS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                continue
            owner = getattr(mod, clsname, None) if clsname else mod
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            wrapped = self._wrap(fn, span)
            holders = [owner]
            if clsname is None and getattr(carlitz, attr, None) is fn:
                holders.append(carlitz)  # the package re-exports the function
            for holder in holders:
                self._undo.append((holder, attr, holder.__dict__.get(attr, fn)))
                setattr(holder, attr, wrapped)

    def uninstall(self):
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def summary(self):
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "counters": dict(self.counters)}


# Per-layer metrics of the traced run: name -> (unit, how to read it from the
# summed summaries).  Self times are in seconds, counts are exact.
def layer_metrics(summary):
    s = lambda *spans: sum(summary["self_ns"].get(x, 0) for x in spans) / 1e9
    c = lambda span: summary["calls"].get(span, 0)
    k = lambda name: summary["counters"].get(name, 0)
    return {
        "residue.ctx_s": (s("residue.ctx"), "s"),
        "residue.ctx_calls": (c("residue.ctx"), "count"),
        "residue.dlog_s": (s("residue.dlog"), "s"),
        "residue.dlog_calls": (c("residue.dlog"), "count"),
        "binom.cache_init_s": (s("binom.cache_init"), "s"),
        "binom.digit_binom_s": (s("binom.digit_binom"), "s"),
        "binom.digit_binom_calls": (c("binom.digit_binom"), "count"),
        "binom.digit_binom_distinct": (k("binom.digit_binom_distinct"), "count"),
        "dist.row_s": (s("dist.row"), "s"),
        "dist.row_builds": (k("dist.row_builds"), "count"),
        "dist.gpoly_s": (s("dist.gpoly"), "s"),
        "dist.gpoly_builds": (k("dist.gpoly_builds"), "count"),
        "dist.countpoly_mul_s": (s("dist.countpoly_mul", "dist.countpoly_pow"), "s"),
        "dist.countpoly_mul_calls": (c("dist.countpoly_mul"), "count"),
        "dist.brute_s": (s("dist.brute"), "s"),
        "dist.brute_m_scanned": (k("dist.brute_m_scanned"), "count"),
        "binom.factorial_exact_s": (s("binom.factorial_exact"), "s"),
        "binom.factorial_exact_calls": (c("binom.factorial_exact"), "count"),
        "binom.d_poly_s": (s("binom.d_poly"), "s"),
        "binom.binom_exact_s": (s("binom.binom_exact"), "s"),
        "polyring.mul_s": (s("polyring.mul"), "s"),
        "polyring.mul_calls": (c("polyring.mul"), "count"),
        "polyring.divmod_s": (s("polyring.divmod"), "s"),
        "polyring.divmod_calls": (c("polyring.divmod"), "count"),
    }
