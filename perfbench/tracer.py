"""Span tracer that wraps polycert's public functions from outside the package.

Each polycert module is one layer.  Installing a Tracer replaces every public
module-level function of the layers, and ``Polynomial.evaluate``, by a
wrapper at every place the function object is bound: its defining module,
every polycert module that imported it, and the package namespace.  Callers
that look functions up through a module therefore reach the wrapper.

A call opens a frame on a stack.  When it returns, its duration is added to
the enclosing frame's child time, and its self time is the duration minus the
time its child calls cover.  Calls of functions in ``HOT`` are counted and
timed but leave no span record; every other call also records a span
(name, start, end, parent) in memory, up to ``max_spans``.  Calls of
functions in ``COUNTED`` are only counted: they cost about as much as a
timing wrapper, so their time stays with their caller.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("poly", "rounding", "sectors", "lens", "arith", "certify", "cli")

# Called often enough that a span per call would dominate memory.
HOT = frozenset({"poly.Polynomial.evaluate", "arith.is_prime",
                 "arith.p_adic_valuation", "rounding.enclose_max",
                 "rounding.enclose_min"})
# Integer k-th root: ~10^6 calls of a few microseconds each on planted_sweep.
COUNTED = frozenset({"rounding.iroot"})

TRIG = ("rounding.pi_bounds", "rounding.sin_pi_frac", "rounding.tan_pi_frac",
        "rounding.cot_pi_frac", "rounding.arctan_bounds", "rounding.trig_bounds")
RADICAL = ("rounding.nth_root_bounds", "rounding.root_of_enclosure",
           "rounding.pow_upper")
INTERVALS = ("lens.interval_disk_in_lens", "lens.interval_cot",
             "lens.interval_effective")
ATTEMPTS = ("certify.certify_lens_report", "certify.certify_sector_pq_report",
            "certify.certify_sector_prime_power_report",
            "certify.certify_combined_report")


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and callable(value) and not isinstance(value, type)
                and getattr(value, "__module__", None) == module.__name__):
            yield attr, value


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)  # outcome counters: witness ok, ...
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped_spans = 0
        self._frames: list[list] = []  # [start, child_time, span_id]
        self._wrappers: dict[int, tuple] = {}  # id(function) -> (function, wrapper)
        self._saved: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _wrapper(self, name: str, fn):
        if name in COUNTED:
            return self._counter(name, fn)
        clock = time.perf_counter
        frames = self._frames
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        hot = name in HOT
        name_id = len(self.names)
        self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            parent = frames[-1][2] if frames else -1
            span = parent
            if not hot:
                if len(starts) < tracer.max_spans:
                    span = len(starts)
                    names.append(name_id)
                    parents.append(parent)
                    starts.append(0.0)
                    ends.append(0.0)
                else:
                    tracer.dropped_spans += 1
            frame = [clock(), 0.0, span]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(tracer.counts, None, exc)
                raise
            finally:
                end = clock()
                frames.pop()
                dur = end - frame[0]
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if frames:
                    frames[-1][1] += dur
                if span != parent:
                    starts[span] = frame[0]
                    ends[span] = end
            if observe is not None:
                observe(tracer.counts, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of the layers wherever it is bound.
        Wrappers are made on the first install and reused afterwards."""
        from polycert.poly import Polynomial

        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"polycert.{layer}")
                for attr, fn in _public_functions(module):
                    self._wrappers[id(fn)] = (fn, self._wrapper(f"{layer}.{attr}", fn))
            evaluate = Polynomial.evaluate
            self._wrappers[id(evaluate)] = (
                evaluate, self._wrapper("poly.Polynomial.evaluate", evaluate))
        sites = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == "polycert" or n.startswith("polycert."))]
        for owner in [*sites, Polynomial]:
            for attr, value in list(vars(owner).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "dropped": self.dropped_spans,
                       "fields": ["name", "parent", "start", "end"],
                       "spans": [[self.span_name[i], self.span_parent[i],
                                  round(self.span_start[i], 7), round(self.span_end[i], 7)]
                                 for i in range(len(self.span_start))]}, fh)
            fh.write("\n")


def merge(into: dict, agg: dict) -> None:
    """Add one aggregates() dict into another (CLI children into the parent)."""
    for key in ("calls", "self_s", "total_s", "counts"):
        bucket = into.setdefault(key, {})
        for name, value in agg.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value


# -- outcome observers ----------------------------------------------------------


def _witness(counts, result, exc):
    if exc is None and result[0] is not None:
        counts["arith.witness.ok"] += 1


def _interval(counts, result, exc):
    if exc is not None and "not provably below" in str(exc):
        counts["lens.interval.rejected"] += 1


def _attempt(counts, result, exc):
    if exc is None and result[0] is not None:
        counts["certify.certificates"] += 1


_OBSERVERS = {"arith.extract_witness_report": _witness,
              **{name: _interval for name in INTERVALS},
              **{name: _attempt for name in ATTEMPTS}}


# -- per-layer metrics -----------------------------------------------------------

def _sum(bucket: dict, names) -> float:
    return sum(bucket.get(n, 0) for n in names)


def _layer_sum(bucket: dict, layer: str) -> float:
    return sum(v for n, v in bucket.items() if n.startswith(layer + "."))


def layer_metrics(agg: dict, polys: int) -> dict:
    """Per-layer metric values from merged aggregates; ``polys`` is the number
    of polynomials the traced ops certified."""
    calls, self_s = agg.get("calls", {}), agg.get("self_s", {})
    total_s, counts = agg.get("total_s", {}), agg.get("counts", {})
    witness_calls = calls.get("arith.extract_witness_report", 0)
    attempts = _sum(calls, ATTEMPTS)
    regions = (calls.get("sectors.best_sector", 0) + calls.get("lens.lens_of", 0)
               + _sum(calls, INTERVALS))
    rational_root_calls = calls.get("arith.has_rational_root", 0)
    return {
        "poly.evaluate.calls": calls.get("poly.Polynomial.evaluate", 0),
        "poly.evaluate.self_s": self_s.get("poly.Polynomial.evaluate", 0.0),
        "poly.self_s": _layer_sum(self_s, "poly"),
        "rounding.trig.calls": _sum(calls, TRIG),
        "rounding.trig.self_s": _sum(self_s, TRIG),
        "rounding.radical.calls": _sum(calls, RADICAL),
        "rounding.radical.self_s": _sum(self_s, RADICAL),
        "rounding.iroot.calls": calls.get("rounding.iroot", 0),
        "rounding.self_s": _layer_sum(self_s, "rounding"),
        "sectors.best_sector.calls": calls.get("sectors.best_sector", 0),
        "sectors.self_s": _layer_sum(self_s, "sectors"),
        "lens.lens_of.calls": calls.get("lens.lens_of", 0),
        "lens.interval.calls": _sum(calls, INTERVALS),
        "lens.interval.rejected": counts.get("lens.interval.rejected", 0),
        "lens.self_s": _layer_sum(self_s, "lens"),
        "arith.witness.calls": witness_calls,
        "arith.witness.ok_ratio": (counts.get("arith.witness.ok", 0) / witness_calls
                                   if witness_calls else 0.0),
        "arith.witness.self_s": self_s.get("arith.extract_witness_report", 0.0),
        "arith.is_prime.calls": calls.get("arith.is_prime", 0),
        "arith.is_prime.self_s": self_s.get("arith.is_prime", 0.0),
        "arith.prime_power.self_s": self_s.get("arith.prime_power_decomposition", 0.0),
        "arith.sieve.calls": calls.get("arith.primes_up_to", 0),
        "arith.sieve.self_s": self_s.get("arith.primes_up_to", 0.0),
        "arith.rational_root.calls": rational_root_calls,
        "arith.rational_root.self_s": self_s.get("arith.has_rational_root", 0.0),
        "arith.rational_root.total_s": total_s.get("arith.has_rational_root", 0.0),
        "arith.self_s": _layer_sum(self_s, "arith"),
        "certify.attempts": attempts,
        "certify.certificates": counts.get("certify.certificates", 0),
        "certify.self_s": _layer_sum(self_s, "certify"),
        "certify.verify.calls": calls.get("certify.certificate_verify", 0),
        "certify.verify.self_s": self_s.get("certify.certificate_verify", 0.0),
        "certify.regions_per_attempt": regions / attempts if attempts else 0.0,
        "certify.rational_root_per_poly": rational_root_calls / polys if polys else 0.0,
        "cli.main.self_s": self_s.get("cli.main", 0.0),
    }
