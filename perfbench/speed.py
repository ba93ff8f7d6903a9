"""The machine-speed probe that the gated operation times are normalised with.

A vCPU of a shared host can run this benchmark 1.5 to 1.7 times slower for
a while, presumably while another tenant runs on its sibling hardware
thread.  That state switches within 0.1 to a few seconds, on each vCPU on its
own.  Wall times of 30 s
runs then differ between runs by 15-25% whatever polycert does.

So the run pins itself, and every child it starts, to one vCPU and times a
fixed reference computation (``reference``, about 1 ms, code of its own that
shares nothing with polycert) between operations, at least every
``GAP_S``.  An operation's normalised time is its wall time times
``REFERENCE_S`` / the mean of the probe just before it and the probe just
after it: the time it would take on a machine on which the reference takes
``REFERENCE_S``.  A CLI operation lasts long enough for the state to switch
while it runs, so its child process probes itself every ``SAMPLE_S``
(``Sampler``); its time less those probes is scaled by the mean of
``REFERENCE_S`` / probe.  polycert cannot change the reference, so the
normalised times move with polycert's own work only.
"""
from __future__ import annotations

import gc
import os
import signal
import time
from fractions import Fraction

# The reference's time on the machine the baseline was measured on (2 vCPU
# Firecracker VM, Python 3.11.7) while its vCPU ran unshared.
REFERENCE_S = 0.001
# Most time between two probes that operations may take, unless one
# operation alone takes longer.
GAP_S = 0.025
# Time between the probes a child process takes of itself.
SAMPLE_S = 0.02

_BIG = 3**200 + 12345


def reference() -> int:
    """About 1 ms of the interpreter work polycert does: big-integer
    remainders, Fraction sums, a bytearray sieve, dict stores."""
    acc = 0
    for p in range(3, 2500, 2):
        acc += _BIG % p
    s = Fraction(0)
    for i in range(1, 95):
        s += Fraction(1, i)
    flags = bytearray(b"\x01") * 16001
    for p in range(2, 127):
        if flags[p]:
            flags[p * p::p] = b"\x00" * len(range(p * p, 16001, p))
    acc += sum(1 for v in flags if v)
    d = {}
    for i in range(1700):
        d[i * 7919 % 1009] = i
    return acc + len(d) + s.denominator % 7


def timed_reference() -> float:
    """Seconds the reference takes now; garbage collection is held off."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


def probe() -> float:
    """The lower of two reference timings: one that a context switch
    interrupted reads slow."""
    return min(timed_reference(), timed_reference())


def pin_to_one_cpu() -> int:
    """Pin this process, and so the children it starts, to one vCPU, on
    which the probe and the timed work then both run."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speed:
    """Probes between operations, and the normalisation of their times.

    ``before_op`` runs a probe when ``GAP_S`` has passed since the last
    one; ``op`` queues an operation's wall time; ``probe`` closes the queue:
    every queued time is scaled by the probes on either side of it, or by a
    child's own probes, and handed to ``sink(tag, normalised, raw)``."""

    def __init__(self, sink):
        self.sink = sink
        self.last = None         # duration of the latest probe
        self.last_end = 0.0
        self.pending = []        # (tag, wall s, child's probes) since the last probe
        self.probes = 0
        self.probe_sum = 0.0

    def probe(self) -> None:
        best = probe()
        before = self.last if self.last is not None else best
        factor = REFERENCE_S / ((before + best) / 2)
        for tag, raw, own in self.pending:
            if own is None:
                self.sink(tag, raw * factor, raw)
            else:
                self.sink(tag, (raw - own["probe_s"]) * own["factor"], raw)
        self.pending.clear()
        self.last, self.last_end = best, time.perf_counter()
        self.probes += 1
        self.probe_sum += best

    def before_op(self) -> None:
        if self.last is None or time.perf_counter() - self.last_end >= GAP_S:
            self.probe()

    def op(self, tag, raw: float, own: dict | None = None) -> None:
        """Queue an operation's wall time; ``own`` is a child's
        ``Sampler.result()``, used when the child took a probe."""
        self.pending.append((tag, raw, own if own and own["probes"] else None))

    def mean_probe_s(self) -> float:
        return self.probe_sum / self.probes if self.probes else 0.0


class Sampler:
    """Probes this process every ``SAMPLE_S`` of wall time from a SIGALRM
    handler while it runs other code."""

    def __init__(self):
        self.probes = 0
        self.probe_s = 0.0
        self.inverse_sum = 0.0

    def _on_alarm(self, signum, frame):
        took = timed_reference()
        self.probes += 1
        self.probe_s += took
        self.inverse_sum += REFERENCE_S / took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def result(self) -> dict:
        """The probes' count and time, and the factor that scales the
        process's time less the probes to normalised time."""
        return {"probes": self.probes, "probe_s": self.probe_s,
                "factor": self.inverse_sum / self.probes if self.probes else 0.0}
