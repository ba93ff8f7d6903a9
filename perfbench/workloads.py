"""The four benchmark workloads: seeded input generators, the timed operations,
and the known-answer checks kept outside the timed operations.

Every workload runs in rounds.  A round is a fixed-size batch of operations
whose inputs come from ``random.Random(f"{name}/{seed}/{round}")``, so the
same seed always gives the same inputs.  polycert only ever sees the
generated polynomials and arguments.

Operations are closed loop, one at a time.  An in-process operation runs
under a SIGALRM time limit; a CLI operation runs under a subprocess timeout.
A failed operation (raised, timed out, unexpected exit code) is counted, is
logged with its input, seed and reason, and enters the percentiles at the
time limit.
"""
from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import polycert
from polycert import arith, certify, oracles
from polycert.poly import Polynomial
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

IN_PROCESS_LIMIT_S = 30.0
CLI_LIMIT_S = 120.0
# Certified polynomials kept for the brute-force cross-check: the first ones
# of the run, so the harness's memory does not grow with the run's throughput.
ORACLE_POOL = 24


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no polycert handler swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


class Recorder:
    """Timings, failures and verdict accounting of one run."""

    def __init__(self, workload: str, seed: int, limit_s: float):
        self.workload, self.seed, self.limit_s = workload, seed, limit_s
        # Normalised op times (see speed.py), 8 bytes per op: a list of
        # floats would cost 32 and add to peak_rss_mb.
        self.times = {"certify": array("d"), "verify": array("d")}
        self.attempted = self.failed = 0
        self.polys = self.certified = 0
        self.wrong = 0          # wrong verdicts
        self.mismatches = 0     # other known-answer mismatches
        self.round_index = 0
        # Time spent in the current round's timed ops, normalised and wall.
        self.round_norm = self.round_raw = 0.0
        self.oracle_pool: list[Polynomial] = []
        self.speed = Speed(self._record)
        signal.signal(signal.SIGALRM, _on_alarm)

    def log(self, what: str, detail: str) -> None:
        print(f"{what}: workload={self.workload} seed={self.seed} "
              f"round={self.round_index} {detail}", file=sys.stderr)

    def timed(self, kind: str, describe: str, fn, *args):
        """Run one in-process op under the time limit; (ok, result)."""
        self.speed.before_op()
        start = time.perf_counter()
        reason = None
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit_s)
            try:
                result = fn(*args)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            result, reason = None, f"exceeded the {self.limit_s:g} s limit"
        except Exception as exc:  # an op that raises is a failure, not a crash
            result = None
            reason = "raised " + "".join(traceback.format_exception(exc)).strip()
        return self._account(kind, describe, start, reason), result

    def timed_process(self, kind: str, describe: str, cmd: list[str],
                      speed_file: Path | None = None):
        """Run one CLI child process under the time limit; (ok, exit code,
        stdout).  Exit codes 0 and 1 are verdicts; any other code fails.
        A child started through ``launch.py --speed`` leaves its own probes
        in ``speed_file``."""
        self.speed.before_op()
        start = time.perf_counter()
        reason, code, out = None, None, ""
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                                  timeout=self.limit_s, cwd=ROOT)
            code, out = proc.returncode, proc.stdout
            if code not in (0, 1):
                reason = f"exit code {code}: {proc.stderr.strip()[-300:]}"
        except subprocess.TimeoutExpired:
            reason = f"exceeded the {self.limit_s:g} s limit"
        own = None
        if speed_file is not None and speed_file.exists():
            own = json.loads(speed_file.read_text(encoding="utf-8"))
            speed_file.unlink()
        return self._account(kind, describe, start, reason, own), code, out

    def _account(self, kind, describe, start, reason, own=None) -> bool:
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            elapsed = max(elapsed, self.limit_s)
            self.log("FAILED", f"op={kind} input={describe} reason={reason}")
        self.speed.op((kind, reason is not None), elapsed, own)
        return reason is None

    def _record(self, tag, normalised: float, raw: float) -> None:
        kind, failed = tag
        if failed:  # a failed op counts at the limit, never as fast
            normalised = max(normalised, self.limit_s)
        self.times[kind].append(normalised)
        self.round_norm += normalised
        self.round_raw += raw

    def end_round(self) -> tuple[float, float]:
        """Normalise the round's last ops; (normalised, wall) time of the
        round's timed ops."""
        self.speed.probe()
        return self.round_norm, self.round_raw

    def wrong_verdict(self, detail: str) -> None:
        self.wrong += 1
        self.log("WRONG VERDICT", detail)

    def mismatch(self, detail: str) -> None:
        self.mismatches += 1
        self.log("KNOWN-ANSWER MISMATCH", detail)

    def keep_for_oracle(self, f: Polynomial) -> None:
        if len(self.oracle_pool) < ORACLE_POOL:
            self.oracle_pool.append(f)


# -- generators -------------------------------------------------------------------


def random_polynomial(rng: random.Random, min_deg: int, max_deg: int,
                      bound: int) -> Polynomial:
    """Random integer polynomial with a positive leading coefficient (the
    generator of the acceptance tests)."""
    n = rng.randint(min_deg, max_deg)
    coeffs = [rng.randint(-bound, bound) for _ in range(n)]
    coeffs.append(rng.randint(1, bound))
    return Polynomial(coeffs)


def planted_product(rng: random.Random, dg: int, dh: int) -> Polynomial:
    """g*h with deg g = dg and deg h = dh, coefficients at most 10 in absolute
    value: the acceptance-5 generator with the degrees given."""
    return random_polynomial(rng, dg, dg, 10) * random_polynomial(rng, dh, dh, 10)


# The acceptance-5 generator picks dg in 1..4, then dh in 1..min(4, 8 - dg),
# so each of these 16 pairs is equally likely.
PLANTED_DEGREES = [(dg, dh) for dg in range(1, 5) for dh in range(1, 5)]


def quartic_reciprocal(rng: random.Random) -> Polynomial:
    """X^4 - a*X^3 + b with b > 216a and f(3) = 81 - 27a + b prime."""
    a = rng.randint(1, 40)
    b = 216 * a + rng.randint(0, 10**4)
    while True:
        b += 1
        if arith.is_prime(81 - 27 * a + b).is_prime:
            return Polynomial([b, 0, 0, -a, 1])


def prime_digit_polynomial(rng: random.Random, degree: int) -> Polynomial:
    """Base-10 digit polynomial of a random prime with degree + 1 digits."""
    while True:
        p = arith.next_prime(rng.randrange(10**degree, 10**(degree + 1)))
        if p < 10**(degree + 1):
            return Polynomial([int(d) for d in reversed(str(p))])


VALUE_SHIFT_BASES = ("X^2+X+1", "X^3+2*X+1", "X^2+3", "X^4+X+1", "X^3+X^2+2")


def value_shift(rng: random.Random, base: str, m: int) -> Polynomial:
    """g = f + p^2 - f(m) for a prime p above f'(m): g(m) = p^2."""
    f = polycert.parse_polynomial(base)
    p = arith.next_prime(max(f.derivative().evaluate(m) + 1, rng.randrange(2, 10**4)))
    return f + (p**2 - f.evaluate(m))


def witness_polynomial(rng: random.Random, degree: int) -> Polynomial:
    """Coefficients up to 10^12 in absolute value, a_0 != 0."""
    f = random_polynomial(rng, degree, degree, 10**12)
    if f.coefficient(0) == 0:
        f = f + 1
    return f


def planted_witness(rng: random.Random, degree: int) -> tuple[Polynomial, int]:
    """(f, m) with coefficients up to 10^12 and f(m) = p*q, p prime and q one of
    2, 3, 5, 7, at a seeded m in 30..50.  a_n >= 10^11 keeps the roots within
    11 of 0 and f(m) positive, so m usually lies beyond vertex + q/sin(pi/n)
    and the certificate is thm31_pq (300 of 300 in a seeded trial)."""
    coeffs = [rng.randint(-10**12, 10**12) for _ in range(degree)]
    coeffs.append(rng.randint(10**11, 10**12))
    h = Polynomial(coeffs)
    m = rng.randint(30, 50)
    q = rng.choice((2, 3, 5, 7))
    p = arith.next_prime(h.evaluate(m) // q + 1)
    return h + (p * q - h.evaluate(m)), m


def semiprime_polynomial(rng: random.Random) -> Polynomial:
    """A witness-heavy quartic whose constant term is a product of two
    ~19-digit primes."""
    p = arith.next_prime(rng.randrange(10**18, 10**19))
    q = arith.next_prime(rng.randrange(10**18, 10**19))
    f = random_polynomial(rng, 4, 4, 10**12)
    return f + (p * q - f.coefficient(0))


# -- workloads ---------------------------------------------------------------------


class Workload:
    """One workload.  ``inputs`` generates a round (untimed, untraced);
    ``run_round`` runs its timed operations and known-answer checks."""
    name = ""
    limit_s = IN_PROCESS_LIMIT_S
    warmup_rounds = 1   # rounds run before the traced/untraced pairs of a traced run
    trace_rounds = 1    # traced rounds in a traced run
    children = False    # operations run in child processes

    def __init__(self, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def inputs(self, index: int) -> list:
        raise NotImplementedError

    def run_round(self, items: list, index: int, rec: Recorder,
                  trace_dir: Path | None) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> dict:
        """Checks after the timed loop; returns extra detail for the report."""
        return {}

    def verify_json(self, rec: Recorder, text: str, describe: str, expect: bool) -> None:
        ok, accepted = rec.timed("verify", describe, lambda: certify.certificate_verify(
            json.loads(text)))
        if ok and accepted is not expect:
            rec.wrong_verdict(f"certificate_verify returned {accepted} for {describe}")

    def cross_check(self, rec: Recorder, sample: int) -> dict:
        """Brute-force irreducibility on a seeded sample of small certified
        polynomials; a factor found is a wrong verdict."""
        pool = [f for f in rec.oracle_pool
                if f.degree() <= 6 and max(abs(c) for c in f.coeffs) <= 10**6
                and f.content() == 1]
        picked = random.Random(f"{self.name}/{self.seed}/oracle").sample(
            pool, min(sample, len(pool)))
        outcomes = {"irreducible": 0, "reducible": 0, "out_of_reach": 0}
        for f in picked:
            status = oracles.irreducible_bruteforce(f, time_budget=2.0).status
            outcomes[status] += 1
            if status == "reducible":
                rec.wrong_verdict(f"brute force factors certified {f}")
            elif status == "out_of_reach":
                rec.log("ORACLE", f"brute force out of reach for {f}")
        return {"oracle": outcomes}


class PlantedSweep(Workload):
    """search_m over m = 1..100 with q_max 1 and 3 on planted reducibles g*h,
    plus one forged lens certificate per product that replay must reject."""
    name = "planted_sweep"
    trace_rounds = 10

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.degrees = PLANTED_DEGREES[::8] if tiny else PLANTED_DEGREES
        # Forged certificates start from an honest lens certificate; the
        # product and a seeded m replace the polynomial and m.  Replay builds
        # the lens region before it rejects (0.4-0.7 ms for degrees 3..8).
        # Sector and prime-power forgeries are rejected within ~0.03-0.15 ms,
        # and a mix of the kinds put the replay median on the step between
        # them, so that it moved by 13% between seeds.
        rng = random.Random(f"{self.name}/{seed}/templates")
        honest = certify.certify_any(quartic_reciprocal(rng), 3)
        if honest is None:
            raise RuntimeError("could not build the forged-certificate template")
        self.template = honest.to_json()

    def inputs(self, index):
        rng = self.rng(index)
        items = []
        for dg, dh in self.degrees:
            f = planted_product(rng, dg, dh)
            forged = dict(self.template, polynomial=list(f.coeffs), m=rng.randint(1, 100))
            items.append((f, forged))
        return items

    def run_round(self, items, index, rec, trace_dir):
        for f, forged in items:
            rec.polys += 1
            certified = False
            for q_max in (1, 3):
                ok, report = rec.timed("certify", f"search_m({f}, 1, 100, q_max={q_max})",
                                       certify.search_m, f, 1, 100, q_max)
                if ok and report.certificate is not None:
                    certified = True
                    rec.wrong_verdict(f"certificate for planted {f} at m={report.certificate.m}")
            rec.certified += certified
            self.verify_json(rec, json.dumps(forged),
                             f"forged {forged['criterion']} for {f} at m={forged['m']}",
                             expect=False)


class WitnessHeavy(Workload):
    """certify_any at one seeded m in 1..50 with q_max = 10^5 on random
    polynomials with coefficients up to 10^12; every certificate is replayed,
    and so are the certificates of planted thm31_pq witnesses.  A semiprime
    probe runs after the timed loop."""
    name = "witness_heavy"
    trace_rounds = 16
    q_max = 10**5

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        # Rounds of 12 random polynomials (~0.35 s): about 7% of them cost
        # 50 ms to 1.5 s (has_rational_root on a_0 and a_n with many
        # divisors), so round times are heavy-tailed.  The median over the
        # ~45 rounds of a run moves less between seeds than the median over
        # the ~22 rounds of twice the size (quartile spread over ten seeds
        # 0.10-0.17 for those).
        self.degrees = list(range(3, 9)) * (1 if tiny else 2)

    def inputs(self, index):
        """Per degree 3..8: two random polynomials at a seeded m, and the
        certificate of one planted witness, issued here, untimed.

        About one random polynomial in eight certifies, as thm31_pq or
        thm31_sqrt_q in about equal numbers.  Without the planted replays a
        run replays about 75 certificates, and its replay median falls on the
        step between the two kinds (~15 ms and ~35 ms, the latter with a long
        tail), so it moves with the seed.  The planted certificates are not
        timed certify operations, so certify_s_p50_norm stays that of the random
        polynomials."""
        rng = self.rng(index)
        items = [(witness_polynomial(rng, d), rng.randint(1, 50)) for d in self.degrees]
        planted = []
        for d in self.degrees[:len(self.degrees) // 2]:
            f, m = planted_witness(rng, d)
            cert = certify.certify_any(f, m, self.q_max)
            if cert is not None:
                planted.append((json.dumps(cert.to_json()), f"planted {cert.criterion} "
                                                             f"for {f} at m={m}"))
        return items, planted

    def run_round(self, items, index, rec, trace_dir):
        items, planted = items
        for text, describe in planted:
            self.verify_json(rec, text, describe, expect=True)
        for f, m in items:
            rec.polys += 1
            ok, cert = rec.timed("certify", f"certify_any({f}, {m}, q_max={self.q_max})",
                                 certify.certify_any, f, m, self.q_max)
            if not ok or cert is None:
                continue
            rec.certified += 1
            if cert.polynomial != f or cert.m != m:
                rec.mismatch(f"certificate for {cert.polynomial} at {cert.m}, "
                             f"asked {f} at {m}")
            self.verify_json(rec, json.dumps(cert.to_json()),
                             f"{cert.criterion} for {f} at m={m}", expect=True)

    def finish(self, rec):
        # The semiprime slice: has_rational_root factors a_0 with Pollard-Brent,
        # which needs about 10^9 steps to split a product of two ~19-digit
        # primes.  Its outcome is recorded here, outside the timed ops, with a
        # short limit.
        rng = random.Random(f"{self.name}/{self.seed}/semiprime")
        f = semiprime_polynomial(rng)
        limit = 0.5 if self.tiny else 2.0
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                report = certify.search_m(f, 1, 50, self.q_max)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = "certified" if report.certificate is not None else "no-certificate"
        except OpTimeout:
            outcome = "timeout"
        elapsed = time.perf_counter() - start
        rec.log("SEMIPRIME PROBE", f"search_m({f}, 1, 50, q_max={self.q_max}) -> "
                                   f"{outcome} after {elapsed:.2f} s (limit {limit:g} s)")
        return {"semiprime_probe": outcome}


class FamilyReplay(Workload):
    """The paper's families certified at their known m with certify_any, then
    replayed from JSON with certificate_verify at 12 digits."""
    name = "family_replay"
    trace_rounds = 60

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.repeats = 1 if tiny else 3

    def inputs(self, index):
        """Per repeat: five quartics, five digit polynomials of primes with 4 to
        6 digits (the acceptance-2 range), and one value shift of each base."""
        rng = self.rng(index)
        items = []
        for _ in range(self.repeats):
            for degree in (3, 4, 5, 3, 4):
                items.append((quartic_reciprocal(rng), 3, None, "cor310_cot"))
                items.append((prime_digit_polynomial(rng, degree), 10, None,
                              "cor32_nonneg"))
            for base in VALUE_SHIFT_BASES:
                m = rng.randint(2, 6)
                items.append((value_shift(rng, base, m), m, ("prime_power",),
                              "thm35_prime_power"))
        return items

    def run_round(self, items, index, rec, trace_dir):
        for f, m, modes, expected in items:
            rec.polys += 1
            ok, cert = rec.timed("certify", f"certify_any({f}, {m}, modes={modes})",
                                 certify.certify_any, f, m, 1, 12, modes)
            if not ok:
                continue
            if cert is None or cert.criterion != expected:
                rec.mismatch(f"{f} at m={m}: expected {expected}, got "
                             f"{cert.criterion if cert else 'no certificate'}")
            if cert is None:
                continue
            rec.certified += 1
            rec.keep_for_oracle(f)
            self.verify_json(rec, json.dumps(cert.to_json()), f"{cert.criterion} for {f} at m={m}",
                             expect=True)

    def finish(self, rec):
        return self.cross_check(rec, 3)


class CliHiprec(Workload):
    """A fresh `python -m polycert.cli certify ... --digits 100 --json`
    process, then `polycert verify` on its output, one child at a time."""
    name = "cli_hiprec"
    limit_s = CLI_LIMIT_S
    children = True
    warmup_rounds = 0   # every child process starts cold anyway
    trace_rounds = 1

    def inputs(self, index):
        """One lens certificate, sector certificates of degrees 3..8 and two
        prime-power certificates per round.  Enclosure cost depends on the
        degree, so each round holds the same degrees and the seed varies the
        coefficients."""
        rng = self.rng(index)
        power = ["--prime-power"]
        if self.tiny:
            return [(prime_digit_polynomial(rng, 6), 10, [], "cor32_nonneg"),
                    (value_shift(rng, "X^2+X+1", 4), 4, power, "thm35_prime_power")]
        return ([(quartic_reciprocal(rng), 3, [], "cor310_cot")]
                + [(prime_digit_polynomial(rng, d), 10, [], "cor32_nonneg")
                   for d in range(3, 9)]
                + [(value_shift(rng, "X^2+X+1", 4), 4, power, "thm35_prime_power"),
                   (value_shift(rng, "X^3+2*X+1", 3), 3, power, "thm35_prime_power")])

    def run_round(self, items, index, rec, trace_dir):
        work = ROOT / "perfbench" / "out"
        work.mkdir(parents=True, exist_ok=True)
        cert_path = work / f"cli-cert-{os.getpid()}.json"
        speed_path = work / f"cli-speed-{os.getpid()}.json" if trace_dir is None else None

        def command(args: list[str], trace_name: str) -> list[str]:
            if trace_dir is None:
                return [sys.executable, str(LAUNCHER), "--speed", str(speed_path), *args]
            return [sys.executable, str(LAUNCHER), str(trace_dir / trace_name), *args]

        for i, (f, m, extra, expected) in enumerate(items):
            rec.polys += 1
            certify_args = ["certify", "--coeffs=" + f.coeffs_csv(), "--m", str(m),
                            "--digits", "100", "--json", *extra]
            describe = f"polycert {' '.join(certify_args)}"
            # Two fresh processes certify each input.  Their outputs must be
            # the same; the second doubles the certify samples of a run, whose
            # median over 9 processes spread 0.083 over ten seeds.
            runs = [rec.timed_process("certify", describe,
                                      command(certify_args, f"r{index}-{i}-certify{k}.json"),
                                      speed_path)
                    for k in range(2)]
            if not all(ok for ok, _, _ in runs):
                continue
            (_, code, out), (_, code2, out2) = runs
            if (code, out) != (code2, out2):
                rec.mismatch(f"{describe}: two runs printed different results")
                continue
            if code == 1:
                rec.mismatch(f"{describe}: expected {expected}, got no certificate")
                continue
            try:
                criterion = json.loads(out).get("criterion")
            except (ValueError, AttributeError):
                criterion = f"unreadable output {out[:200]!r}"
            if criterion != expected:
                rec.mismatch(f"{describe}: expected {expected}, got {criterion}")
                continue
            rec.certified += 1
            rec.keep_for_oracle(f)
            cert_path.write_text(out, encoding="utf-8")
            ok, code, out = rec.timed_process(
                "verify", f"verify of {describe}",
                command(["verify", str(cert_path)], f"r{index}-{i}-verify.json"), speed_path)
            if ok and (code, out.strip()) != (0, "certificate verified"):
                rec.wrong_verdict(f"verify of {describe} exited {code} and printed "
                                  f"{out.strip()!r}")
        cert_path.unlink(missing_ok=True)

    def finish(self, rec):
        return self.cross_check(rec, 2)


WORKLOADS = {w.name: w for w in (PlantedSweep, WitnessHeavy, FamilyReplay, CliHiprec)}
