"""The mutation gate: every mutant of the soundness core must be killed.

mutants.json lists the mutants.  Each names a file of the repository, an
exact old text that occurs in it once, the new text that replaces it, the
tests (pytest node ids) that must fail on the mutated code, and why.  For
each mutant the runner copies pyproject.toml, src/ and tests/ to a
temporary directory, applies the mutant there, and runs its tests with -x.
The repository itself is never changed.

The run fails when a mutant survives (its tests pass), when its old text is
missing or not unique, when pytest ends in an error rather than a test
failure, or when the named tests do not all pass on the unmutated copy.
A survivor is a finding: answer it with a test, or by deleting the code it
shows unneeded, never by deleting the mutant.

    python mutation/run.py            # every mutant
    python mutation/run.py NAME ...   # the named mutants

Standard library only, apart from pytest for the tests it runs.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
COPIED = ("pyproject.toml", "src", "tests")
TIMEOUT_S = 600


def load() -> list[dict]:
    """The mutants: dicts with name, file, old, new, tests and why."""
    mutants = json.loads(MUTANTS.read_text())
    names = [mutant["name"] for mutant in mutants]
    if len(set(names)) != len(names):
        raise ValueError("mutant names must be unique")
    return mutants


def stale(mutants: list[dict]) -> list[str]:
    """Why each mutant cannot be applied to the repository: its old text is
    missing or occurs more than once, or a test file it names is gone."""
    problems = []
    for mutant in mutants:
        count = (ROOT / mutant["file"]).read_text().count(mutant["old"])
        if count != 1:
            problems.append(f"{mutant['name']}: old text occurs {count} times in {mutant['file']}")
        for test in mutant["tests"]:
            if not (ROOT / test.split("::")[0]).is_file():
                problems.append(f"{mutant['name']}: no test file for {test}")
    return problems


def _copy(to: Path) -> None:
    to.mkdir()
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, to / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(source, to / name)


def _pytest(where: Path, tests: list[str]) -> tuple[str, float]:
    """'passed', 'failed', 'timeout' or 'error (exit N)' for the tests run
    on the copy at where, and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    start = time.monotonic()
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", *tests],
                              cwd=where, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", time.monotonic() - start
    took = time.monotonic() - start
    if done.returncode == 0:
        return "passed", took
    if done.returncode == 1:
        return "failed", took
    sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
    return f"error (exit {done.returncode})", took


def main(argv: list[str]) -> int:
    mutants = load()
    if argv:
        unknown = sorted(set(argv) - {mutant["name"] for mutant in mutants})
        if unknown:
            print(f"unknown mutants: {unknown}", file=sys.stderr)
            return 2
        mutants = [mutant for mutant in mutants if mutant["name"] in argv]
    problems = stale(mutants)
    if problems:
        print("stale mutants (update mutants.json with the code):", *problems,
              sep="\n  ", file=sys.stderr)
        return 1
    failures = 0
    with tempfile.TemporaryDirectory(prefix="polycert-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy(clean)
        tests = sorted({test for mutant in mutants for test in mutant["tests"]})
        outcome, took = _pytest(clean, tests)
        print(f"unmutated: {outcome} ({took:.1f} s)")
        if outcome != "passed":
            return 1
        for mutant in mutants:
            copy = Path(scratch) / mutant["name"]
            shutil.copytree(clean, copy)
            target = copy / mutant["file"]
            target.write_text(target.read_text().replace(mutant["old"], mutant["new"]))
            outcome, took = _pytest(copy, mutant["tests"])
            killed = outcome in ("failed", "timeout")
            failures += not killed
            verdict = "killed" if killed else "SURVIVED" if outcome == "passed" else "ERROR"
            print(f"{verdict:8} {mutant['name']}: {outcome} ({took:.1f} s)")
            shutil.rmtree(copy)
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
