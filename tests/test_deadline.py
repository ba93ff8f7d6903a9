"""The deadline fixture of conftest.py fails one test cleanly, even when its
alarm lands in a tight loop, and the session goes on to the next test."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

EXPIRING = '''
def test_tight_loop_past_its_deadline(deadline):
    deadline(1)
    for a in range(1, 10**12):
        found = 0
        b = 216 * a
        while found < 0:
            b += 1


def test_next_test_still_runs():
    assert True
'''


def test_deadline_fails_a_tight_loop_without_stopping_the_session(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_expiring.py").write_text(EXPIRING, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(tmp_path)], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "test ran past its deadline" in out
    assert "1 failed, 1 passed" in out
    assert proc.returncode == 1
