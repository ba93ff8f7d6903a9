"""Smoke check of the benchmark command at tiny size: every workload runs,
prints its metrics by name with units, and reports no wrong verdict."""
import subprocess
import sys
from pathlib import Path

from table import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent


def test_table_runs_every_workload_at_tiny_size():
    proc = subprocess.run(
        [sys.executable, str(HERE / "table.py"), "--seed", "1", "--seconds", "0.5",
         "--size", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.strip().splitlines()
    assert [row.split(":")[0] for row in rows] == list(WORKLOADS)
    for row in rows:
        assert "correct=True" in row and "wrong_verdicts=0 count" in row, row
        for metric in END_TO_END:
            assert f" {metric}=" in row, row
