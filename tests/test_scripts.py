"""Smoke tests: each study script runs at a tiny size and writes its table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("bound_tightness.py", ["--n", "40", "--m-grid", "2", "4", "--out", "out.csv"],
     "m logdet_exact logdet_lower logdet_waterfill logdet_amgm logdet_trace"),
    ("warm_start_study.py",
     ["--n", "60", "--m", "4", "--steps", "3", "--seeds", "1", "--out", "out.csv"],
     "seed step cg_iters objective grad_norm"),
    # writes no CSV: its table goes to stdout
    ("model_comparison.py", ["--n", "60", "--m", "4", "--steps", "2"],
     "model objective lml@theta rmse nlpd noise steps"),
])
def test_script_runs(tmp_path, script, args, header):
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    csv_path = tmp_path / "out.csv"
    table = csv_path.read_text() if csv_path.exists() else proc.stdout
    assert table.splitlines()[0].replace(",", " ").split() == header.split()
