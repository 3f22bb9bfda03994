"""Smoke tests: each script runs at a tiny size and writes its output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def run_script(cwd, script, args):
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args], cwd=cwd,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


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
    proc = run_script(tmp_path, script, args)
    csv_path = tmp_path / "out.csv"
    table = csv_path.read_text() if csv_path.exists() else proc.stdout
    assert table.splitlines()[0].replace(",", " ").split() == header.split()


def test_output_digest_is_reproducible(tmp_path):
    # Two runs into different directories list the same digests: no path or
    # wall time reaches them, so a diff of two listings compares versions.
    listings = [run_script(tmp_path, "output_digest.py",
                           ["--n", "60", "--steps", "2", "--out", out]).stdout
                for out in ("a", "b")]
    assert listings[0] == listings[1]
    lines = [line.split("  ") for line in listings[0].splitlines()]
    assert all(len(digest) == 64 for digest, _ in lines)
    names = {name for _, name in lines}
    for kind in ("exact", "sgpr", "cglb", "iterative"):
        for file in ("summary.json", "metrics.json", "trace.jsonl", "model.npz:theta"):
            assert f"{kind}/{file}" in names
    for seed in (0, 1):
        assert f"pool/seed-{seed}/summary.json" in names
    assert {"bounds.csv", "check-gradients.txt"} <= names
