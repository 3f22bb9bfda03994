"""Print a SHA-256 digest of every deterministic CLI output at one fixed config.

Trains and evaluates each model kind, trains two seeds on a pool of two
worker threads, writes a ``compare-bounds`` report and runs
``check-gradients``, then prints one ``sha256  name`` line per output.
Two versions of the package compute the same numbers exactly when their
listings are the same:

    PYTHONPATH=src python scripts/output_digest.py --out /tmp/new > new.txt
    PYTHONPATH=/path/to/other/src python scripts/output_digest.py --out /tmp/old > old.txt
    diff old.txt new.txt

``trace.jsonl`` is digested without its wall-time field ``elapsed_s``,
and ``model.npz`` one array at a time, so its JSON ``meta`` entry is
listed apart from the numbers.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from cglb import cli

RUNS = {
    "exact": ["model=exact"],
    "sgpr": ["model=sgpr"],
    "cglb": ["model=cglb"],
    "iterative": ["model=iterative"],
}


def run(argv: list[str]) -> str:
    """Run one CLI command; its stdout, or exit if it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def trace_digest(path: Path) -> str:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        record.pop("elapsed_s")
    return sha(json.dumps(records).encode())


def npz_digests(path: Path) -> dict[str, str]:
    out = {}
    with np.load(path, allow_pickle=False) as payload:
        for key in sorted(payload.files):
            arr = payload[key]
            header = f"{arr.dtype.str}{arr.shape}".encode()
            out[key] = sha(header + np.ascontiguousarray(arr).tobytes())
    return out


def run_digests(run_dir: Path, name: str, files: tuple[str, ...]) -> list[tuple[str, str]]:
    """(digest, name) of a training run's files, its trace and each model array."""
    lines = [(sha((run_dir / file).read_bytes()), f"{name}/{file}") for file in files]
    lines.append((trace_digest(run_dir / "trace.jsonl"), f"{name}/trace.jsonl"))
    for key, digest in npz_digests(run_dir / "model.npz").items():
        lines.append((digest, f"{name}/model.npz:{key}"))
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="directory for the CLI outputs")
    ap.add_argument("--n", type=int, default=450, help="synthetic rows (2/3 train)")
    ap.add_argument("--steps", type=int, default=20, help="L-BFGS steps per model")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "base.yaml"
    cfg.write_text(yaml.safe_dump({
        "m": 8, "seed": 0,
        "data": {"synthetic": {"kind": "sine", "n": args.n, "d": 2, "seed": 1}},
        "optimizer": {"max_steps": args.steps},
    }))

    lines = []
    for name, sets in RUNS.items():
        run_dir = out / name
        overrides = [arg for s in sets for arg in ("--set", s)]
        run(["train", "--config", str(cfg), *overrides, "--out", str(run_dir)])
        run(["evaluate", "--model", str(run_dir)])
        lines += run_digests(run_dir, name, ("config.yaml", "summary.json", "metrics.json"))

    # The default model (cglb) on the thread-pool path of a multi-seed run.
    pool_dir = out / "pool"
    run(["train", "--config", str(cfg), "--seeds", "2", "--workers", "2",
         "--out", str(pool_dir)])
    for seed_dir in sorted(pool_dir.glob("seed-*")):
        lines += run_digests(seed_dir, f"pool/{seed_dir.name}",
                             ("config.yaml", "summary.json"))

    bounds_csv = out / "bounds.csv"
    run(["compare-bounds", "--config", str(cfg), "--out", str(bounds_csv)])
    lines.append((sha(bounds_csv.read_bytes()), "bounds.csv"))
    lines.append((sha(bounds_csv.with_suffix(".config.yaml").read_bytes()),
                  "bounds.config.yaml"))
    grads = run(["check-gradients", "--seeds", "3"])
    lines.append((sha(grads.encode()), "check-gradients.txt"))

    for digest, name in lines:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
