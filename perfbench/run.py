"""Benchmark of the ``cglb`` package: CGLB training, SGPR training, cold PCG solves.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cglb-train --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``cglb-train``: CGLB, d=8, 2000 training rows, m=32, L-BFGS for 15 steps.
* ``sgpr-train``: SGPR on the same kind of data, m=128, 20 steps.
* ``cglb-solve``: cold ``cglb_prediction_vector`` at eps=1e-3 and
  ``cglb_predict`` over 20 stratified small-noise draws, d=2, 3000 rows, m=16.

The seed makes the data and the draws; the program sees only those
inputs. Inputs are built five times in a child process, so
nothing the generator allocates counts towards the peak memory of this
process. A small fixed-seed canary is compared with ``reference.json``,
and one full-size unit of work (an objective evaluation, or a prediction)
runs five times to warm the process up. ``setup_s`` is the median build
time plus the median warm-up time. The timed section repeats the
workload's job, one call after another, until at least ``--seconds``
have passed and the workload's minimum job count is reached.

With ``--trace 0`` the run reports the end-to-end metrics; the only
instrumentation is a timer around each objective evaluation. With
``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics from the traced ones, the tracing overhead, and whether
the traced jobs reproduced the untraced results bit for bit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(machine, tails and sample counts, failures, spans) goes to
``perfbench/out/``. ``--record-reference`` rewrites the workload's entry
in ``reference.json`` from its canary.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse
import ctypes
import json
import pickle
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

SETUP_REPEATS = 5
# BLAS threads per workload; the rest get one per CPU. A training evaluation
# is a chain of small and medium BLAS calls plus single-threaded numpy work:
# on a 2-CPU box two threads made it slower and noisier (CGLB 417 vs 300 ms,
# SGPR 160 vs 80 ms per evaluation). The solve's matvecs are bandwidth-bound
# and ran twice as fast on two threads.
BLAS_THREADS = {"cglb-train": 1, "sgpr-train": 1}
FLOAT_REL_TOL = 1e-6  # canary floats against the reference; counts must match exactly


def pin_blas_threads(workload: str | None) -> None:
    """Fix the BLAS thread count, at most one per CPU; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = str(min(BLAS_THREADS.get(workload, nproc), nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


def read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def llc_bytes() -> int | None:
    """Size of the highest-level data or unified cache of CPU 0."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read_text(index / f) for f in ("level", "type", "size"))
        if None in (level, kind, size) or kind == "Instruction":
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
        nbytes = int(size.rstrip("KMG")) * scale
        if best is None or int(level) > best[0]:
            best = (int(level), nbytes)
    return None if best is None else best[1]


def blas_threads() -> dict[str, int]:
    """Thread count reported by each loaded OpenBLAS library."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    libs = sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu_model = next((line.split(":", 1)[1].strip() for line in
                      (read_text(Path("/proc/cpuinfo")) or "").splitlines()
                      if line.startswith("model name")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "llc_bytes": llc_bytes(),
    }


def current_rss_mib() -> float:
    resident_pages = int(Path("/proc/self/statm").read_text().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10  # KiB on Linux


def mismatches(got, want, path: str = "") -> list[str]:
    """Differences between canary output and reference; floats to a relative tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} vs {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} vs {want!r}"]
        return [m for k, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{k}]")]
    if isinstance(want, float):
        if abs(got - want) <= FLOAT_REL_TOL * max(1.0, abs(want)):
            return []
    elif got == want:
        return []
    return [f"{path}: {got!r} vs reference {want!r}"]


# Runs in the child: builds the inputs and writes them, pickled, to standard output.
BUILD_CHILD = """
import pickle, sys
out, sys.stdout = sys.stdout.buffer, sys.stderr
sys.path[:0] = sys.argv[1:3]
import workloads
out.write(pickle.dumps(workloads.timed_setup(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))))
"""


def build_inputs(name: str, seed: int):
    """Build the inputs in a child process; returns (inputs, setup seconds per build).

    The child has exited, and been waited for, when this returns.
    """
    child = subprocess.run(
        [sys.executable, "-c", BUILD_CHILD, str(ROOT / "src"), str(BENCH_DIR),
         name, str(seed), str(SETUP_REPEATS)],
        stdout=subprocess.PIPE, check=True)
    return pickle.loads(child.stdout)


def check_jobs(workload, inputs: dict, jobs: list[dict]) -> tuple[int, list[str], dict]:
    """Correctness gate: (failed items, failure messages, mean quality figures).

    The first job on each input is checked in full; every later job on the
    same input, traced or not, must repeat its counts and results exactly.
    """
    first: dict[int, dict] = {}
    failed, messages, qualities = 0, [], []
    for index, job in enumerate(jobs):
        seen = first.setdefault(job["key"], job)
        if seen is job:
            per_item, quality = workload.check(inputs, job)
            failed += sum(1 for item in per_item if item)
            messages += [m for item in per_item for m in item]
            qualities.append(quality)
        elif job["counts"] != seen["counts"] or job["fingerprint"] != seen["fingerprint"]:
            failed += job["items"]
            messages.append(f"job {index} did not repeat the first job on input {job['key']}: "
                            f"counts {job['counts']} vs {seen['counts']}, or other results")
    return failed, messages, {key: statistics.fmean(q[key] for q in qualities)
                              for key in qualities[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the workload's entry in reference.json from its canary")
    args = parser.parse_args(argv)
    pin_blas_threads(args.workload)

    if not (ROOT / "src" / "cglb" / "__init__.py").is_file():
        print(f"error: no cglb sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    reference_path = BENCH_DIR / "reference.json"
    reference = json.loads(reference_path.read_text()) if reference_path.is_file() else {}
    if args.record_reference:
        reference[workload.name] = workload.canary()
        reference_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"wrote {reference_path}")
        return 0

    machine = machine_info()
    inputs, setup_times = build_inputs(workload.name, args.seed)
    n_train = inputs["n_train"]

    # Reference check on fixed inputs, then full-size warm-ups, outside the timed section.
    canary = workload.canary()
    warmup_times = []
    for _ in range(SETUP_REPEATS):
        tick = time.perf_counter()
        workload.warm_up(inputs)
        warmup_times.append(time.perf_counter() - tick)
    canary_failures = mismatches(canary, reference.get(workload.name), "canary")

    tracer = tracing.Tracer()
    jobs, traced = [], []
    rss_start = current_rss_mib()
    start = time.perf_counter()
    # A traced run makes pairs of one untraced and one traced job of the same
    # inputs, alternating which goes first.
    min_jobs = 1 if args.trace else workload.min_jobs
    while len(jobs) < min_jobs or time.perf_counter() - start < args.seconds:
        index = len(jobs)
        if args.trace and index % 2:
            with tracing.instrument(tracer, n_train, workload.m):
                traced.append(workload.run_job(inputs, index))
        jobs.append(workload.run_job(inputs, index))
        if args.trace and not index % 2:
            with tracing.instrument(tracer, n_train, workload.m):
                traced.append(workload.run_job(inputs, index))
    timed_s = time.perf_counter() - start
    peak_mib = peak_rss_mib() - rss_start

    failed, failures, quality = check_jobs(workload, inputs, jobs + traced)
    failures = canary_failures + failures
    failed += bool(canary_failures)
    attempted = 1 + sum(job["items"] for job in jobs + traced)
    correct = failed == 0

    timings, tails = workloads.timing_metrics(jobs, *workload.min_samples)
    record = {
        "workload": {"name": workload.name, "why": why, "params": asdict(workload),
                     "layers": {metric: by[workload.name] for metric, by in
                                workloads.LAYER_MAP.items() if workload.name in by}},
        "seed": args.seed,
        "machine": machine,
        "kff_bytes": 8 * n_train**2,
        "kff_vs_llc": 8 * n_train**2 / machine["llc_bytes"] if machine["llc_bytes"] else None,
        "setup_times_s": setup_times,
        "warmup_times_s": warmup_times,
        "timed_s": timed_s,
        "job_wall_s": [job["wall_s"] for job in jobs],
        "tails": tails,
        "canary": canary,
        "failures": failures,
    }
    if args.trace:
        identical = all(t["fingerprint"] == u["fingerprint"] for t, u in zip(traced, jobs))
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["data.build_s"] = statistics.median(setup_times)
        metrics["trace.overhead_frac"] = (sum(job["wall_s"] for job in traced)
                                          / sum(job["wall_s"] for job in jobs[:len(traced)]) - 1.0)
        zero = [m for m in workloads.required_nonzero(workload.name) if not metrics[m] > 0.0]
        if zero:
            failures.append(f"trace: metrics zero on the workload meant to exercise them: {zero}")
        if not identical:
            failures.append("trace: traced jobs did not reproduce the untraced results bit for bit")
        correct = correct and identical and not zero
        record["trace"] = {"bit_identical": identical, "traced_jobs": len(traced),
                           "spans": tracer.totals(), "counts": dict(tracer.counts)}
        declared = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_times) + statistics.median(warmup_times),
            **timings,
            "peak_mib": peak_mib,
            **quality,
            "ok_frac": 1.0 - failed / attempted,
        }
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                           f"{sorted(units)}")
    record["metrics"] = metrics

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for name, begin, end, parent in tracer.spans:
                fh.write(json.dumps([name, begin - start, end - start, parent]) + "\n")

    for message in failures:
        print(f"FAILED {message}")
    print(f"workload {workload.name}: {why}")
    print(f"machine {json.dumps(machine)}")
    print(f"K_ff {8 * n_train**2 / 2**20:.1f} MiB vs last-level cache "
          f"{(machine['llc_bytes'] or 0) / 2**20:.1f} MiB; jobs {len(jobs)}"
          + (f", traced {len(traced)}" if args.trace else ""))
    if not args.trace:
        for name, info in tails.items():
            print(f"samples {name}: {info}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
