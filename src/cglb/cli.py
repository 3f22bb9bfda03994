"""Command-line entry point.

Subcommands: ``train``, ``evaluate``, ``compare-bounds``,
``check-gradients``; each accepts ``--config <path>`` plus dotted
``--set key=value`` overrides. Every run writes a resolved config echo
next to its outputs so it can be reproduced. Exit codes: 0 success,
2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import config as config_mod
from . import data, training
from .errors import CglbError, ConfigError


def _split(cfg: config_mod.RunConfig):
    ds = training.build_dataset(cfg)
    return data.split_standardize(ds, cfg.split_fraction, cfg.seed)


def _run_single_training(cfg: config_mod.RunConfig, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    config_mod.dump_config(cfg, str(out / "config.yaml"))
    train_set, test_set, _ = _split(cfg)
    with open(out / "trace.jsonl", "w") as trace_fh:
        def sink(record: dict) -> None:
            trace_fh.write(json.dumps(record) + "\n")
            trace_fh.flush()

        model, result = training.train(cfg, train_set, trace_sink=sink)
    training.save_model(model, str(out / "model.npz"))
    metrics = training.evaluate(model, test_set)
    summary = {
        "model": cfg.model,
        "seed": cfg.seed,
        "m": int(model.Z.shape[0]) if model.Z is not None else None,
        "n_train": int(train_set.n),
        "n_test": int(test_set.n),
        "final_objective": -result.value,
        "steps": len(result.trace) - 1,
        "termination": result.reason,
        "n_evals": result.n_evals,
        "metrics": metrics,
        "theta": training.theta_record(model.params),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary


def cmd_train(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = config_mod.load_config(args.config, args.set)
    out = Path(args.out or cfg.output_dir)
    if args.seeds == 1:
        print(json.dumps(_run_single_training(cfg, out), indent=2))
        return 0
    # independent single-threaded trainings with disjoint output dirs
    configs = []
    for offset in range(args.seeds):
        sub = dataclasses.replace(cfg, seed=cfg.seed + offset)
        configs.append((sub, out / f"seed-{sub.seed}"))
    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            summaries = list(pool.map(lambda t: _run_single_training(*t), configs))
    else:
        summaries = [_run_single_training(sub, path) for sub, path in configs]
    print(json.dumps(summaries, indent=2))
    return 0


def cmd_evaluate(args) -> int:
    run_dir = Path(args.model)
    cfg = config_mod.load_config(args.config or str(run_dir / "config.yaml"), args.set)
    model = training.load_model(str(run_dir / "model.npz"))
    _, test_set, _ = _split(cfg)
    metrics = training.evaluate(model, test_set)
    with open(run_dir / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2)
        fh.write("\n")
    print(json.dumps(metrics, indent=2))
    return 0


def cmd_compare_bounds(args) -> int:
    cfg = config_mod.load_config(args.config, args.set)
    train_set, _, _ = _split(cfg)
    rows = training.compare_bounds_rows(cfg, train_set)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    training.write_bound_report(rows, str(out))
    config_mod.dump_config(cfg, str(out.with_suffix(".config.yaml")))
    bad = [r["draw"] for r in rows if not r["ordering_ok"]]
    print(f"wrote {len(rows)} rows to {out}; ordering violations: {bad or 'none'}")
    return 0 if not bad else 3


def cmd_check_gradients(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    # The gradient check builds its own instances, so no data source is required.
    base_seed = config_mod.load_config(args.config, args.set, needs_data=False).seed
    worst: dict[str, float] = {}
    for seed in range(base_seed, base_seed + args.seeds):
        report = training.gradient_check_report(seed=seed)
        for name, err in report.items():
            worst[name] = max(worst.get(name, 0.0), err)
    for name, err in sorted(worst.items()):
        status = "ok" if err <= args.tolerance else "FAIL"
        print(f"{name:8s} max rel err {err:.3e}  [{status}]")
    return 0 if all(err <= args.tolerance for err in worst.values()) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cglb",
        description="Gaussian process regression with conjugate-gradient "
                    "lower bounds on the log marginal likelihood.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default=None, help="YAML run configuration")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted path)")

    p_train = sub.add_parser("train", help="fit a model and write trace/metrics")
    add_common(p_train)
    p_train.add_argument("--out", default=None,
                         help="output directory (default: config output_dir)")
    p_train.add_argument("--seeds", type=int, default=1,
                         help="run this many independent seeds into seed-N subdirs")
    p_train.add_argument("--workers", type=int, default=1,
                         help="worker threads for --seeds > 1")
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model on its test split")
    add_common(p_eval)
    p_eval.add_argument("--model", required=True,
                        help="run directory containing config.yaml and model.npz")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_cmp = sub.add_parser("compare-bounds",
                           help="tabulate all bounds against the dense oracle")
    add_common(p_cmp)
    p_cmp.add_argument("--out", default="bounds.csv", help="CSV report path")
    p_cmp.set_defaults(fn=cmd_compare_bounds)

    p_chk = sub.add_parser("check-gradients",
                           help="finite-difference check of the analytic gradients")
    add_common(p_chk)
    p_chk.add_argument("--seeds", type=int, default=3)
    p_chk.add_argument("--tolerance", type=float, default=1e-5)
    p_chk.set_defaults(fn=cmd_check_gradients)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CglbError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
