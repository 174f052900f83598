"""Command-line entry points for the experiment harness.

Subcommands mirror the benchmark suite: `stm` (short-term memory),
`predict` (forecasting), `esp` (echo-state-property divergence curves),
`noise` (depolarization sweep), and `oracle-check` (simulator-vs-oracle
verification). Each takes `--config <json>` and `--out <dir>`.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, NumericError
from . import harness


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON experiment config")
    p.add_argument("--out", required=True, help="output directory (created if missing)")
    p.add_argument("--workers", type=int, default=1, help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fbqrc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("stm", "short-term memory experiment (R^2 per delay, capacity)"),
        ("predict", "prediction experiment (NMSE per forecast horizon)"),
        ("esp", "echo-state-property divergence analysis"),
        ("noise", "prediction experiment swept over depolarization strengths"),
        ("oracle-check", "verify the shot simulator against the exact oracles"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    return parser


def _cmd_stm(config, out, workers) -> int:
    if config.task["name"] != "uniform":
        raise ConfigError("the memory experiment requires the uniform task")
    result = harness.run_ensemble(config, workers=workers)
    harness.write_results_csv(os.path.join(out, "results.csv"), result.records)
    summary = dict(result.summary)
    summary["memory_capacity"] = harness.capacity_by_point(result)
    harness.write_summary_json(os.path.join(out, "summary.json"), summary)
    return 0


def _cmd_predict(config, out, workers) -> int:
    if config.task["name"] == "uniform":
        raise ConfigError("the prediction experiment requires a dynamical-system task")
    result = harness.run_ensemble(config, workers=workers)
    harness.write_results_csv(os.path.join(out, "results.csv"), result.records)
    harness.write_summary_json(os.path.join(out, "summary.json"), result.summary)
    return 0


def _cmd_esp(config, out, workers) -> int:
    report = harness.run_esp_experiment(config)
    harness.write_divergence_csv(os.path.join(out, "divergence.csv"), report["divergence"])
    summary = {
        "model": report["model"],
        "config_hash": report["config_hash"],
        "master_seed": config.master_seed,
        "n_runs": config.n_runs,
        "series_len": config.series_len,
        "initial_divergence": report["initial"],
        "final_divergence": report["final"],
    }
    harness.write_summary_json(os.path.join(out, "summary.json"), summary)
    return 0


def _cmd_noise(config, out, workers) -> int:
    if config.lambda_list is None:
        raise ConfigError("the noise experiment requires lambda_list in the config")
    if config.task["name"] == "uniform":
        raise ConfigError("the noise experiment requires a dynamical-system task")
    per_lambda = harness.run_noise_sweep(config, workers=workers)
    summary = {"config_hash": config.hash(), "master_seed": config.master_seed, "lambdas": {}}
    for lam, result in per_lambda.items():
        sub = os.path.join(out, f"lambda_{lam:g}")
        harness.ensure_outdir(sub)
        harness.write_results_csv(os.path.join(sub, "results.csv"), result.records)
        summary["lambdas"][f"{lam:g}"] = result.summary["ensemble"]
    harness.write_summary_json(os.path.join(out, "summary.json"), summary)
    return 0


def _cmd_oracle_check(config, out, workers) -> int:
    report = harness.run_oracle_check(config)
    ok = (
        report["feature_checks"]["frac_within_4sigma"] >= 0.99
        and report["cycle_checks"]["n_pass"] >= 0.98 * report["cycle_checks"]["n_cycles"]
    )
    report["pass"] = bool(ok)
    harness.write_summary_json(os.path.join(out, "summary.json"), report)
    print(json.dumps({"pass": report["pass"], **report["feature_checks"], **report["cycle_checks"]}))
    return 0 if ok else 3


_COMMANDS = {
    "stm": _cmd_stm,
    "predict": _cmd_predict,
    "esp": _cmd_esp,
    "noise": _cmd_noise,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        harness.check_workers(args.workers)
        config = harness.load_config(args.config)
        harness.ensure_outdir(args.out)
        return _COMMANDS[args.command](config, args.out, args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
