"""Command line entry point.

Subcommands: simulate, train, ablate, grid, validate-risk, bounds.
Each accepts --config PATH (flat key = value file) plus a few flags
that override file values.  Exit codes: 0 on success, 1 on a config
problem, 2 on a data problem.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DataError, InputError, ParameterError
from .harness import (
    ExperimentConfig,
    build_config,
    parse_config_file,
    run_ablate,
    run_bounds,
    run_grid_search,
    run_simulate,
    run_train,
    run_validate_risk,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksetsel",
        description="Online adaptive k-set sample selection experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, text in (
        ("simulate", "run selectors over a synthetic risk stream"),
        ("train", "train one selector on a dataset with label noise"),
        ("ablate", "compare selectors on identically corrupted data"),
        ("grid", "tune eta_coefficient and k on a noisy validation split"),
        ("validate-risk", "train on fixed selections of known precision"),
        ("bounds", "print closed-form regret and risk ceilings"),
    ):
        p = sub.add_parser(mode, help=text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="replace the seed list with this one seed")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--selector", help="replace the selector list (fpl, naive, greedy, random)")
        p.add_argument("--eta-coef", type=float, help="perturbation coefficient; eta = coef * sqrt(kT)")
        p.add_argument("--k-frac", type=float, help="selection size as a fraction of n")
        p.add_argument("--noise", help="label noise as sym:RATE or asym:RATE")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    raw = parse_config_file(args.config) if args.config else {}
    raw["mode"] = args.mode
    # Flags win over file values.
    if args.seed is not None:
        raw["seeds"] = str(args.seed)
    if args.out is not None:
        raw["out"] = args.out
    if args.selector is not None:
        raw["selectors"] = args.selector
    if args.eta_coef is not None:
        raw["eta_coefficient"] = repr(args.eta_coef)
    if args.k_frac is not None:
        raw.pop("k", None)
        raw["k_frac"] = repr(args.k_frac)
    if args.noise is not None:
        raw["noise"] = args.noise
    return build_config(raw)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.mode == "simulate":
            result = run_simulate(cfg)
            for strategy, report in result.reports.items():
                print(f"[{strategy.value}]")
                for line in report.lines():
                    print("  " + line)
                print(f"  metrics: {result.csv_paths[strategy]}")
        elif cfg.mode == "train":
            result = run_train(cfg)
            print(f"metrics: {result.csv_path}")
            print(f"summary: {result.summary_path}")
            print(f"mean last-10 test accuracy:    {result.mean_test_acc:.6g}")
            print(f"mean last-10 label precision:  {result.mean_precision:.6g}")
        elif cfg.mode == "ablate":
            result = run_ablate(cfg)
            for strategy in cfg.selectors:
                marker = " (best)" if strategy is result.best else ""
                print(
                    f"{strategy.value}: acc={result.mean_test_acc[strategy]:.6g} "
                    f"precision={result.mean_precision[strategy]:.6g}{marker}"
                )
            if result.fpl_wins is not None:
                print(f"fpl beats all others: {'yes' if result.fpl_wins else 'no'}")
            print(f"comparison: {result.csv_path}")
        elif cfg.mode == "grid":
            result = run_grid_search(cfg)
            print(
                f"best: eta_coefficient={result.best_eta_coefficient:g} "
                f"k_frac={result.best_k_frac:g} k={result.best_k} "
                f"val_acc={result.best_val_acc:.6g}"
            )
            print(f"grid: {result.csv_path}")
        elif cfg.mode == "validate-risk":
            result = run_validate_risk(cfg)
            for frac in sorted(result.total_risk):
                print(f"clean fraction {frac:.0%}: total selected risk {result.total_risk[frac]:.6g}")
            print(f"strictly decreasing in clean fraction: {'yes' if result.strictly_decreasing else 'no'}")
            print(f"curves: {result.csv_path}")
        else:  # bounds
            for line in run_bounds(cfg).lines:
                print(line)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, InputError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
