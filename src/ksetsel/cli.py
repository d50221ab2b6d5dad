"""Command line entry point.

One subcommand per entry of harness.MODES.  Each accepts --config PATH
(flat key = value file) plus a few flags that override file values.  A
flag's text stands in for its config key's file value and is parsed the
same way, so `--seed 1,2` runs two seeds and a bad flag value is a
config error.  Each run's result renders its own report lines.  Exit
codes: 0 on success, 1 on a config problem (a usage error included), 2
on a data problem.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DataError, InputError, ParameterError
from .harness import (
    MODES,
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

# (flag, config key, help) for each override flag.
_FLAGS = (
    ("--seed", "seeds", "replace the seed list; takes what the seeds key takes, so 1,2 runs two seeds"),
    ("--out", "out", "output CSV path"),
    ("--selector", "selectors", "replace the selector list (fpl, naive, greedy, random)"),
    ("--eta-coef", "eta_coefficient", "perturbation coefficient; eta = coef * sqrt(kT)"),
    ("--k-frac", "k_frac", "selection size as a fraction of n"),
    ("--noise", "noise", "label noise as sym:RATE or asym:RATE"),
)


def _runners() -> dict:
    """Each mode's run function, looked up at call time.

    So a wrapper bound over one of this module's names (a tracer, a
    test double) is the function a run calls.
    """
    return {
        "simulate": run_simulate,
        "train": run_train,
        "ablate": run_ablate,
        "grid": run_grid_search,
        "validate-risk": run_validate_risk,
        "bounds": run_bounds,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksetsel",
        description="Online adaptive k-set sample selection experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, text in MODES.items():
        p = sub.add_parser(mode, help=text)
        p.add_argument("--config", help="flat key = value config file")
        for flag, key, text in _FLAGS:
            p.add_argument(flag, dest=key, metavar=flag[2:].upper().replace("-", "_"), help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the mode argv names and return its exit code; a usage error returns 1 where argparse would exit 2."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as done:
        if done.code == 0:
            raise
        return EXIT_CONFIG
    try:
        raw = parse_config_file(args.config) if args.config else {}
        raw["mode"] = args.mode
        if args.k_frac is not None:
            raw.pop("k", None)
        # Flags win over file values.
        raw.update({key: getattr(args, key) for _, key, _ in _FLAGS if getattr(args, key) is not None})
        cfg = build_config(raw)
        for line in _runners()[cfg.mode](cfg).lines():
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
