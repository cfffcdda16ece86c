"""Command-line entry point.

    fermisim run --experiment fig3 --steps 8 --noise paper --seed 42 \
        --out results/
    fermisim sweep --experiment fig3 --axis steps --from 1 --to 8 \
        --out results/

Exit codes: 0 on success, 2 on configuration errors (including a config
file that is missing, unreadable or not a JSON object), 3 on numerical
failures (fit, optimiser or reconstruction breakdowns, an overflowing
exact evolution), 4 when the output directory or its files cannot be
written.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .benchmarking import ClosureError, FitError
from .experiments import (
    EXPERIMENTS,
    MAX_STEPS,
    SWEEP_AXES,
    ConfigError,
    ExperimentConfig,
    run,
    sweep,
)
from .tomography import ReconstructionError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _parse_noise(text: str) -> float | None:
    if text == "off":
        return None
    if text == "paper":
        return 1.0
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"noise: expected 'off', 'paper', or a scale factor, got {text!r}"
        ) from None


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="ascii") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: "
                          f"{exc.strerror or exc}") from None
    except ValueError as exc:  # malformed JSON or non-ASCII bytes
        raise ConfigError(f"config: {path} is not valid JSON: "
                          f"{exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"config: {path} must hold a JSON object, "
                          f"not {type(payload).__name__}")
    return payload


def _build_config(args) -> ExperimentConfig:
    payload = {}
    if args.config:
        payload = _read_config(args.config)
    if args.experiment is not None:
        payload["experiment"] = args.experiment
    if args.out is not None:
        payload["out_dir"] = args.out
    if args.steps is not None:
        payload["steps"] = args.steps
    if args.noise is not None:
        payload["noise_scale"] = _parse_noise(args.noise)
    if args.seed is not None:
        payload["seed"] = args.seed
    if args.ordering is not None:
        payload["ordering"] = args.ordering
    if "experiment" not in payload:
        raise ConfigError("experiment: required (flag or config file)")
    if "out_dir" not in payload:
        raise ConfigError("out_dir: required (--out or config file)")
    return ExperimentConfig.from_json_dict(payload)


def _add_common(parser) -> None:
    parser.add_argument("--experiment", choices=list(EXPERIMENTS))
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--steps", type=int)
    parser.add_argument("--noise", help="off | paper | <scale factor>")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--ordering", choices=["s5", "s6"])
    parser.add_argument("--config", help="JSON config file to merge")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as
    it was, so every invocation shares it."""
    parser = argparse.ArgumentParser(
        prog="fermisim",
        description="Fermionic-model circuit compilation and verification "
                    "experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment")
    _add_common(run_p)
    sweep_p = sub.add_parser("sweep", help="run an experiment over one axis")
    _add_common(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--from", dest="from_", type=float)
    sweep_p.add_argument("--to", dest="to", type=float)
    sweep_p.add_argument("--values", nargs="+",
                         help="explicit axis values (overrides --from/--to)")
    return parser


def _axis_number(axis: str, value):
    """A noise scale, or an integer step count, from text or a float."""
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"values: {value!r} is not a number") from None
    if axis == "steps" and not number.is_integer():
        raise ConfigError(f"values: {value!r} is not an integer step count")
    return int(number) if axis == "steps" else number


def _sweep_values(args) -> list:
    if args.axis == "ordering":
        values = list(args.values or ["s5", "s6"])
    elif args.values:
        values = [_axis_number(args.axis, v) for v in args.values]
    elif args.from_ is None or args.to is None:
        raise ConfigError("axis: need --values or --from/--to")
    elif args.axis == "steps":
        start, stop = (_axis_number("steps", v) for v in (args.from_, args.to))
        if stop - start >= MAX_STEPS:
            raise ConfigError(
                f"values: a --from/--to step range spans at most "
                f"{MAX_STEPS} values, not {stop - start + 1}")
        values = list(range(start, stop + 1))
    else:
        values = [args.from_, args.to]
    if not values:
        raise ConfigError(f"values: the {args.axis} sweep is empty")
    return values


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "run":
            summary = run(config)
            print(json.dumps({"experiment": config.experiment,
                              "out_dir": config.out_dir,
                              "ok": True}, sort_keys=True))
        else:
            values = _sweep_values(args)
            sweep(config, args.axis, values)
            print(json.dumps({"experiment": config.experiment,
                              "axis": args.axis,
                              "values": [str(v) for v in values],
                              "ok": True}, sort_keys=True))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, ReconstructionError, ClosureError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # the config was read above: this is output
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
