"""Command-line interface: train, test, power, render, calibrate.

Exit codes: 0 success (or "accept" for `test`), 1 reject for `test`,
2 usage/validation/config error, 3 missing file, 4 malformed data or
model file, 5 model incompatible with the supplied data.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .engine import (
    TrainConfig,
    calibrate_cutoff,
    config_from_dict,
    dnt_test,
    load_model,
    save_model,
    train,
)
from .errors import ConfigError, DntError, FormatError, ModelMismatchError
from .power import RunConfig, emit_table, null_statistic, run_power_study
from .qq import qq_points, rasterize, to_pgm
from .sampling import Sample, parse_distribution_label, sample

__all__ = ["entrypoint", "main"]

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_FORMAT = 4
EXIT_MISMATCH = 5

# First match wins; every other package error is a usage error.
_ERROR_EXITS = (
    (ModelMismatchError, EXIT_MISMATCH),
    (FormatError, EXIT_BAD_FORMAT),
    (DntError, EXIT_USAGE),
)


# ---------------------------------------------------------------------------
# Config files: flat key=value lines or one JSON object


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not UTF-8 text: {exc}") from None
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        node = data
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"config line {lineno}: {key!r} nests into a scalar")
        if parts[-1] in node:
            raise ConfigError(f"config line {lineno}: repeated key {key.strip()!r}")
        node[parts[-1]] = value.strip()
    return data


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config: repeated key {key!r}")
        data[key] = value
    return data


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_train(args) -> int:
    cfg = config_from_dict(TrainConfig, _read_config_file(args.config), "config")
    model = train(cfg)
    save_model(model, args.out)
    print(f"model written to {args.out}")
    return EXIT_OK


def _read_sample_file(path: str) -> Sample:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: data is not UTF-8 text: {exc}") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise FormatError(
                f"{path}:{lineno}: expected one finite decimal number per line, got {text!r}"
            )
        values.append(value)
    if len(values) < 3:
        raise FormatError(f"{path}: needs at least 3 values, found {len(values)}")
    return Sample(values)


def _cmd_test(args) -> int:
    model = load_model(args.model)
    x = _read_sample_file(args.data)
    report = dnt_test(x, model)
    print(report.summary())
    return EXIT_REJECT if report.reject else EXIT_OK


def _cmd_power(args) -> int:
    cfg = config_from_dict(RunConfig, _read_config_file(args.config), "config")
    out = args.out or cfg.out
    if out is None:
        raise ConfigError("no output path: pass --out or set 'out' in the config")
    table = run_power_study(cfg)
    text = emit_table(table, format=args.format)
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    print(f"power table written to {out}")
    return EXIT_OK


def _cmd_render(args) -> int:
    spec = parse_distribution_label(args.dist)
    x = sample(spec, args.n, args.seed)
    raster = rasterize(qq_points(x))
    with open(args.out, "wb") as handle:
        handle.write(to_pgm(raster))
    print(f"raster written to {args.out}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    statistic = null_statistic(args.stat, args.n)
    cutoff = calibrate_cutoff(statistic, args.n, args.reps, alpha=args.alpha, seed=args.seed)
    print(cutoff)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnt",
        description="Distance-based normality testing and its power-study harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="flat key=value or JSON config")
    p.add_argument("--out", required=True, help="output model path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("test", help="test newline-delimited reals against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("power", help="run the 15-case power study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output table path")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("render", help="dump one Q-Q raster as binary PGM")
    p.add_argument("--dist", required=True, help="label such as t(2) or laplace")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("calibrate", help="print a Monte-Carlo null cutoff")
    p.add_argument("--stat", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--reps", type=int, default=20_000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_calibrate)
    return parser


def entrypoint(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except DntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _ERROR_EXITS if isinstance(exc, kind))

def main() -> None:
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
