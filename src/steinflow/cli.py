"""Command-line front end: steinflow run | analyze | sweep."""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, decode_float, decode_int, load_json, parse_config
from .experiment import analyze_spectrum, run_experiment, run_sweep

__all__ = ["main"]


def _json_or_text(text):
    """A command-line value: ``text`` decoded as config JSON if it parses, else the text itself."""
    try:
        return json.loads(text, parse_constant=decode_float, parse_float=decode_float, parse_int=decode_int)
    except json.JSONDecodeError:
        return text


def _load_config(path, overrides):
    with open(path, "r", encoding="utf-8") as fh:
        raw = load_json(fh.read())
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        raw[key] = _json_or_text(value)
    return parse_config(json.dumps(raw))


def _parse_values(text):
    return [_json_or_text(token) for token in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="steinflow",
                                     description="particle sampling experiments and spectral analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("config")
    shared.add_argument("--override", action="append", metavar="KEY=VAL",
                        help="override a config key (value parsed as JSON)")

    sub.add_parser("run", parents=[shared], help="run one experiment from a JSON config")

    p_analyze = sub.add_parser("analyze", parents=[shared], help="emit a spectral report for a Gaussian target")
    p_analyze.add_argument("--sweep-param", choices=("a", "alpha"), default=None)
    p_analyze.add_argument("--sweep-values", default=None,
                           help="comma-separated values for the rate table")

    p_sweep = sub.add_parser("sweep", parents=[shared], help="fan out runs over a parameter grid")
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--workers", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, args.override)
        if args.command == "run":
            outdir = run_experiment(cfg)
            print(f"wrote {outdir}")
        elif args.command == "analyze":
            values = _parse_values(args.sweep_values) if args.sweep_values else None
            outdir = analyze_spectrum(cfg, sweep_param=args.sweep_param, sweep_values=values)
            print(f"wrote {outdir}")
        else:
            outdirs = run_sweep(cfg, args.param, _parse_values(args.values),
                                max_workers=args.workers)
            for outdir in outdirs:
                print(f"wrote {outdir}")
    except (ConfigError, OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
