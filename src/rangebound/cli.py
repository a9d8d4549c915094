"""Command-line front end.

Commands:
  run <config>      simulate the configured seeds and write CSVs + manifest
  figures <config>  emit the six reference series for the first seed
  verify <config>   run envelope / identity / equivalence / convergence suites

Exit codes: 0 success, 1 configuration error (a usage error and a grid too
large to allocate included), 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
from .errors import ConfigurationError
from .experiment import emit_figures, run_experiment, verify_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFICATION = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit 1 with one line, not argparse's 2."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rangebound",
        description="Simulate diffusion paths and their range-bounded phasor transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "simulate seeds and write CSV outputs plus a manifest"),
        ("figures", "write the six reference CSV series"),
        ("verify", "run the verification suites and gate on the envelope checks"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a key = value config file")
        cmd.add_argument("--out", help="override the configured output directory")
        cmd.add_argument(
            "--seed-override",
            type=int,
            default=None,
            metavar="SEED",
            help="replace the configured seed list with this single seed",
        )
        cmd.add_argument(
            "--levels",
            type=int,
            default=4,
            help="refinement levels for convergence studies, at least 3 (default 4)",
        )
    return parser


def _load_config(args):
    config_path = Path(args.config)
    try:
        text = config_path.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {config_path}: {exc}") from exc
    config = parse_config(text, base_dir=config_path.parent)
    seeds = [args.seed_override] if args.seed_override is not None else None
    return config.with_overrides(seeds=seeds, output_dir=args.out)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args)
        if args.command == "run":
            manifest = run_experiment(config, convergence_levels=args.levels)
            for warning in manifest.warnings:
                print(f"warning: {warning}")
            print(f"wrote {len(manifest.files)} files under {config.output_dir}")
            return EXIT_OK
        if args.command == "figures":
            files = emit_figures(config)
            for written in files:
                print(written)
            return EXIT_OK
        summary = verify_suite(config, convergence_levels=args.levels)
        for line in summary.lines():
            print(line)
        return EXIT_VERIFICATION if summary.failed else EXIT_OK
    except (ConfigurationError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
