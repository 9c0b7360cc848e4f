"""Command line entry point.

Usage: fracbundle run CONFIG [--out DIR] [--seed-override K]
Exit codes: 0 all tasks passed, 1 a task missed its tolerance, 2 bad config
or an unknown flag.  The BLAS thread count, which the last digits of
`measures` depend on, is set only by the environment (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS, MKL_NUM_THREADS) before the process starts.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError
from .runner import run_from_file


def build_parser():
    parser = argparse.ArgumentParser(prog="fracbundle")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the experiment described by a JSON config")
    run.add_argument("config", help="path to the experiment config file")
    run.add_argument("--out", default=None, help="output directory (default: FRACBUNDLE_OUT or config)")
    run.add_argument("--seed-override", type=int, default=None, help="replace the config seed")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        try:
            report, code = run_from_file(
                args.config, out_dir=args.out, seed_override=args.seed_override)
        except (ConfigError, json.JSONDecodeError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        for task in report.tasks:
            line = f"{task.name}: {task.status} ({task.elapsed_s:.2f}s)"
            if task.message:
                line += f" -- {task.message}"
            print(line)
        print("overall:", "pass" if report.passed else "fail")
        return code
    return 2


if __name__ == "__main__":
    sys.exit(main())
