"""ksctl: run a scenario from a declarative config file.

    ksctl <task> --config <file> [--out dir] [--seed n]

The task argument must match the config's task field (a guard against
running the wrong file).
"""

from __future__ import annotations

import argparse
import sys

from .config import TASKS, parse_config
from .errors import ConfigError, KSControlError
from .runner import run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksctl",
        description="Spectral null-control toolkit for fourth-order parabolic problems "
                    "on intervals and box cylinders",
    )
    parser.add_argument("task", choices=TASKS, help="scenario task (must match the config)")
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = parse_config(args.config)
        if scenario.task != args.task:
            raise ConfigError("task", f"config declares {scenario.task!r}, CLI asked {args.task!r}")
        manifest, run_dir = run_scenario(scenario, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print(f"ksctl: config error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KSControlError as exc:
        print(f"ksctl: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
