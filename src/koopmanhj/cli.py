"""Command-line front end.

Subcommands: ``eigfun`` (spectral approximation from samples), ``solve``
(stationary solution by procedure 1 or 2), ``simulate`` (closed-loop
comparison rollouts), ``converge`` (error-vs-sample-count study).  Each
reads one YAML configuration, writes CSV results plus a plain-text report
into the output directory, and echoes the fully resolved configuration for
reproducibility.

Exit codes: 0 success, 1 configuration error (including bad command-line
usage), 2 numerical failure (diagnostic on standard error).

This module imports nothing heavy at the top level: ``--threads`` pins the
BLAS thread count via environment variables, which only works if it happens
before numpy is first imported.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

__all__ = ["main"]

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="koopman-hj",
        description=(
            "Approximate stationary Hamilton-Jacobi solutions for "
            "control-affine systems from sampled data, and validate the "
            "resulting feedback laws in closed loop."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("eigfun", "approximate principal eigenfunctions and report residuals"),
        ("solve", "construct the stationary solution (procedure 1 or 2)"),
        ("simulate", "closed-loop rollouts and controller comparison"),
        ("converge", "eigenfunction error versus sample count"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[], add_help=True)
        p.add_argument("--config", required=True, help="path to the YAML run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="sample seed (overrides config)")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="BLAS thread count (default 1 for bit-reproducible output)",
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(max(1, args.threads))

    from . import _commands
    from .config import ConfigError, load_config

    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        runner = {
            "eigfun": _commands.cmd_eigfun,
            "solve": _commands.cmd_solve,
            "simulate": _commands.cmd_simulate,
            "converge": _commands.cmd_converge,
        }[args.command]
        runner(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 — numerical failures map to exit 2
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
