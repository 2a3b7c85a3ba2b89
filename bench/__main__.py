"""``python -m bench`` — run, measure one workload for a driver, or compare.

    PYTHONPATH=src python -m bench run [--seed 2019] [--workload NAME ...] [--out FILE] [--smoke]
    python -m bench measure --workload NAME --seed N --seconds S --trace 0|1
    python -m bench compare A.json B.json
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import ensure_repro_importable, metrics
from .common import Options

KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"


def _options(args: argparse.Namespace) -> Options:
    ambient = os.environ.get(KERNEL_BACKEND_ENV)
    if ambient not in (None, "", "numpy") and args.kernel_backend is None:
        raise SystemExit(
            f"{KERNEL_BACKEND_ENV}={ambient!r} would silently change what is measured; "
            "unset it or pass --kernel-backend explicitly"
        )
    return Options(
        seed=args.seed,
        seconds=args.seconds,
        smoke=getattr(args, "smoke", False),
        kernel_backend=args.kernel_backend,
    )


def _add_common(parser: argparse.ArgumentParser, default_seconds: float) -> None:
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--kernel-backend", default=None)


def _parser() -> argparse.ArgumentParser:
    run_seconds = float(metrics.contract()["run_seconds"])
    names = metrics.workload_names()
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="every workload, untraced then traced")
    _add_common(run, run_seconds)
    run.add_argument("--workload", action="append", choices=names, dest="workloads")
    run.add_argument("--out", type=Path, default=None, help="result file (default bench/results/)")
    run.add_argument("--smoke", action="store_true", help="tiny sizes, one repetition")

    measure = commands.add_parser("measure", help="one workload, one JSON line (driver contract)")
    _add_common(measure, run_seconds)
    measure.add_argument("--workload", required=True, choices=names)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)

    compare = commands.add_parser("compare", help="do two result files agree?")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "compare":
        from .compare import main as compare_main

        return compare_main(args.a, args.b)

    options = _options(args)
    ensure_repro_importable()
    from . import ledger

    if args.command == "measure":
        traced = bool(args.trace)
        outcome = ledger.run_workload(args.workload, options, traced=traced)
        for check, ok in outcome.checks.items():
            if not ok:
                ledger.progress(f"check failed: {check}")
        names = metrics.per_layer_names() if traced else list(metrics.end_to_end())
        print(ledger.driver_line(outcome, names), flush=True)
        return 0 if outcome.correct else 1

    document = ledger.run_all(
        options, args.workloads or metrics.workload_names(), log=ledger.progress
    )
    path = ledger.write_document(document, args.out)
    print(ledger.format_tables(document))
    print(f"result file: {path}")
    return 0 if document["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
