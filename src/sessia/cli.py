"""Command line runner for the demos.

    sessia-demos run <example> [--start N] [--take N] [--delay-ms N] [--clients K]

Exit codes: 0 on success, 1 if the demo raised, 2 for bad usage. Each demo
prints its transcript lines (KIND<TAB>value); hello prints only the
greeting, which comes from the provider program itself.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .demos import DEMO_NAMES, run_demo

# Which transcript kinds each demo prints; hello's output is its stdout.
_PRINTED_KINDS = {
    "hello": (),
    "counter": ("RECV",),
    "shared-counter": ("ACQ", "RECV", "REL"),
    "canvas": ("ACQ", "RECV", "REL", "END"),
}


def _count(text: str) -> int:
    """A non-negative integer option; argparse exits 2 on anything else."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sessia-demos",
        description="Run the bundled session-typed demos.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one demo and print its transcript")
    run.add_argument("example", choices=DEMO_NAMES)
    run.add_argument("--start", type=int, default=0, help="counter: first value")
    run.add_argument("--take", type=_count, default=5, help="counter: values to take")
    run.add_argument("--delay-ms", type=_count, default=0, help="counter: producer delay")
    run.add_argument("--clients", type=_count, default=2, help="shared-counter: clients")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    kwargs = {}
    if args.example == "counter":
        kwargs = {"start": args.start, "take": args.take, "delay_ms": args.delay_ms}
    elif args.example == "shared-counter":
        kwargs = {"clients": args.clients}
    try:
        transcript = run_demo(args.example, **kwargs)
    except Exception:
        traceback.print_exc()
        return 1
    kinds = _PRINTED_KINDS[args.example]
    for event in transcript:
        if event.kind in kinds:
            print(event.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
