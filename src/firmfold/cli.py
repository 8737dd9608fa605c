"""Command-line front end.

Four subcommands: `verify` reports well-formedness findings, `fold`
rewrites a graph to its fixpoint, `explore` exhausts the rewrite state
space and reports whether it converges, and `example` emits a small
built-in program for experimenting.  Exit codes are uniform: 0 on
success, 1 when the requested outcome was not reached (violations
found, no fixpoint within the step budget, state space too large), 2
on unusable input or arguments, a negative budget among them.  `main`
alone maps failures to these codes: every failure prints one `error:`
line on stderr (after argparse's usage line for a bad argument), with
no traceback, and a run that exits 1 writes no output file.  Any other
exception is a bug and propagates.

Without `--max-steps`, `fold` runs to its fixpoint: its default budget
is the input's element count, which a shrinking rule never reaches
(see `engine.fold`).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .engine import explore, fold
from .errors import GxlError, StateLimitExceeded, StepLimitExceeded
from .graph import RELATIONS, ProgramGraph
from .gxl import DialectTag, export_dot, load, save_native
from .rules import CATALOG, build_min_plus_one
from .verifier import verify


def _read_graph(path: str, dialect_name: str | None) -> ProgramGraph:
    dialect = DialectTag(dialect_name) if dialect_name else None
    return load(Path(path).read_bytes(), dialect)


def _cmd_verify(args: argparse.Namespace) -> int:
    violations = verify(_read_graph(args.input, args.dialect))
    for violation in violations:
        print(violation.render())
    return 1 if violations else 0


def _budget(raw: str) -> int:
    """A step or state budget: a non-negative integer."""
    try:
        if (value := int(raw)) >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw!r}")


def _cmd_fold(args: argparse.Namespace) -> int:
    result = fold(_read_graph(args.input, args.dialect), CATALOG, args.max_steps)
    Path(args.output).write_bytes(save_native(result.graph))
    if args.trace:
        Path(args.trace).write_text(result.format_trace(), encoding="utf-8")
    if args.dot:
        Path(args.dot).write_text(export_dot(result.graph), encoding="utf-8")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    lts = explore(_read_graph(args.input, args.dialect), CATALOG, args.max_states)
    converges = lts.final_states_isomorphic()
    report = (
        f"states: {len(lts.states)}\n"
        f"transitions: {len(lts.transitions)}\n"
        f"final_states: {len(lts.final)}\n"
        f"final_states_isomorphic: {'true' if converges else 'false'}\n"
    )
    if args.report:
        Path(args.report).write_text(report, encoding="utf-8")
    else:
        print(report, end="")
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    Path(args.output).write_bytes(save_native(build_min_plus_one(args.a, args.b, args.rel)))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="firmfold",
        description="Constant folding on program graphs by graph rewriting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dialect(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--dialect",
            choices=[d.value for d in DialectTag],
            help="input dialect (default: auto-detect)",
        )

    p_verify = sub.add_parser("verify", help="check well-formedness")
    p_verify.add_argument("input", help="GXL file to check")
    add_dialect(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_fold = sub.add_parser("fold", help="rewrite to the fixpoint")
    p_fold.add_argument("input", help="GXL file to fold")
    p_fold.add_argument("output", help="native GXL file to write")
    p_fold.add_argument("--trace", help="write the applied rule sequence here")
    p_fold.add_argument("--dot", help="write a Graphviz rendering of the result here")
    p_fold.add_argument(
        "--max-steps",
        type=_budget,
        help="step budget (default: the input's element count, which folding never reaches)",
    )
    add_dialect(p_fold)
    p_fold.set_defaults(handler=_cmd_fold)

    p_explore = sub.add_parser("explore", help="exhaust the rewrite state space")
    p_explore.add_argument("input", help="GXL file to explore from")
    p_explore.add_argument(
        "--max-states", type=_budget, default=10_000, help="state budget (default: 10000)"
    )
    p_explore.add_argument("--report", help="write the report here instead of stdout")
    add_dialect(p_explore)
    p_explore.set_defaults(handler=_cmd_explore)

    p_example = sub.add_parser("example", help="write a built-in example program")
    p_example.add_argument("--a", type=int, default=3, help="first constant")
    p_example.add_argument("--b", type=int, default=5, help="second constant")
    p_example.add_argument(
        "--rel", choices=list(RELATIONS), default="lt", help="comparison relation"
    )
    p_example.add_argument("-o", "--output", required=True, help="native GXL file to write")
    p_example.set_defaults(handler=_cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (StepLimitExceeded, StateLimitExceeded) as exc:
        failure, code = exc, 1
    except (GxlError, OSError) as exc:
        failure, code = exc, 2
    print(f"error: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
