"""Command-line front end.

Commands: dimf, sdimf, dim, sdim, twins, profile, gen, verify.  Graphs come
either from a file (or stdin via ``-``) or from a generator spec string such
as ``petersen`` or ``unicyclic_d(2,3)``.  A file with ``graph <name>`` lines
is a family, as a family spec is; the one-graph commands reject both.
Values print as exact rationals "p/q"; ``--decimal K`` adds the exact value
rounded to K places, marked approximate.

Exit codes: 0 success (verify: all checks passed), 1 failed verify checks,
2 bad input (a file that cannot be read or written included), 3 internal
invariant violation.  A reader that closes stdout early (``fracdim verify
all --json | head -1``) ends the run quietly with exit code 0: the rest of
the output is discarded, without a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import MAX_PREC, Context, Decimal
from fractions import Fraction

from .graph import (Graph, GraphError, GraphFamily, ParseError, _parse_input,
                    format_family_file, format_graph)
from .lp import LpInternalError, format_rational
from .metric import tree_profile, twin_partition
from .dimension import (
    SandwichViolation,
    bounds_report,
    simultaneous_dimension,
    simultaneous_fractional_dimension,
)
from .families import generate, with_complement
from .harness import Budget, SUITE_ORDER, run_suite


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(args) -> GraphFamily:
    """The spec or the file of a command as a family: a graph is the family
    of one, or with ``--with-complement`` the pair of it and its complement."""
    if args.spec is not None and args.input is not None:
        raise ParseError("give either an input file or --spec, not both")
    if args.spec is not None:
        obj = generate(args.spec)
    elif args.input is None:
        raise ParseError("give an input file or --spec")
    else:
        obj = _parse_input(_read_text(args.input))
    if isinstance(obj, Graph):
        return with_complement(obj) if args.with_complement else GraphFamily([obj])
    if not args.family:
        source = f"spec {args.spec!r}" if args.spec else f"file {args.input!r}"
        hint = ("use sdimf/sdim" if args.command in ("dimf", "dim")
                else f"{args.command} takes one graph")
        raise ParseError(f"{source} produces a family; {hint}")
    if args.with_complement:
        raise ParseError("--with-complement needs a single-graph spec or file")
    return obj


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    print(json.dumps(payload, indent=2) if args.json else "\n".join(text_lines))


def _line(label: str, value) -> str:
    """A text line: a label, then one value or a list of them."""
    return f"{label} {' '.join(value) if isinstance(value, list) else value}"


def _rationals(values) -> list[str]:
    return [format_rational(v) for v in values]


def _cmd_fractional(args) -> int:
    fam = _load(args)
    # solve_covering_lp has already re-verified this certificate against
    # this exact instance.  With --bounds the report's pooled solve is it.
    rep = bounds_report(fam) if args.bounds else None
    res = rep.pooled if rep else simultaneous_fractional_dimension(fam)
    payload: dict = {"value": format_rational(res.value)}
    lines = [payload["value"]]
    if rep:
        bounds = payload["bounds"] = {
            "sdf": format_rational(rep.sdf),
            "sd": rep.sd,
            "max_dimf": format_rational(rep.max_dimf),
            "sum_dimf": format_rational(rep.sum_dimf),
            "half_n": format_rational(rep.half_n),
            "per_member_dimf": _rationals(rep.per_member_dimf),
        }
        lines += [_line(label, value) for label, value in bounds.items()]
    if args.assignment:
        payload["assignment"] = _rationals(res.assignment)
        lines.append(_line("assignment", payload["assignment"]))
    if args.certificate:
        payload["dual"] = _rationals(res.certificate)
        payload["constraint_count"] = res.constraint_count
        lines += [_line("dual", payload["dual"]), f"constraints {res.constraint_count}"]
    if args.decimal is not None:
        payload["decimal_approx"] = _decimal(res.value, args.decimal)
        lines.append(f"decimal {payload['decimal_approx']} (approximate)")
    _emit(args, payload, lines)
    return 0


def _cmd_integral(args) -> int:
    value = simultaneous_dimension(_load(args))
    _emit(args, {"value": value}, [str(value)])
    return 0


def _cmd_twins(args) -> int:
    classes = twin_partition(_load(args).members[0]).classes
    payload = {"classes": [list(c) for c in classes]}
    lines = [" ".join(str(v) for v in c) for c in classes]
    _emit(args, payload, lines)
    return 0


def _cmd_profile(args) -> int:
    p = tree_profile(_load(args).members[0])
    payload = {
        "sigma": p.sigma,
        "ex": p.ex,
        "ex1": p.ex1,
        "exterior_majors": [
            {
                "vertex": mv.vertex,
                "terminal_degree": mv.terminal_degree,
                "terminal_vertices": list(mv.terminal_vertices),
            }
            for mv in p.exterior_majors
        ],
    }
    lines = [f"sigma {p.sigma}", f"ex {p.ex}", f"ex1 {p.ex1}"]
    for mv in p.exterior_majors:
        terminals = ",".join(str(v) for v in mv.terminal_vertices)
        lines.append(f"major {mv.vertex} ter {mv.terminal_degree} terminals {terminals}")
    _emit(args, payload, lines)
    return 0


def _cmd_gen(args) -> int:
    obj = generate(args.spec)
    text = format_graph(obj) if isinstance(obj, Graph) else format_family_file(obj)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    names = list(args.suites)
    if names == ["all"]:
        names = list(SUITE_ORDER)
    for name in names:
        if name == "all":
            raise ValueError("suite 'all' must stand alone")
        if name not in SUITE_ORDER:
            raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_ORDER)}, or all alone")
    budget = Budget.parse(args.budget)
    reports = [run_suite(name, budget) for name in names]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.render_text())
    return 0 if all(r.passed for r in reports) else 1


def _decimal(value: Fraction, digits: int) -> str:
    """The exact value rounded to ``digits`` places, ties to even."""
    scaled = Decimal(round(value * 10**digits))
    # Only the exponent moves, so no digit is rounded; and unlike int -> str,
    # Decimal -> str has no length limit.
    return f"{scaled.scaleb(-digits, Context(prec=MAX_PREC)):f}"


def _digits(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        k = -1
    if k < 0:
        raise argparse.ArgumentTypeError(f"K must be an integer >= 0, got {text!r}")
    return k


# The graph commands: name -> (handler, help, whether it takes a family).
_GRAPH_COMMANDS = {
    "dimf": (_cmd_fractional, "fractional dimension of one graph", False),
    "sdimf": (_cmd_fractional, "simultaneous fractional dimension of a family", True),
    "dim": (_cmd_integral, "metric dimension (integral) of one graph", False),
    "sdim": (_cmd_integral, "simultaneous dimension (integral) of a family", True),
    "twins": (_cmd_twins, "twin equivalence classes", False),
    "profile": (_cmd_profile, "tree profile (end-vertices, majors)", False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="fracdim",
        description="Exact (simultaneous) fractional metric dimension of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (func, help_text, family) in _GRAPH_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", help="edge-list or family file ('-' for stdin)")
        p.add_argument("--spec", help="generator spec, e.g. 'wheel(6)' or 'fig1a'")
        if family:
            p.add_argument("--with-complement", action="store_true",
                           help="pair the single input graph with its complement")
        if func is _cmd_fractional:
            if family:
                p.add_argument("--bounds", action="store_true", help="print the bound sandwich")
            p.add_argument("--assignment", action="store_true", help="print the optimal weights")
            p.add_argument("--certificate", action="store_true", help="print the dual certificate")
            p.add_argument("--json", action="store_true", help="JSON output")
            p.add_argument("--decimal", type=_digits, metavar="K", help="also print the value "
                           "rounded to K decimal places (marked approximate)")
        else:
            p.add_argument("--json", action="store_true")
        p.set_defaults(func=func, family=family, with_complement=False, bounds=False)

    p = sub.add_parser("gen", help="emit a spec as an edge list / family file")
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suites", nargs="+", metavar="SUITE",
                   help=f"suite names or 'all'; known: {', '.join(SUITE_ORDER)}")
    p.add_argument("--budget", action="append", metavar="K=V",
                   help="size caps, e.g. --budget n=10 --budget samples=50")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped reading, which is not a fracdim failure.  Point
        # stdout at devnull so the interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ParseError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LpInternalError, SandwichViolation) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
