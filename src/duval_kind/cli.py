"""Command-line surface: classify, fundamental-cycle, integral-table, residue.

Exit codes: 0 success, 2 bad arguments / malformed input, 3 an integral
missed its tolerance, 4 graph not negative definite.  Payload goes to stdout,
diagnostics to stderr.  Repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .classify import classify, indented_json
from .cycles import CycleError, fundamental_cycle, is_reduced
from .dual_graph import (
    GraphInvariantError,
    ParameterError,
    build_dynkin,
    is_negative_definite,  # noqa: F401 (span point of bench/tracing.py)
    load_graph,
)
from .models import duval_equation
from .poly import PolynomialParseError, differentiate, parse_polynomial
from .quadrature import (
    QuadratureBudgetError,
    QuadratureRangeError,
    integral_Ik,  # noqa: F401 (span point of bench/tracing.py)
    integral_Ik_bands,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NOT_NEGATIVE_DEFINITE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is already 2
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """A usage error found after parsing; main prints it and exits 2."""


# One parser per process; parsing keeps no state in it.  Its `commands`
# maps each command name to the subparser that parse_argv hands the rest
# of argv to.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="duval-kind", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_classify = sub.add_parser("classify", help="kind verdict for an ADE type")
    p_classify.add_argument("type", choices=["A", "D", "E"])
    p_classify.add_argument("index", type=int)
    p_classify.add_argument("--numerics", action="store_true")
    p_classify.add_argument("--tol", type=float, default=1e-4)
    p_classify.add_argument(
        "--format", choices=["plain", "structured"], default="plain"
    )

    p_cycle = sub.add_parser(
        "fundamental-cycle", help="fundamental cycle of an ADE type or graph file"
    )
    p_cycle.add_argument("type", nargs="?", choices=["A", "D", "E"])
    p_cycle.add_argument("index", nargs="?", type=int)
    p_cycle.add_argument("--graph", metavar="FILE")
    p_cycle.add_argument(
        "--format", choices=["plain", "structured"], default="plain"
    )

    p_table = sub.add_parser(
        "integral-table", help="annulus integral table for an A_n singularity"
    )
    p_table.add_argument("--type", choices=["A", "D", "E"], default="A")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--kmax", type=int, default=3)
    p_table.add_argument("--tol", type=float, default=1e-4)
    p_table.add_argument(
        "--format", choices=["plain", "csv"], default="csv"
    )

    p_residue = sub.add_parser(
        "residue", help="hypersurface equation and residue denominator"
    )
    p_residue.add_argument("type", nargs="?", choices=["A", "D", "E"])
    p_residue.add_argument("index", nargs="?", type=int)
    p_residue.add_argument("--equation", metavar="POLY")

    return parser


def _cmd_classify(args) -> int:
    report = classify(args.type, args.index, with_numerics=args.numerics, rel_tol=args.tol)
    if args.format == "structured":
        print(report.to_json())
    else:
        print(report.to_text())
    return EXIT_OK


def _cmd_cycle(args) -> int:
    positional = args.type is not None or args.index is not None
    if args.graph is not None and not positional:
        try:
            g = load_graph(args.graph)
        except (OSError, ValueError) as exc:  # unreadable, a NUL byte or malformed
            raise SystemExit2(str(exc)) from exc
    elif args.graph is None and args.type is not None and args.index is not None:
        g = build_dynkin(args.type, args.index)
    else:
        raise SystemExit2("expected either --graph FILE or an ADE type and index")
    z = fundamental_cycle(g)
    if args.format == "structured":
        print(indented_json({"coefficients": list(z.coefficients), "reduced": is_reduced(z)}))
    else:
        flag = "reduced" if is_reduced(z) else "not reduced"
        print(" ".join(str(c) for c in z.coefficients) + ", " + flag)
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.type != "A":
        raise SystemExit2("integral table defined only for the A series")
    rows = integral_Ik_bands(args.n, range(1, args.kmax + 1), args.tol)
    sep = "," if args.format == "csv" else " "
    print(sep.join(("k", "value", "error", "truncation_bound", "subregions")))
    for k, res in enumerate(rows, start=1):
        fields = (res.value, res.error_estimate, res.truncation_bound)
        print(sep.join((str(k), *(f"{x:.17e}" for x in fields), str(res.subregions_used))))
    return EXIT_OK


def _cmd_residue(args) -> int:
    positional = args.type is not None or args.index is not None
    if args.equation is not None and not positional:
        try:
            f = parse_polynomial(args.equation)
        except PolynomialParseError as exc:  # caret under the offending character
            raise SystemExit2(f"{exc}\n  {args.equation}\n  {' ' * exc.position}^") from exc
        print(f"f = {f}")
        print(f"df/dz = {differentiate(f, 'z')}")
    elif args.equation is None and args.type is not None and args.index is not None:
        germ = duval_equation(args.type, args.index)
        print(f"f = {germ.equation}")
        print(f"df/dz = {germ.residue_denominator}")
    else:
        raise SystemExit2("expected either --equation POLY or an ADE type and index")
    return EXIT_OK


_HANDLERS = {
    "classify": _cmd_classify,
    "fundamental-cycle": _cmd_cycle,
    "integral-table": _cmd_table,
    "residue": _cmd_residue,
}


# Every error a command can end in, by class; the first class in the
# exception's method resolution order that has an entry gives the code.
_EXIT_CODES = {
    SystemExit2: EXIT_USAGE,
    PolynomialParseError: EXIT_USAGE,
    ParameterError: EXIT_USAGE,
    GraphInvariantError: EXIT_USAGE,
    QuadratureRangeError: EXIT_USAGE,
    QuadratureBudgetError: EXIT_BUDGET,
    CycleError: EXIT_NOT_NEGATIVE_DEFINITE,
}


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv) in one argparse pass: a command's own
    subparser parses the rest of argv, as the top-level parser would hand it
    on.  Empty argv, an unknown command and leftover arguments take the
    top-level parse_args, so every usage line and error is argparse's own."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        return _HANDLERS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    raise SystemExit(main())
