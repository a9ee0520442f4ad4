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


_TYPES = ["A", "D", "E"]

# Each command's help and its arguments as (name, add_argument keywords),
# positionals first.  build_parser adds them in this order, and _direct
# reads plain argv from them.  _direct takes an option's dest as its name
# after "--" and its default from its keywords, None when absent as in
# argparse, so the store_true flag states its default False.
_GRAMMAR = {
    "classify": ("kind verdict for an ADE type", [
        ("type", {"choices": _TYPES}),
        ("index", {"type": int}),
        ("--numerics", {"action": "store_true", "default": False}),
        ("--tol", {"type": float, "default": 1e-4}),
        ("--format", {"choices": ["plain", "structured"], "default": "plain"}),
    ]),
    "fundamental-cycle": ("fundamental cycle of an ADE type or graph file", [
        ("type", {"nargs": "?", "choices": _TYPES}),
        ("index", {"nargs": "?", "type": int}),
        ("--graph", {"metavar": "FILE"}),
        ("--format", {"choices": ["plain", "structured"], "default": "plain"}),
    ]),
    "integral-table": ("annulus integral table for an A_n singularity", [
        ("--type", {"choices": _TYPES, "default": "A"}),
        ("--n", {"type": int, "required": True}),
        ("--kmax", {"type": int, "default": 3}),
        ("--tol", {"type": float, "default": 1e-4}),
        ("--format", {"choices": ["plain", "csv"], "default": "csv"}),
    ]),
    "residue": ("hypersurface equation and residue denominator", [
        ("type", {"nargs": "?", "choices": _TYPES}),
        ("index", {"nargs": "?", "type": int}),
        ("--equation", {"metavar": "POLY"}),
    ]),
}


# One parser per process; parsing keeps no state in it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of _GRAMMAR.  It parses every argv that _direct
    does not, and so writes every usage line, help text and error."""
    parser = _Parser(prog="duval-kind", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _GRAMMAR.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, keywords in arguments:
            command_parser.add_argument(name, **keywords)
    return parser


def _value(keywords: dict, word: str):
    """word converted by its argument's type; ValueError when the
    conversion fails or the value is not one of the choices."""
    value = keywords.get("type", str)(word)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(word)
    return value


def _direct(argv: list[str]) -> argparse.Namespace | None:
    """build_parser().parse_args(argv) read straight from _GRAMMAR, for argv
    in its plain form: a command, then its positionals, then each of its
    options at most once as `--name value` or `--name=value` (flags bare),
    every value converted by its type into its choices, no value starting
    with '-', and every required argument present.  None for any other
    argv, which argparse then parses."""
    grammar = _GRAMMAR.get(argv[0]) if argv else None
    if grammar is None:
        return None
    values = {"command": argv[0]}
    options = {}
    words = argv[1:]
    at = 0
    try:
        for name, keywords in grammar[1]:
            if name[0] == "-":
                options[name] = keywords
                values[name[2:]] = keywords.get("default")
            elif at < len(words) and words[at][:1] != "-":
                values[name] = _value(keywords, words[at])
                at += 1
            elif keywords.get("nargs") == "?":
                values[name] = None
            else:
                return None
        while at < len(words):
            name, equals, word = words[at].partition("=")
            keywords = options.pop(name)  # KeyError: not an option here, or repeated
            if "action" in keywords:  # a flag
                if equals:
                    return None
                values[name[2:]] = True
            else:
                if not equals:
                    at += 1
                    word = words[at]  # IndexError: the value is missing
                if word[:1] == "-":
                    return None
                values[name[2:]] = _value(keywords, word)
            at += 1
    except (IndexError, KeyError, ValueError):
        return None
    if any(keywords.get("required") for keywords in options.values()):
        return None
    return argparse.Namespace(**values)


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
        try:  # both lines before either is printed
            text = f"f = {f}\ndf/dz = {differentiate(f, 'z')}"
        except ValueError as exc:  # past the digit limit of int to str
            raise SystemExit2("a coefficient of f or df/dz has too many digits to print") from exc
        print(text)
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
    """build_parser().parse_args(argv).  Plain argv is read from _GRAMMAR
    by _direct; every other argv goes to argparse, which so writes every
    usage line, help text and error."""
    return _direct(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
        return _HANDLERS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    raise SystemExit(main())
