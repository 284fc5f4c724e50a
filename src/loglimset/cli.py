"""Command-line front end for limit-set and boundary-slope computations.

Every command is a thin composition of library calls: input polynomials are
parsed over an explicitly given variable order (never guessed), results are
emitted as JSON lines, CSV or gnuplot-style columns, and identical
invocations produce byte-identical output.  Errors are reported as one JSON
object on stderr with a nonzero exit code.

Each command is described once, in ``COMMANDS``.  A plain command line is
read off that table by ``_quick_parse``; the argparse tree is built from it
only for help, for errors and for unusual spellings, so argparse stays the
one source of help and error text.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

from .knots import TorusKnotParams, a_bar_polynomial, a_polynomial
from .laurent import LaurentPolynomial, ParseError
from .loglim import SampleParams, cluster_directions, csv_lines, loglim_outer, plotdata_lines, sample_loglim
from .polytope import newton_polytope
from .slopes import detect_boundary_coordinates, format_slope, sort_slopes
from .sphdual import ray_directions, spherical_dual

DEFAULT_HEIGHT = 8


class CliUsageError(ValueError):
    """Bad command line or inconsistent options."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _split_vars(raw: str) -> tuple[str, ...]:
    names = tuple(v.strip() for v in raw.split(",") if v.strip())
    if not names:
        raise CliUsageError("--vars must list at least one variable name")
    return names


def _read_polynomials(args: argparse.Namespace) -> list[LaurentPolynomial]:
    variables = _split_vars(args.vars)
    polys: list[LaurentPolynomial] = []
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        for line in text.splitlines():
            body = line.split("#", 1)[0].strip()
            if body:
                polys.append(LaurentPolynomial.parse(body, variables))
    if not polys:
        raise CliUsageError(f"no polynomials found in {', '.join(args.files)}")
    return polys


def _height(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("height must be at least 1")
    return value


# ----------------------------------------------------------------------
# commands


def cmd_newton(args: argparse.Namespace) -> str:
    out = []
    for poly in _read_polynomials(args):
        out.append(_json_line(newton_polytope(poly).to_json_dict()))
    return "".join(out)


def cmd_sphdual(args: argparse.Namespace) -> str:
    polys = _read_polynomials(args)
    if args.format == "plotdata":
        return "".join(_complex_plotdata(spherical_dual(p)) for p in polys)
    return "".join(_json_line(spherical_dual(p).to_json_dict()) for p in polys)


def cmd_loglim(args: argparse.Namespace) -> str:
    generators = _read_polynomials(args)
    payload = loglim_outer(generators).to_json_dict()
    nonzero = sum(1 for g in generators if not g.is_zero())
    payload["outer"] = nonzero > 1
    if not nonzero:
        payload["warning"] = "all generators zero"
    return _json_line(payload)


def cmd_slopes(args: argparse.Namespace) -> str:
    h, odd = divmod(len(_split_vars(args.vars)), 2)
    if odd:
        raise CliUsageError("slope detection needs an even number of variables")
    coordinates = detect_boundary_coordinates(loglim_outer(_read_polynomials(args)), args.height)
    payload = {
        "h": h,
        "coordinates": sorted(list(c.entries) for c in coordinates),
        "slopes": [format_slope(s) for s in sort_slopes({c.slope() for c in coordinates})]
        if h == 1
        else [],
    }
    return _json_line(payload)


def cmd_torusknot(args: argparse.Namespace) -> str:
    knot = TorusKnotParams(args.p, args.q)
    factors = a_bar_polynomial(knot) if args.psl2 else a_polynomial(knot)
    expanded = factors.expand()
    variables = expanded.variables
    height = max(args.height, knot.pq)
    dual = spherical_dual(expanded)
    coordinates = detect_boundary_coordinates(dual, height)
    slopes = sort_slopes({c.slope() for c in coordinates})
    if args.format == "json":
        payload = {
            "p": knot.p,
            "q": knot.q,
            "psl2": args.psl2,
            "variables": list(variables),
            "factors": [poly.render() for poly in factors],
            "expanded": expanded.render(),
            "height": height,
            "coordinates": sorted(list(c.entries) for c in coordinates),
            "slopes": [format_slope(s) for s in slopes],
        }
        return _json_line(payload)
    kind = "squared-eigenvalue generator" if args.psl2 else "A-polynomial"
    lines = [
        f"# torus knot ({knot.p},{knot.q}) {kind} over ({', '.join(variables)})",
        "# factors: " + " * ".join(f"({poly.render()})" for poly in factors),
        expanded.render(),
        f"# boundary slopes (height {height}): "
        + ", ".join(format_slope(s) for s in slopes),
    ]
    return "\n".join(lines) + "\n"


def cmd_sample(args: argparse.Namespace) -> str:
    params = SampleParams(
        rho_min=args.rho_min, rho_max=args.rho_max, grid=args.grid, phases=args.phases, seed=args.seed
    )
    polys = _read_polynomials(args)
    if len(polys) != 1:
        raise CliUsageError("sample expects exactly one polynomial")
    result = sample_loglim(polys[0], params)
    clusters = cluster_directions(result.points)
    lines: list[str] = []
    if args.format == "plotdata":
        lines.extend(plotdata_lines(result.points))
    else:
        lines.append("radius,d1,d2")
        lines.extend(csv_lines(result.points))
    lines.append(f"# skipped grid points: {len(result.skipped)}")
    lines.append("# clusters (top radius decile, tolerance 0.02)")
    for i, (rep, count) in enumerate(clusters, start=1):
        lines.append(f"# cluster {i}: direction=({rep[0]!r}, {rep[1]!r}) count={count}")
    lines.append("")  # the final newline, without a second copy of the output
    return "\n".join(lines)


def _complex_plotdata(complex_) -> str:
    if complex_.dim != 2:
        raise CliUsageError("plotdata output is only defined for two variables")
    lines = []
    for ray in ray_directions(complex_):
        norm = math.sqrt(sum(x * x for x in ray))
        lines.append(f"{ray[0] / norm!r} {ray[1] / norm!r}")
    return "\n".join(lines) + "\n" if lines else "\n"


# ----------------------------------------------------------------------
# wiring

_FILES = ("files", {"nargs": "+", "help": "polynomial files, one generator per line"})
_VARS = ("--vars", {"required": True, "help": "comma-separated variable order"})
_HEIGHT = ("--height", {"type": _height, "default": DEFAULT_HEIGHT})

# name: (help, handler, arguments), each argument its add_argument name and
# keywords; build_parser and _quick_parse both read this table
COMMANDS = {
    "newton": ("Newton polytope vertices as JSON", cmd_newton, (_FILES, _VARS)),
    "sphdual": (
        "spherical dual of each polynomial",
        cmd_sphdual,
        (_FILES, _VARS, ("--format", {"choices": ("json", "plotdata"), "default": "json"})),
    ),
    "loglim": ("limit set (outer approximation for ideals)", cmd_loglim, (_FILES, _VARS)),
    "slopes": ("boundary curve coordinates and slopes", cmd_slopes, (_FILES, _VARS, _HEIGHT)),
    "torusknot": (
        "torus-knot eigenvalue polynomial and slopes",
        cmd_torusknot,
        (
            ("p", {"type": int}),
            ("q", {"type": int}),
            ("--psl2", {"action": "store_true", "help": "emit the squared-eigenvalue form"}),
            _HEIGHT,
            ("--format", {"choices": ("text", "json"), "default": "text"}),
        ),
    ),
    "sample": (
        "numerically sample a plane curve near infinity",
        cmd_sample,
        (
            _FILES,
            _VARS,
            ("--rho-min", {"default": SampleParams.rho_min}),
            ("--rho-max", {"default": SampleParams.rho_max}),
            ("--grid", {"type": int, "default": SampleParams.grid}),
            ("--phases", {"type": int, "default": SampleParams.phases}),
            ("--seed", {"type": int, "default": SampleParams.seed}),
            ("--format", {"choices": ("csv", "plotdata"), "default": "csv"}),
        ),
    ),
}


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loglimset",
        description="Logarithmic limit sets of Laurent-polynomial varieties "
        "and boundary-slope detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
        command.set_defaults(run=handler)
    return parser


def _convert(keywords: dict, text: str):
    """One value as argparse converts and checks it; raises if argparse would refuse it."""
    value = keywords.get("type", str)(text)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(text)
    return value


def _quick_parse(argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, or None.

    Reads only a plain line: a command, then its positionals as one run and
    each of its options at most once, spelled in full, with one value that
    does not start with "-" unless the option is a flag.  Anything else (help,
    an abbreviation, "--opt=value", "--", a repeated option, a negative
    number, a bad or missing value) gives None, for argparse to parse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, arguments = COMMANDS[argv[0]]
    positionals = [(flag, keywords) for flag, keywords in arguments if not flag.startswith("-")]
    options = {flag: keywords for flag, keywords in arguments if flag.startswith("-")}
    values = {"command": argv[0], "run": handler}
    run: list = []
    after_positional = False
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                if run and not after_positional:
                    return None
                run.append(token)
                after_positional = True
                continue
            after_positional = False
            keywords = options.get(token)
            dest = token[2:].replace("-", "_")
            if keywords is None or dest in values:
                return None
            if keywords.get("action") == "store_true":
                values[dest] = True
                continue
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            values[dest] = _convert(keywords, value)
        count = len(positionals)
        if positionals[-1][1].get("nargs") == "+" and len(run) >= count:
            run[count - 1 :] = [run[count - 1 :]]  # the last one takes the rest of the run
        elif len(run) != count:
            return None
        for (dest, keywords), text in zip(positionals, run):
            values[dest] = [_convert(keywords, t) for t in text] if isinstance(text, list) else _convert(keywords, text)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    for flag, keywords in options.items():
        dest = flag[2:].replace("-", "_")
        if dest not in values:
            if keywords.get("required"):
                return None
            values[dest] = keywords.get("default", False if keywords.get("action") == "store_true" else None)
    return argparse.Namespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _quick_parse(argv)
        if args is None:  # help, an error or an unusual spelling
            args = build_parser().parse_args(argv)
        output = args.run(args)
    except CliUsageError as exc:
        sys.stderr.write(_json_line({"error": "usage", "message": str(exc)}))
        return 2
    except ParseError as exc:
        sys.stderr.write(
            _json_line({"error": "parse", "message": str(exc), "position": exc.position})
        )
        return 1
    except (ValueError, OSError, ArithmeticError) as exc:
        sys.stderr.write(_json_line({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    except MemoryError as exc:
        # numpy raises a private subclass; report the builtin name
        sys.stderr.write(_json_line({"error": "MemoryError", "message": str(exc)}))
        return 1
    sys.stdout.write(output)
    return 0


def entry() -> None:
    sys.exit(main())
