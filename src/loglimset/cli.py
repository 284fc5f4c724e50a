"""Command-line front end for limit-set and boundary-slope computations.

Every command is a thin composition of library calls: input polynomials are
parsed over an explicitly given variable order (never guessed), results are
emitted as JSON lines, CSV or gnuplot-style columns, and identical
invocations produce byte-identical output.  Errors are reported as one JSON
object on stderr with a nonzero exit code.
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


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="loglimset",
        description="Logarithmic limit sets of Laurent-polynomial varieties "
        "and boundary-slope detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("files", nargs="+", help="polynomial files, one generator per line")
        p.add_argument("--vars", required=True, help="comma-separated variable order")

    p_newton = sub.add_parser("newton", help="Newton polytope vertices as JSON")
    add_common(p_newton)
    p_newton.set_defaults(run=cmd_newton)

    p_dual = sub.add_parser("sphdual", help="spherical dual of each polynomial")
    add_common(p_dual)
    p_dual.add_argument("--format", choices=("json", "plotdata"), default="json")
    p_dual.set_defaults(run=cmd_sphdual)

    p_log = sub.add_parser("loglim", help="limit set (outer approximation for ideals)")
    add_common(p_log)
    p_log.set_defaults(run=cmd_loglim)

    p_slopes = sub.add_parser("slopes", help="boundary curve coordinates and slopes")
    add_common(p_slopes)
    p_slopes.add_argument("--height", type=_height, default=DEFAULT_HEIGHT)
    p_slopes.set_defaults(run=cmd_slopes)

    p_knot = sub.add_parser("torusknot", help="torus-knot eigenvalue polynomial and slopes")
    p_knot.add_argument("p", type=int)
    p_knot.add_argument("q", type=int)
    p_knot.add_argument("--psl2", action="store_true", help="emit the squared-eigenvalue form")
    p_knot.add_argument("--height", type=_height, default=DEFAULT_HEIGHT)
    p_knot.add_argument("--format", choices=("text", "json"), default="text")
    p_knot.set_defaults(run=cmd_torusknot)

    p_sample = sub.add_parser("sample", help="numerically sample a plane curve near infinity")
    add_common(p_sample)
    p_sample.add_argument("--rho-min", default=SampleParams.rho_min)
    p_sample.add_argument("--rho-max", default=SampleParams.rho_max)
    p_sample.add_argument("--grid", type=int, default=SampleParams.grid)
    p_sample.add_argument("--phases", type=int, default=SampleParams.phases)
    p_sample.add_argument("--seed", type=int, default=SampleParams.seed)
    p_sample.add_argument("--format", choices=("csv", "plotdata"), default="csv")
    p_sample.set_defaults(run=cmd_sample)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
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
