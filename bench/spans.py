"""Span tracing at the layer boundaries of ``loglimset``, from outside.

:func:`install` wraps the public functions that sit between layers and
rebinds each wrapper in every ``loglimset`` module namespace that holds the
original (the package imports with ``from .x import f``, so rebinding only
the defining module would miss most calls).  Spans are kept in memory as
``(name, start, end, parent, pass_id, attrs)`` and written out once the pass
is over.  Helper functions such as ``dot`` or ``primitive_vector`` are never
wrapped: the per-call cost would swamp them.

The second half derives the per-layer metrics of one traced pass from its
spans; ``METRICS`` gives for each of those metrics the layer it belongs to
and the end-to-end metric and workloads it should move.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded dict becomes the span's attributes."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        attrs: dict = {}
        record = [name, 0.0, 0.0, parent, self.pass_id, attrs]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield attrs
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, note=None):
        """Wrapper of fn recording a span; note(result, args) gives its attributes."""

        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if note is not None:
                    attrs.update(note(result, args))
            return result

        traced.__wrapped__ = fn
        return traced


def _rebind(original, replacement) -> int:
    """Replace every module-level reference to original inside loglimset."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "loglimset" or mod_name.startswith("loglimset.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


# (module, function, span name, attributes from the result)
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("knots", "a_polynomial", "knots.corpus", None),
    ("knots", "a_bar_polynomial", "knots.corpus", None),
    ("polytope", "newton_polytope", "polytope.newton", None),
    ("exactgeom", "solve_nonneg", "exactgeom.lp", lambda x, _: {"infeasible": x is None}),
    ("exactgeom", "cone_dimension", "exactgeom.cone_dimension", None),
    ("exactgeom", "interior_point", "exactgeom.interior_point", None),
    ("exactgeom", "cone_contains", "exactgeom.cone_contains", None),
    ("sphdual", "pair_cone", "sphdual.pair_cone", None),
    ("sphdual", "reduce_to_maximal", "sphdual.reduce", lambda r, _: {"n": len(r)}),
    ("sphdual", "rational_points", "sphdual.rational_points", lambda r, _: {"n": len(r)}),
    ("slopes", "detect_boundary_coordinates", "slopes.detect", lambda r, _: {"n": len(r)}),
    ("loglim", "loglim_outer", "loglim.outer", None),
    (
        "loglim",
        "sample_loglim",
        "loglim.sample",
        lambda r, args: {
            "points": len(r.points),
            "skipped": len(r.skipped),
            # two sweeps over every (magnitude, phase) grid point
            "grid": 2 * args[1].grid * args[1].phases,
        },
    ),
)


def install(tracer: Tracer) -> None:
    """Wrap every layer-boundary function of an imported ``loglimset``."""
    import importlib

    for mod_name, attr, span_name, note in FUNCTIONS:
        module = importlib.import_module(f"loglimset.{mod_name}")
        original = getattr(module, attr)
        if _rebind(original, tracer.wrap(span_name, original, note)) == 0:
            raise RuntimeError(f"loglimset.{mod_name}.{attr} is bound nowhere")

    from loglimset.laurent import LaurentPolynomial
    from loglimset.sphdual import SphericalComplex

    parse = LaurentPolynomial.__dict__["parse"].__func__
    LaurentPolynomial.parse = classmethod(tracer.wrap("laurent.parse", parse))
    cells = SphericalComplex.cells.fget
    SphericalComplex.cells = property(tracer.wrap("sphdual.cells", cells, lambda r, _: {"n": len(r)}))


# ----------------------------------------------------------------------
# derived metrics


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans, analyze_hits: int, analyze_misses: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``*_s`` metrics sum the full duration of the named spans, except
    ``slopes.detect_s`` and ``cli.self_s``, which are self times (the
    direction enumeration and the library calls under them are measured by
    their own metrics).
    """
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    count: dict[str, int] = {}
    for span, name, s in zip(spans, names, selfs):
        total[name] = total.get(name, 0.0) + span[2] - span[1]
        own[name] = own.get(name, 0.0) + s
        count[name] = count.get(name, 0) + 1

    def parent_name(span):
        return names[span[3]] if span[3] >= 0 else ""

    lps = [s for s in spans if s[0] == "exactgeom.lp"]
    hull = [s for s in lps if parent_name(s).startswith("polytope.")]
    analysis = [
        s for s in lps if parent_name(s) in ("exactgeom.cone_dimension", "exactgeom.interior_point")
    ]
    # a cells span built its cells lazily exactly when it made pair cones
    builders = {s[3] for s in spans if s[0] == "sphdual.pair_cone"}
    built = sum(spans[i][5]["n"] for i in builders if names[i] == "sphdual.cells")
    samples = [s[5] for s in spans if s[0] == "loglim.sample"]
    points = sum(a["points"] for a in samples)
    skipped = sum(a["skipped"] for a in samples)
    grid = sum(a["grid"] for a in samples)

    def attr_sum(name):
        return sum(s[5]["n"] for s in spans if s[0] == name)

    return {
        "laurent.parse_s": total.get("laurent.parse", 0.0),
        "polytope.newton_s": total.get("polytope.newton", 0.0),
        "polytope.hull_lps": len(hull),
        "polytope.lp_vertex_ratio": _ratio(sum(s[5]["infeasible"] for s in hull), len(hull)),
        "exactgeom.lp_calls": len(lps),
        "exactgeom.lp_s": total.get("exactgeom.lp", 0.0),
        "exactgeom.lp_infeasible_ratio": _ratio(sum(s[5]["infeasible"] for s in lps), len(lps)),
        "exactgeom.analyze_misses": analyze_misses,
        "exactgeom.analyze_hit_ratio": _ratio(analyze_hits, analyze_hits + analyze_misses),
        "exactgeom.lps_per_analysis": _ratio(len(analysis), analyze_misses),
        "exactgeom.contains_calls": count.get("exactgeom.cone_contains", 0),
        "exactgeom.contains_s": total.get("exactgeom.cone_contains", 0.0),
        "sphdual.pair_cones": count.get("sphdual.pair_cone", 0),
        "sphdual.pair_cone_s": total.get("sphdual.pair_cone", 0.0),
        "sphdual.cells_kept_ratio": _ratio(built, count.get("sphdual.pair_cone", 0)),
        "sphdual.reduce_s": total.get("sphdual.reduce", 0.0),
        "sphdual.directions_s": total.get("sphdual.rational_points", 0.0),
        "sphdual.directions_found": attr_sum("sphdual.rational_points"),
        "slopes.detect_s": own.get("slopes.detect", 0.0),
        "slopes.classes": attr_sum("slopes.detect"),
        "loglim.outer_s": total.get("loglim.outer", 0.0),
        "knots.corpus_s": total.get("knots.corpus", 0.0),
        "loglim.sample_s": total.get("loglim.sample", 0.0),
        "loglim.sample_points": points,
        "loglim.sample_skipped_ratio": _ratio(skipped, grid),
        "cli.self_s": own.get("cli.main", 0.0),
    }


DUAL = "dual-random"
NEWTON = "newton-products"
SLOPES = "boundary-slopes"
SAMPLE = "sample-curves"
EVERY = (DUAL, NEWTON, SLOPES, SAMPLE)

# metric: (layer, end-to-end metrics it should move, workloads); the unit and
# the better direction of each are in BENCHMARK.json
METRICS = {
    "laurent.parse_s": ("laurent", ["solve_s"], [NEWTON]),
    "polytope.newton_s": ("polytope", ["solve_s"], [NEWTON]),
    "polytope.hull_lps": ("polytope", ["solve_s"], [NEWTON]),
    "polytope.lp_vertex_ratio": ("polytope", ["solve_s"], [NEWTON]),
    "exactgeom.lp_calls": ("exactgeom", ["solve_s"], [DUAL, NEWTON]),
    "exactgeom.lp_s": ("exactgeom", ["solve_s"], [DUAL, NEWTON]),
    "exactgeom.lp_infeasible_ratio": ("exactgeom", ["solve_s"], [DUAL, NEWTON]),
    "exactgeom.analyze_misses": ("exactgeom", ["solve_s", "peak_rss_mb"], [DUAL]),
    "exactgeom.analyze_hit_ratio": ("exactgeom", ["solve_s", "peak_rss_mb"], [DUAL]),
    "exactgeom.lps_per_analysis": ("exactgeom", ["solve_s"], [DUAL]),
    "exactgeom.contains_calls": ("exactgeom", ["solve_s"], [DUAL]),
    "exactgeom.contains_s": ("exactgeom", ["solve_s"], [DUAL]),
    "sphdual.pair_cones": ("sphdual", ["solve_s"], [DUAL]),
    "sphdual.pair_cone_s": ("sphdual", ["solve_s"], [DUAL]),
    "sphdual.cells_kept_ratio": ("sphdual", ["solve_s"], [DUAL]),
    "sphdual.reduce_s": ("sphdual", ["solve_s"], [DUAL]),
    "sphdual.directions_s": ("sphdual", ["solve_s", "peak_rss_mb"], [SLOPES]),
    "sphdual.directions_found": ("sphdual", ["solve_s", "peak_rss_mb"], [SLOPES]),
    "slopes.detect_s": ("slopes", ["solve_s"], [SLOPES]),
    "slopes.classes": ("slopes", ["solve_s"], [SLOPES]),
    "loglim.outer_s": ("loglim", ["solve_s"], [SLOPES]),
    "knots.corpus_s": ("knots", ["solve_s"], [SLOPES]),
    "loglim.sample_s": ("loglim", ["solve_s"], [SAMPLE]),
    "loglim.sample_points": ("loglim", ["solve_s"], [SAMPLE]),
    "loglim.sample_skipped_ratio": ("loglim", ["solve_s"], [SAMPLE]),
    "cli.self_s": ("cli", ["solve_s"], list(EVERY)),
    "trace.overhead_ratio": ("trace", [], []),
}
