import cmath
import math
import random
import warnings

import numpy as np
import pytest
from mpmath import mp

from conftest import (
    min_angle_to_complex,
    mp_root_log_moduli,
    mp_sample_loglim,
    primitive_vectors_py,
    random_laurent,
    spherical_distance,
    unit_direction,
)
from loglimset import cli, loglim
from loglimset.exactgeom import LinearSystem
from loglimset.laurent import LaurentPolynomial, parse
from loglimset.loglim import (
    SamplePoint,
    SampleParams,
    SamplePoints,
    cluster_directions,
    csv_lines,
    loglim_outer,
    plotdata_lines,
    sample_loglim,
)
from loglimset.sphdual import SphericalComplex, contains, rational_points, ray_directions, spherical_dual


def root_log_moduli(coeffs):
    """``log|w|`` of the roots of ``sum a_k w^k`` from the sampler's solver,
    cluster by cluster; ``coeffs[k]`` is ``(log|a_k|, a_k / |a_k|)`` in
    ascending powers, or None for a zero coefficient."""
    log_mod = np.array([[-math.inf if c is None else c[0] for c in coeffs]])
    phase = np.array([[0j if c is None else c[1] for c in coeffs]])
    _, logs, failed = loglim._root_logs(log_mod, phase)
    assert not failed.any()
    return logs.tolist()


def _no_eigvals(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def assert_matches_mpmath(ours, oracle, tolerance):
    """The same skips and point keys as the mpmath sampler's result, and
    floats within ``tolerance``: directions absolutely, radii relatively.

    Both samplers may order the roots of a grid point differently, so each
    grid point's points are paired off in order of their free coordinate's
    direction component, which grows with ``log|root|``."""
    assert ours.skipped == oracle.skipped

    def by_grid_point(points):
        grouped = {}
        for p in sorted(points, key=lambda p: p.direction[1 - p.sweep]):
            grouped.setdefault((p.sweep, p.grid_index, p.phase_index), []).append(p)
        return grouped

    mine, theirs = by_grid_point(ours.points), by_grid_point(oracle.points)
    assert {k: sorted(p.root_index for p in v) for k, v in mine.items()} == {
        k: sorted(q.root_index for q in v) for k, v in theirs.items()
    }
    for key, points in mine.items():
        for p, q in zip(points, theirs[key]):
            assert max(abs(a - b) for a, b in zip(p.direction, q.direction)) <= tolerance, (p, q)
            assert abs(p.radius - q.radius) <= tolerance * q.radius, (p, q)


class TestPrincipal:
    def test_equals_spherical_dual(self):
        f = parse("x+y+1", ("x", "y"))
        assert rational_points(spherical_dual(f), 2) == ((-1, 0), (0, -1), (1, 1))

    def test_zero_gives_full_sphere(self):
        assert spherical_dual(LaurentPolynomial.zero(("x", "y"))).full_sphere

    def test_hyperbola(self):
        c = spherical_dual(parse("x*y-1", ("x", "y")))
        assert rational_points(c, 1) == ((-1, 1), (1, -1))


class TestOuter:
    def test_single_generator_is_principal(self):
        f = parse("x+y+1", ("x", "y"))
        assert loglim_outer([f]) == spherical_dual(f)

    def test_point_variety_has_empty_limit_set(self):
        gens = [parse("x-1", ("x", "y")), parse("y-1", ("x", "y"))]
        assert loglim_outer(gens).is_empty()

    def test_outer_approximation_can_shrink_with_more_generators(self):
        f = parse("x+y+1", ("x", "y"))
        g = parse("x-y", ("x", "y"))
        overshoot = loglim_outer([f, g])
        assert overshoot.cells == (
            LinearSystem.make(2, equalities=[(1, -1)], inequalities=[(0, 1)]),
        )
        trimmed = loglim_outer([f, g, parse("2*y+1", ("x", "y"))])
        assert trimmed.is_empty()

    def test_zero_generators_are_dropped(self):
        f = parse("x+y+1", ("x", "y"))
        zero = LaurentPolynomial.zero(("x", "y"))
        assert loglim_outer([f, zero]) == spherical_dual(f)

    def test_all_zero_generators_warn(self):
        zero = LaurentPolynomial.zero(("x", "y"))
        c = loglim_outer([zero, zero])
        assert c == SphericalComplex.full(2)  # the CLI adds the warning

    def test_needs_a_generator_and_common_variables(self):
        with pytest.raises(ValueError):
            loglim_outer([])
        with pytest.raises(ValueError):
            loglim_outer([parse("x", ("x", "y")), parse("u", ("u", "v"))])

    def test_outer_set_contained_in_each_generator_dual(self):
        rng = random.Random(88)
        for _ in range(10):
            m = rng.choice((2, 3))
            variables = ("x", "y", "z")[:m]
            f = random_laurent(rng, variables, max_terms=4)
            g = random_laurent(rng, variables, max_terms=4)
            outer = loglim_outer([f, g])
            dual_f = spherical_dual(f)
            for xi in primitive_vectors_py(m, 4):
                if not outer.is_empty() and contains(outer, xi):
                    assert contains(dual_f, xi)


class TestSampling:
    def test_three_tentacles_of_a_line(self):
        f = parse("x+y+1", ("x", "y"))
        result = sample_loglim(f, SampleParams(rho_min=1e-9, rho_max=1e9, grid=40, phases=4, seed=7))
        assert result.points and not result.skipped
        complex_ = spherical_dual(f)
        far = [p for p in result.points if p.radius >= 15.0]
        assert far
        assert max(min_angle_to_complex(p.direction, complex_) for p in far) < 0.01
        for ray in ray_directions(complex_):
            target = unit_direction(ray)
            assert min(spherical_distance(p.direction, target) for p in result.points) < 0.01

    def test_hyperbola_directions_are_antidiagonal(self):
        f = parse("x*y-1", ("x", "y"))
        result = sample_loglim(f, SampleParams(rho_min=1e-6, rho_max=1e6, grid=16, phases=2, seed=0))
        diag = 1 / math.sqrt(2)
        for p in result.points:
            assert abs(abs(p.direction[0]) - diag) < 1e-9
            assert abs(p.direction[0] + p.direction[1]) < 1e-9

    def test_coordinate_line_needs_the_exchanged_sweep(self):
        f = parse("x-1", ("x", "y"))
        result = sample_loglim(f, SampleParams(rho_min=1e-9, rho_max=1e9, grid=10, phases=2, seed=1))
        # the sweep fixing x finds no roots; the exchanged sweep pins x = 1
        assert result.skipped and result.points
        assert {p.sweep for p in result.points} == {1}
        for p in result.points:
            assert abs(abs(p.direction[1]) - 1.0) < 1e-12

    def test_unit_norm_invariant(self):
        f = parse("x+y+1", ("x", "y"))
        result = sample_loglim(f, SampleParams(grid=12, phases=2, seed=2))
        for p in result.points:
            norm = math.hypot(*p.direction)
            assert abs(norm - 1.0) <= 1e-9

    def test_points_at_rounding_level_are_dropped(self):
        # grid 9 with symmetric bounds puts t at about -9e-16 in the middle, where
        # roots with |w| = 1 would give log-vectors that are only rounding noise
        f = parse("-x^3*y^-4 - 6*x^-1 - 7*x^-2*y", ("x", "y"))
        result = sample_loglim(f, SampleParams("1e-300", "1e300", 9, 4, 0))
        assert all(p.radius > 1.0 for p in result.points)
        assert any(p.grid_index == 4 for p in result.points)  # the roots off |w| = 1 stay

    @pytest.mark.parametrize("text", ["x+y+1", "3*x^3-5"])
    def test_phases_are_the_bits_of_uniform_draws(self, monkeypatch, text):
        # each sweep's phases are the next grid * phases draws of
        # Random(seed).uniform(0, 2 pi), bit for bit, handed out in blocks of
        # at most _BLOCK grid points;
        # 3*x^3 - 5 is constant in y, so its first sweep draws and skips
        sums = loglim._coefficient_sums
        seen = {0: [], 1: []}

        def recording(f, free, t, theta):
            seen[1 - free].append(theta.copy())
            return sums(f, free, t, theta)

        monkeypatch.setattr(loglim, "_coefficient_sums", recording)
        f = parse(text, ("x", "y"))
        for seed in range(5):
            params = SampleParams(grid=1000, phases=2, seed=seed)
            seen[0].clear()
            seen[1].clear()
            sample_loglim(f, params)
            rng = random.Random(seed)
            for sweep in (0, 1):
                expected = np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(2000)])
                if sweep == 0 and text == "3*x^3-5":
                    assert not seen[0]
                    continue
                assert np.concatenate(seen[sweep]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, variables, exponent, fail",
        [
            ("(l-1)*(l*m^6+1)", ("m", "l"), 300, False),
            # constant in y: the first sweep is skipped at every grid point
            ("3*x^3-5", ("x", "y"), 300, False),
            # clusters of 1, 2 and 3 roots, and of up to 10 where they merge
            ("(y-1)*(y^2-x^3)*(y^3-x^7)", ("x", "y"), 300, False),
            # fixing x near 1/4 leaves a three-term quadratic in y for the
            # solver, which fails on some of them
            ("y^2+y+x", ("x", "y"), 2, True),
        ],
    )
    def test_output_does_not_depend_on_the_block_bound(self, monkeypatch, text, variables, exponent, fail):
        eigvals = np.linalg.eigvals

        def some_fail(a):
            # a matrix fails by its own entries, whatever stack holds it
            if fail and (a.reshape(-1, *a.shape[-2:])[:, 0, 1].imag > 0).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(loglim.np.linalg, "eigvals", some_fail)
        f = parse(text, variables)
        params = SampleParams(f"1e-{exponent}", f"1e{exponent}", 25, 3, 4)
        # 75 grid points per sweep: 75 blocks, 11 blocks and one block
        results = []
        for block in (1, 7, loglim._BLOCK):
            monkeypatch.setattr(loglim, "_BLOCK", block)
            results.append(sample_loglim(f, params))
        *others, default = results
        assert len(default.points) > 0
        if fail:
            assert 0 < len(default.skipped) < 25 * 3
        for other in others:
            for column in ("radius", "direction", "keys"):
                assert getattr(other.points, column).tobytes() == getattr(default.points, column).tobytes()
            assert other.skipped == default.skipped

    def test_deterministic_given_seed(self):
        cases = [
            ("x+y+1", ("x", "y"), SampleParams(grid=10, phases=3, seed=42)),
            # two root clusters per grid point, up to e^138000 apart
            (
                "(l-1)*(l*m^6+1)",
                ("m", "l"),
                SampleParams(rho_min="1e-10000", rho_max="1e10000", grid=12, phases=3, seed=42),
            ),
        ]
        for text, variables, params in cases:
            f = parse(text, variables)
            a = sample_loglim(f, params)
            b = sample_loglim(f, params)
            assert a.points == b.points
            assert csv_lines(a.points) == csv_lines(b.points)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_loglim(LaurentPolynomial.zero(("x", "y")), SampleParams())
        with pytest.raises(ValueError):
            sample_loglim(parse("7", ("x", "y")), SampleParams())
        with pytest.raises(ValueError):
            sample_loglim(parse("x+y+1", ("x",)), SampleParams())  # needs two variables
        with pytest.raises(ValueError):
            SampleParams(grid=1)
        with pytest.raises(ValueError):
            SampleParams(phases=0)
        for value in ("-5", "0", "inf", "abc", "nan", -1.0):
            with pytest.raises(ValueError):
                SampleParams(rho_min=value)
            with pytest.raises(ValueError):
                SampleParams(rho_max=value)
        with pytest.raises(ValueError):
            SampleParams(rho_min="1e5", rho_max="1e5")

    @pytest.mark.parametrize(
        "text, variables",
        [
            # acceptance criterion 5
            ("x+y+1", ("x", "y")),
            ("x*y-1", ("x", "y")),
            ("x-1", ("x", "y")),
            ("(l-1)*(l*m^6+1)", ("m", "l")),
            # the benchmark's sample-curves inputs
            ("3*x^3-5", ("x", "y")),
        ],
    )
    def test_matches_mpmath_oracle(self, text, variables):
        f = parse(text, variables)
        params = SampleParams(rho_min="1e-10000", rho_max="1e10000", grid=40, phases=2, seed=3)
        ours = sample_loglim(f, params)
        assert ours.points
        assert_matches_mpmath(ours, mp_sample_loglim(f, params), 1e-12)

    def test_clusters_that_nearly_touch_keep_every_root(self):
        # root moduli a few tenths of a nat apart give Newton-polygon segments
        # whose clusters overlap: every root must come back exactly once
        rng = random.Random(5)
        for _ in range(200):
            logs = sorted(rng.uniform(-2.0, 2.0) for _ in range(rng.randint(2, 7)))
            roots = [cmath.rect(math.exp(u), rng.uniform(0.0, 2.0 * math.pi)) for u in logs]
            coeffs = [(math.log(abs(c)), c / abs(c)) for c in np.poly(roots)[::-1]]
            assert sorted(root_log_moduli(coeffs)) == pytest.approx(logs, abs=1e-12)

    def test_far_root_does_not_spoil_a_cluster(self):
        # (w^9 - 1)(w - e^far): nine unit roots beside one root e^far away,
        # for distances on both sides of the cluster window
        for far in (10.0, 20.0, 30.0, 39.5, 60.0, 1000.0):
            coeffs = [None] * 11
            coeffs[0], coeffs[1] = (far, 1 + 0j), (0.0, -1 + 0j)
            coeffs[9], coeffs[10] = (far, -1 + 0j), (0.0, 1 + 0j)
            got = sorted(root_log_moduli(coeffs))
            assert got == pytest.approx([0.0] * 9 + [far], abs=1e-12), far

    def test_roots_come_cluster_by_cluster(self):
        # roots e^-20, e^-0.5, -e^0.3 and e^20: the middle two share one
        # Newton-polygon segment, inside which roots go by |log|w||
        roots = [math.exp(-20.0), math.exp(-0.5), -math.exp(0.3), math.exp(20.0)]
        coeffs = [(math.log(abs(c)), c / abs(c)) for c in np.poly(roots)[::-1]]
        assert root_log_moduli(coeffs) == pytest.approx([-20.0, 0.3, -0.5, 20.0], abs=1e-12)

    def test_matches_mpmath_polyroots(self):
        # random coefficients with log-moduli in +-30, so root moduli span
        # up to e^60 and clusters sit at every distance from each other
        rng = random.Random(17)
        worst = 0.0
        for _ in range(100):
            degree = rng.randint(2, 9)
            coeffs = [(rng.uniform(-30.0, 30.0), cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi)))
                      for _ in range(degree + 1)]
            with mp.workdps(30):
                desc = [mp.exp(mp.mpf(v)) * mp.mpc(c) for v, c in reversed(coeffs)]
                roots = mp.polyroots(desc, maxsteps=500, extraprec=100)
                expected = sorted(float(mp.log(abs(w))) for w in roots)
            got = sorted(root_log_moduli(coeffs))
            worst = max(worst, max(abs(a - b) for a, b in zip(got, expected)))
        assert worst <= 1e-13

    def test_multiple_roots_raise_no_warnings(self, capsys, tmp_path):
        # a RuntimeWarning would land on stderr, which the CLI keeps empty
        text = "(y-x)*(y-x)*(y+1)"
        f = parse(text, ("x", "y"))
        params = SampleParams("1e-300", "1e300", 20, 3, 0)
        path = tmp_path / "double.txt"
        path.write_text(text + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sample_loglim(f, params)
            rc = cli.main(["sample", str(path), "--vars", "x,y", "--grid", "20", "--phases", "3"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        # three roots in y and two in x at each of the 20 * 3 grid points
        assert len(result.points) == 20 * 3 * (3 + 2) and not result.skipped

    def test_newton_step_keeps_the_root_where_the_derivative_vanishes(self):
        # w^2 - 2w + 1 at its double root w = 1 (p = p' = 0), and w^2 - 2w + 2
        # at its critical point w = 1 (p' = 0 only): no step is finite
        log_mod = np.array([[0.0, math.log(2.0), 0.0], [math.log(2.0), math.log(2.0), 0.0]])
        phase = np.array([[1, -1, 1], [1, -1, 1]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logs = loglim._newton_step(log_mod, phase, np.arange(2), np.zeros(2), np.ones(2, dtype=complex))
        assert logs.tolist() == [0.0, 0.0]

    def test_solver_failure_is_skipped(self, monkeypatch):
        monkeypatch.setattr(loglim.np.linalg, "eigvals", _no_eigvals)
        f = parse("y^2+y+x", ("x", "y"))
        result = sample_loglim(f, SampleParams(grid=4, phases=2, seed=0))
        # fixing x leaves a three-term quadratic in y, which needs the
        # solver; fixing y leaves a linear polynomial in x, which is solved
        # in closed form
        assert result.skipped == [
            (0, gi, pi, "root solver did not converge") for gi in range(4) for pi in range(2)
        ]
        assert len(result.points) == 4 * 2 and {p.sweep for p in result.points} == {1}
        # y^2 + x has two terms in either sweep and never needs the solver
        result = sample_loglim(parse("y^2+x", ("x", "y")), SampleParams(grid=4, phases=2, seed=0))
        assert not result.skipped and len(result.points) == 4 * 2 * (2 + 1)

    def test_one_failing_matrix_skips_only_its_grid_point(self, monkeypatch):
        f = parse("y^2+y+x", ("x", "y"))
        params = SampleParams(grid=4, phases=2, seed=0)
        clean = sample_loglim(f, params)
        eigvals = np.linalg.eigvals
        stacks = []

        def one_fails(a):
            # a stack fails when it holds the third matrix of the first stack
            if a.ndim == 3 and not stacks:
                stacks.append(a[2].copy())
            if any(np.array_equal(m, stacks[0]) for m in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvals(a)

        monkeypatch.setattr(loglim.np.linalg, "eigvals", one_fails)
        result = sample_loglim(f, params)
        # at the two smallest magnitudes of the sweep fixing x, each grid
        # point has a cluster of either root; so the third quadratic is the
        # first of grid point 0, phase 1
        assert result.skipped == [(0, 0, 1, "root solver did not converge")]
        assert result.points == [p for p in clean.points if (p.sweep, p.grid_index, p.phase_index) != (0, 0, 1)]
        assert len(result.points) == len(clean.points) - 2

    def test_huge_magnitudes_are_accepted_as_strings(self):
        f = parse("x*y-1", ("x", "y"))
        result = sample_loglim(
            f, SampleParams(rho_min="1e-500", rho_max="1e500", grid=6, phases=1, seed=0)
        )
        assert max(p.radius for p in result.points) > 1000


class _ZeroPhases(random.Random):
    """A phase stream that always draws 0, so grid points lie on the positive axis.

    ``uniform(a, b)`` is ``a + (b - a) * random()``, so it draws ``a``."""

    def random(self):
        return 0.0


class TestStackedSolve:
    """The stacked solve and its Newton step against the 40-digit mpmath
    sampler in conftest: the same skips and point keys, floats to 1e-12."""

    @staticmethod
    def assert_matches(f, params):
        ours = sample_loglim(f, params)
        assert_matches_mpmath(ours, mp_sample_loglim(f, params), 1e-12)
        return ours

    @pytest.mark.parametrize("bounds", [("1e-10000", "1e10000"), ("1e-300", "1e300"), ("1e-6", "1e6")])
    @pytest.mark.parametrize(
        "text, variables",
        [
            ("x+y+1", ("x", "y")),
            # binomials: one sweep is constant in its free variable
            ("3*x^3-5", ("x", "y")),
            ("x-1", ("x", "y")),
            ("2*x^7*y^2-3", ("x", "y")),
            # lacunary: the trefoil and a (3,5) torus knot
            ("(l-1)*(l*m^6+1)", ("m", "l")),
            ("(l-1)*(l*m^15+1)*(l*m^15-1)", ("m", "l")),
            # root moduli |x|, 2|x|, 3|x|, 5|x|: clusters that nearly touch
            ("(y-x)*(y-2*x)*(y+3*x)*(y-5*x)", ("x", "y")),
            # nine unit roots beside one root |x| beyond the cluster window
            ("(y^9-1)*(y-x)", ("x", "y")),
        ],
    )
    def test_curves(self, text, variables, bounds):
        result = self.assert_matches(parse(text, variables), SampleParams(*bounds, 30, 3, 11))
        assert result.points

    def test_seeded_random_curves(self):
        rng = random.Random(2024)
        sampled = 0
        for i in range(40):
            f = random_laurent(rng, ("x", "y"), max_terms=6, exp_lo=-5, exp_hi=5)
            bounds = ("1e-300", "1e300") if i % 2 else ("1e-10000", "1e10000")
            params = SampleParams(*bounds, 16, 2, i)
            try:
                self.assert_matches(f, params)
            except ValueError:
                with pytest.raises(ValueError):
                    mp_sample_loglim(f, params)
                continue
            sampled += 1
        assert sampled >= 30

    def test_grid_points_without_roots(self, monkeypatch):
        # at phase 0 and t = -8.9e-16 (grid index 4), x - 1 and y - y^2
        # vanish by cancellation and leave a single coefficient
        monkeypatch.setattr(random, "Random", _ZeroPhases)
        f = parse("(x-1)*y^2+y", ("x", "y"))
        result = self.assert_matches(f, SampleParams("1e-300", "1e300", 9, 2, 0))
        assert result.skipped == [
            (sweep, 4, pi, "no roots at this grid point") for sweep in (0, 1) for pi in (0, 1)
        ]

    def test_clusters_match_mpmath_roots(self):
        rng = random.Random(5)
        cases = []
        for _ in range(200):
            # root moduli a few tenths of a nat apart: clusters that nearly touch
            logs = sorted(rng.uniform(-2.0, 2.0) for _ in range(rng.randint(2, 7)))
            roots = [cmath.rect(math.exp(u), rng.uniform(0.0, 2.0 * math.pi)) for u in logs]
            cases.append([(math.log(abs(c)), c / abs(c)) for c in np.poly(roots)[::-1]])
        for far in (10.0, 20.0, 30.0, 39.5, 60.0, 1000.0):
            # (w^9 - 1)(w - e^far), on both sides of the cluster window
            coeffs = [None] * 11
            coeffs[0], coeffs[1] = (far, 1 + 0j), (0.0, -1 + 0j)
            coeffs[9], coeffs[10] = (far, -1 + 0j), (0.0, 1 + 0j)
            cases.append(coeffs)
        for coeffs in cases:
            assert sorted(root_log_moduli(coeffs)) == pytest.approx(mp_root_log_moduli(coeffs), abs=1e-13)


class TestClosedForm:
    """Clusters with two nonzero coefficients are solved without
    ``np.linalg.eigvals``."""

    def test_binomials_match_mpmath_roots(self, monkeypatch):
        monkeypatch.setattr(loglim.np.linalg, "eigvals", _no_eigvals)
        rng = random.Random(29)
        for _ in range(200):
            degree = rng.randint(1, 40)
            coeffs = [None] * (degree + 1)
            for k in (0, degree):
                coeffs[k] = (rng.uniform(-30.0, 30.0), cmath.rect(1.0, rng.uniform(0.0, 2.0 * math.pi)))
            got = sorted(root_log_moduli(coeffs))
            assert len(got) == degree
            assert got == pytest.approx(mp_root_log_moduli(coeffs), abs=1e-13), coeffs

    def test_mixed_stack_returns_every_row(self, monkeypatch):
        # one stack of cubics: two-term rows among three- and four-term ones
        desc = np.array(
            [
                [2, 0, 0, -5],
                [1, 0, 3j, 1],
                [1j, 0, 0, 1],
                [1, -2, 0, 1 - 1j],
                [-3, 0, 0, 0.5j],
                [1, 1, 1, 1],
            ],
            dtype=complex,
        )
        eigvals = np.linalg.eigvals
        stacks = []

        def recording(a):
            stacks.append(a.copy())
            return eigvals(a)

        monkeypatch.setattr(loglim.np.linalg, "eigvals", recording)
        roots, ok = loglim._eigenvalues(desc)
        assert ok.all() and roots.shape == (6, 3)
        # only the three rows with more than two terms reach eigvals
        assert [s.shape for s in stacks] == [(3, 3, 3)]
        assert [np.count_nonzero(m[0]) for m in stacks[0]] == [2, 2, 3]
        for row, got in zip(desc, roots):
            for w in np.roots(row):
                assert np.min(np.abs(got - w)) <= 1e-12 * abs(w)
            assert np.poly(got) == pytest.approx(row / row[0], abs=1e-12)

    @pytest.mark.parametrize(
        "text, variables", [("3*x^3-5", ("x", "y")), ("(l-1)*(l*m^6+1)", ("m", "l"))]
    )
    def test_binomial_curves_need_no_eigenvalues(self, monkeypatch, text, variables):
        # at magnitudes 1e+-10000 every cluster of these curves has two terms
        monkeypatch.setattr(loglim.np.linalg, "eigvals", _no_eigvals)
        f = parse(text, variables)
        params = SampleParams(rho_min="1e-10000", rho_max="1e10000", grid=40, phases=2, seed=3)
        ours = sample_loglim(f, params)
        assert ours.points
        assert all(reason != "root solver did not converge" for *_, reason in ours.skipped)
        assert_matches_mpmath(ours, mp_sample_loglim(f, params), 1e-12)


class TestClusters:
    def test_cluster_counts(self):
        points = [
            SamplePoint((1.0, 0.0), 100.0, 0, i, 0, 0) for i in range(5)
        ] + [
            SamplePoint((0.0, 1.0), 99.0, 0, i, 1, 0) for i in range(5)
        ]
        clusters = cluster_directions(points, top_fraction=1.0, tolerance=0.02)
        assert [(rep, n) for rep, n in clusters] == [((1.0, 0.0), 5), ((0.0, 1.0), 5)]

    def test_empty(self):
        assert cluster_directions([]) == []


class TestOutputRows:
    """``csv_lines`` and ``plotdata_lines`` against per-float ``repr``."""

    @staticmethod
    def assert_rows(rows):
        # rows are (radius, d1, d2) as Python floats
        points = SamplePoints(
            np.array([r for r, _, _ in rows], dtype=float),
            np.array([(a, b) for _, a, b in rows], dtype=float).reshape(-1, 2),
            np.array([(0, i, 0, 0) for i in range(len(rows))], dtype=np.int64).reshape(-1, 4),
        )
        assert csv_lines(points) == [f"{r!r},{a!r},{b!r}" for r, a, b in rows]
        assert plotdata_lines(points) == [f"{a!r} {b!r} {r!r}" for r, a, b in rows]

    def test_signed_zeros_in_one_block(self):
        self.assert_rows([(1.0, 0.0, -0.0), (1.0, -0.0, 0.0), (0.0, -0.0, -0.0), (-0.0, 0.0, 0.0)])

    def test_special_values(self):
        tiny = 5e-324
        self.assert_rows(
            [
                (math.nan, math.inf, -math.inf),
                (-math.nan, -math.inf, math.inf),
                (tiny, -tiny, 2.2250738585072014e-308),
                (2.225073858507201e-308, math.nan, tiny),
            ]
        )

    def test_either_side_of_exponent_notation(self):
        # repr writes 1e16 and anything below 1e-4 with an exponent
        below_1e16 = math.nextafter(1e16, 0.0)
        below_1e4 = math.nextafter(1e-4, 0.0)
        values = [1e16, below_1e16, -1e16, -below_1e16, 1e-5, 1e-4, below_1e4, -below_1e4, 123456789012345.6]
        self.assert_rows([(v, values[(i + 3) % len(values)], -v) for i, v in enumerate(values)])

    def test_duplicates_across_block_boundary(self):
        # 2 500 points over 40 distinct floats, so every block, and both
        # sides of each boundary at 1 024 and 2 048, hold the same values
        rng = random.Random(5)
        pool = [rng.uniform(-1.0, 1.0) for _ in range(40)]
        self.assert_rows([tuple(pool[rng.randrange(40)] for _ in range(3)) for _ in range(2500)])

    def test_all_distinct(self):
        rng = random.Random(6)
        self.assert_rows([(rng.expovariate(1e-3), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(1500)])

    def test_no_points(self):
        self.assert_rows([])

    def test_plain_list(self):
        points = [SamplePoint((0.6, -0.8), 7.5, 0, i, 0, 0) for i in range(3)] + [
            SamplePoint((-0.0, 1.0), 1e300, 1, 0, 0, 0)
        ]
        assert csv_lines(points) == ["7.5,0.6,-0.8"] * 3 + ["1e+300,-0.0,1.0"]
        assert plotdata_lines(points) == ["0.6 -0.8 7.5"] * 3 + ["-0.0 1.0 1e+300"]
