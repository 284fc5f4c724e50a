import argparse
import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import in_convex_hull_fraction, load_bench_module, subprocess_env
from loglimset import cli, polytope
from loglimset.exactgeom import balance
from loglimset.knots import TorusKnotParams, a_polynomial
from loglimset.laurent import MAX_NESTING, parse
from loglimset.loglim import loglim_outer
from loglimset.polytope import newton_polytope
from loglimset.slopes import detect_boundary_coordinates
from loglimset.sphdual import spherical_dual


def run_cli(capsys, args):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# the golden corpus, laid out as tests/golden/README.md says
GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.args"))


def golden_argv(case: str) -> list:
    return (GOLDEN / f"{case}.args").read_text(encoding="utf-8").split()


def golden_out(case: str) -> str:
    # read as bytes: read_text would translate a stray "\r\n"
    return (GOLDEN / f"{case}.out").read_bytes().decode("utf-8")


@pytest.mark.parametrize("case", CASES)
def test_golden(capsys, monkeypatch, case):
    monkeypatch.chdir(GOLDEN)
    rc, out, err = run_cli(capsys, golden_argv(case))
    assert rc == 0 and err == ""
    assert out == golden_out(case)


def test_golden_corpus_is_whole():
    assert CASES and CASES == sorted(p.stem for p in GOLDEN.glob("*.out"))
    for case in CASES:
        assert len((GOLDEN / f"{case}.args").read_text(encoding="utf-8").splitlines()) == 1, case
        files = getattr(cli.build_parser().parse_args(golden_argv(case)), "files", [])
        assert all((GOLDEN / name).is_file() for name in files), case


@pytest.fixture()
def triangle_file() -> str:
    return str(GOLDEN / "line.txt")


@pytest.fixture()
def trefoil_file() -> str:
    return str(GOLDEN / "trefoil.txt")


class TestNewton:
    def test_golden_in_four_variables(self, capsys, monkeypatch):
        # the newton-four case: 44 support points, 27 vertices; the sweep
        # leaves 21 points to hull LPs, 4 of them vertices
        outcomes = []

        def recording(rows, weighted, *rest):
            lam = balance(rows, weighted, *rest)
            outcomes.append(lam is None)
            return lam

        monkeypatch.setattr(polytope, "balance", recording)
        path = GOLDEN / "four-newton.txt"
        rc, out, err = run_cli(capsys, ["newton", str(path), "--vars", "x,y,z,w"])
        assert rc == 0 and err == ""
        assert outcomes.count(True) == 4 and outcomes.count(False) == 17
        support = sorted(parse(path.read_text(encoding="utf-8"), ("x", "y", "z", "w")).support())
        vertices = [p for p in support if not in_convex_hull_fraction(p, [q for q in support if q != p])]
        assert json.loads(out)["vertices"] == [list(p) for p in vertices]

    def test_matches_library(self, capsys, trefoil_file):
        rc, out, _ = run_cli(capsys, ["newton", trefoil_file, "--vars", "m,l"])
        assert rc == 0
        lib = newton_polytope(parse("(l-1)*(l*m^6+1)", ("m", "l"))).to_json_dict()
        assert json.loads(out) == json.loads(json.dumps(lib))


class TestSphdual:
    def test_matches_library(self, capsys, triangle_file):
        rc, out, _ = run_cli(capsys, ["sphdual", triangle_file, "--vars", "x,y"])
        lib = spherical_dual(parse("x+y+1", ("x", "y"))).to_json_dict()
        assert json.loads(out) == lib

    def test_plotdata(self, capsys, triangle_file):
        rc, out, err = run_cli(
            capsys, ["sphdual", triangle_file, "--vars", "x,y", "--format", "plotdata"]
        )
        assert rc == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert len(rows) == 3
        for row in rows:
            x, y = float(row[0]), float(row[1])
            assert abs(x * x + y * y - 1.0) < 1e-12


class TestLoglim:
    def test_single_generator_not_flagged_outer(self, capsys, triangle_file):
        rc, out, _ = run_cli(capsys, ["loglim", triangle_file, "--vars", "x,y"])
        assert json.loads(out)["outer"] is False

    def test_generators_across_files(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("x+y+1\n", encoding="utf-8")
        b.write_text("x-y\n", encoding="utf-8")
        rc, out, _ = run_cli(capsys, ["loglim", str(a), str(b), "--vars", "x,y"])
        payload = json.loads(out)
        assert payload["outer"] is True
        assert payload["cells"] == [{"eq": [[1, -1]], "ineq": [[0, 1]]}]
        lib = loglim_outer([parse("x+y+1", ("x", "y")), parse("x-y", ("x", "y"))])
        assert payload["cells"] == lib.to_json_dict()["cells"]

    def test_all_zero_generators_warn(self, capsys, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("0\nx-x\n", encoding="utf-8")
        rc, out, _ = run_cli(capsys, ["loglim", str(path), "--vars", "x,y"])
        payload = json.loads(out)
        assert payload["full_sphere"] is True
        assert payload["warning"] == "all generators zero"


class TestSlopes:
    def test_matches_library(self, capsys, trefoil_file):
        rc, out, _ = run_cli(capsys, ["slopes", trefoil_file, "--vars", "m,l"])
        lib = detect_boundary_coordinates(
            spherical_dual(parse("(l-1)*(l*m^6+1)", ("m", "l"))), 8
        )
        assert json.loads(out)["coordinates"] == sorted(list(c.entries) for c in lib)

    def test_odd_variable_count_rejected(self, capsys, trefoil_file):
        # checked before any file is read
        for path in (trefoil_file, "/nonexistent/poly.txt"):
            rc, out, err = run_cli(capsys, ["slopes", path, "--vars", "m,l,n"])
            assert rc == 2 and out == ""
            assert json.loads(err)["error"] == "usage"

    def test_h_flag_is_not_an_option(self, capsys, trefoil_file):
        # h is the number of variable pairs; "--h" is only a prefix of --height and --help
        rc, out, err = run_cli(capsys, ["slopes", trefoil_file, "--vars", "m,l", "--h", "1"])
        assert rc == 2 and out == ""
        assert json.loads(err)["error"] == "usage"
        assert "ambiguous option: --h" in json.loads(err)["message"]

    def test_two_cusp_link_reports_h(self, capsys, tmp_path):
        path = tmp_path / "link.txt"
        path.write_text("(l1-1)*(l1*m1^6+1)\n(l2-1)*(l2*m2^15+1)\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["slopes", str(path), "--vars", "m1,l1,m2,l2", "--height", "4"])
        assert rc == 0 and err == ""
        payload = json.loads(out)
        assert payload["h"] == 2 and payload["slopes"] == []
        gens = [parse(t, ("m1", "l1", "m2", "l2")) for t in path.read_text().split()]
        lib = detect_boundary_coordinates(loglim_outer(gens), 4)
        assert payload["coordinates"] == sorted(list(c.entries) for c in lib)

    def test_grid_too_large_to_index_is_a_json_error(self, capsys, tmp_path):
        # the whole sphere of four variables at height 30 000: 60 001^4 > 2^63 vectors
        path = tmp_path / "zero.txt"
        path.write_text("0\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["slopes", str(path), "--vars", "m1,l1,m2,l2", "--height", "30000"])
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "too large" in payload["message"]


class TestTorusknot:
    def test_text_output_reparses(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, ["torusknot", "3", "5"])
        path = tmp_path / "knot.txt"
        path.write_text(out, encoding="utf-8")
        rc2, out2, _ = run_cli(capsys, ["slopes", str(path), "--vars", "m,l", "--height", "15"])
        assert rc2 == 0
        assert json.loads(out2)["slopes"] == ["0", "15"]

    def test_json_reports_pipeline_results(self, capsys):
        rc, out, _ = run_cli(capsys, ["torusknot", "3", "4", "--format", "json"])
        payload = json.loads(out)
        assert payload["slopes"] == ["0", "12"]
        assert payload["height"] == 12  # raised to pq automatically
        assert payload["factors"] == [
            p.render() for p in a_polynomial(TorusKnotParams(3, 4))
        ]

    def test_psl2_variant(self, capsys):
        rc, out, _ = run_cli(capsys, ["torusknot", "2", "3", "--psl2", "--format", "json"])
        payload = json.loads(out)
        assert payload["variables"] == ["M", "L"]
        assert payload["expanded"] == "M^6*L^2 - M^6*L - L + 1"
        assert payload["slopes"] == ["0", "6"]

    def test_invalid_params(self, capsys):
        rc, _, err = run_cli(capsys, ["torusknot", "2", "4"])
        assert rc == 1
        assert "coprime" in json.loads(err)["message"]


class TestSample:
    def test_csv_shape_and_determinism(self, capsys, triangle_file):
        args = [
            "sample",
            triangle_file,
            "--vars",
            "x,y",
            "--grid",
            "10",
            "--phases",
            "2",
            "--seed",
            "5",
        ]
        rc, out1, err = run_cli(capsys, args)
        assert rc == 0 and err == ""
        lines = out1.splitlines()
        assert lines[0] == "radius,d1,d2"
        data = [line for line in lines if not line.startswith("#") and line != lines[0]]
        assert data
        for line in data:
            radius, d1, d2 = (float(v) for v in line.split(","))
            assert radius >= 1.0
            assert abs(d1 * d1 + d2 * d2 - 1.0) < 1e-9
        assert any(line.startswith("# cluster") for line in lines)

    def test_plotdata(self, capsys, triangle_file):
        rc, out, _ = run_cli(
            capsys,
            ["sample", triangle_file, "--vars", "x,y", "--grid", "6", "--phases", "1",
             "--format", "plotdata"],
        )
        assert rc == 0
        first_data = out.splitlines()[0]
        assert len(first_data.split()) == 3

    def test_plotdata_rows_are_the_points_in_order(self, capsys, trefoil_file):
        # each row is "d1 d2 radius" of one sample point, in full precision,
        # and the comment lines are those of the CSV output
        from loglimset.loglim import SampleParams, sample_loglim

        args = ["sample", trefoil_file, "--vars", "m,l", "--rho-min", "1e-10000", "--rho-max", "1e10000",
                "--grid", "20", "--phases", "3", "--seed", "7"]
        rc, plot, _ = run_cli(capsys, args + ["--format", "plotdata"])
        _, csv, _ = run_cli(capsys, args)
        assert rc == 0
        lib = sample_loglim(
            parse("(l-1)*(l*m^6+1)", ("m", "l")), SampleParams("1e-10000", "1e10000", 20, 3, 7)
        )
        rows = [f"{p.direction[0]!r} {p.direction[1]!r} {p.radius!r}" for p in lib.points]
        comments = [line for line in csv.splitlines() if line.startswith("#")]
        assert len(rows) == 20 * 3 * (2 + 6)
        assert plot == "\n".join(rows + comments) + "\n"

    def test_matches_library(self, capsys, triangle_file):
        # each row is "radius,d1,d2" of one sample point, in full precision
        from loglimset.loglim import SampleParams, sample_loglim

        rc, out, _ = run_cli(
            capsys,
            ["sample", triangle_file, "--vars", "x,y", "--grid", "9", "--phases", "2",
             "--seed", "13"],
        )
        assert rc == 0
        lib = sample_loglim(
            parse("x+y+1", ("x", "y")), SampleParams(grid=9, phases=2, seed=13)
        )
        data = [line for line in out.splitlines()[1:] if not line.startswith("#")]
        assert data == [f"{p.radius!r},{p.direction[0]!r},{p.direction[1]!r}" for p in lib.points]

    def test_rejects_multiple_polynomials(self, capsys, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text("x+y+1\nx-y\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, ["sample", str(path), "--vars", "x,y"])
        assert rc == 2
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--rho-min", "-5"),
            ("--rho-min", "0"),
            ("--rho-max", "inf"),
            ("--rho-min", "abc"),
            ("--rho-max", "nan"),
        ],
    )
    def test_bad_magnitude_is_a_json_error(self, capsys, triangle_file, option, value):
        rc, out, err = run_cli(capsys, ["sample", triangle_file, "--vars", "x,y", option, value])
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert value in payload["message"]


class TestErrorsAndDeterminism:
    def test_parse_error_json(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x + * y\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["newton", str(path), "--vars", "x,y"])
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "parse"
        assert payload["position"] == 4

    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text("(" * 2000 + "x" + ")" * 2000 + "\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["newton", str(path), "--vars", "x"])
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "parse"
        assert payload["position"] == MAX_NESTING

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, ["newton", "/nonexistent/poly.txt", "--vars", "x"])
        assert rc == 1
        assert json.loads(err)["error"] == "FileNotFoundError"

    def test_memory_error_is_a_json_error(self, capsys, monkeypatch, trefoil_file):
        # numpy's allocation failure is a private MemoryError subclass
        class _ArrayMemoryError(MemoryError):
            pass

        def exhausted(f, params):
            raise _ArrayMemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(cli, "sample_loglim", exhausted)
        rc, out, err = run_cli(capsys, ["sample", trefoil_file, "--vars", "m,l"])
        assert rc == 1 and out == ""
        assert json.loads(err) == {"error": "MemoryError", "message": "Unable to allocate 74.5 GiB"}

    @pytest.mark.parametrize("command", [["slopes", "FILE", "--vars", "m,l"], ["torusknot", "2", "3"]])
    def test_height_below_one_is_a_usage_error(self, capsys, trefoil_file, command):
        args = [trefoil_file if a == "FILE" else a for a in command] + ["--height", "0"]
        rc, out, err = run_cli(capsys, args)
        assert rc == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert "height must be at least 1" in payload["message"]

    def test_empty_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, ["newton", str(path), "--vars", "x,y"])
        assert rc == 2
        assert json.loads(err)["error"] == "usage"

    def test_byte_identical_reruns(self, capsys, triangle_file, trefoil_file):
        invocations = [
            ["newton", triangle_file, "--vars", "x,y"],
            ["sphdual", triangle_file, "--vars", "x,y"],
            ["loglim", triangle_file, "--vars", "x,y"],
            ["slopes", trefoil_file, "--vars", "m,l"],
            ["torusknot", "2", "3", "--format", "json"],
            ["sample", triangle_file, "--vars", "x,y", "--grid", "8", "--phases", "2",
             "--seed", "11"],
        ]
        for args in invocations:
            rc1, out1, _ = run_cli(capsys, args)
            rc2, out2, _ = run_cli(capsys, args)
            assert rc1 == rc2 == 0
            assert out1 == out2

    def test_options_do_not_leak_between_calls(self, capsys, triangle_file):
        # one parser serves every call: an option given once must not stick
        plot = ["sphdual", triangle_file, "--vars", "x,y", "--format", "plotdata"]
        assert run_cli(capsys, plot)[0] == 0
        rc, out, _ = run_cli(capsys, ["sphdual", triangle_file, "--vars", "x,y"])
        assert rc == 0 and out == golden_out("sphdual-line")
        assert run_cli(capsys, ["torusknot", "2", "3", "--psl2"])[0] == 0
        rc, out, _ = run_cli(capsys, ["torusknot", "2", "3"])
        assert rc == 0 and out == golden_out("torusknot-text")
        assert cli.build_parser() is cli.build_parser()


class TestSubprocessEntry:
    def test_python_dash_m(self, triangle_file):
        result = subprocess.run(
            [sys.executable, "-m", "loglimset", "newton", triangle_file, "--vars", "x,y"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["vertices"] == [[0, 0], [0, 1], [1, 0]]

    def test_walk_over_budget_is_refused_before_it_starts(self, tmp_path):
        # the whole sphere of four variables at height 20 000: 40 001^4 grid
        # vectors, below numpy's 2^63 indexing limit but far over the budget
        path = tmp_path / "zero.txt"
        path.write_text("0\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "loglimset", "slopes", str(path), "--vars", "m1,l1,m2,l2", "--height", "20000"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=60,
        )
        assert result.returncode == 1 and result.stdout == ""
        payload = json.loads(result.stderr)
        assert payload["error"] == "ValueError" and "too large" in payload["message"]
        assert str(40_001**4) in payload["message"]

    def test_sampling_does_not_load_mpmath(self, triangle_file):
        # mpmath is only a test dependency: the CLI must run without it
        script = (
            "import sys\n"
            "from loglimset import cli\n"
            f"rc = cli.main(['sample', {triangle_file!r}, '--vars', 'x,y', '--grid', '6', "
            "'--rho-min', '1e-10000', '--rho-max', '1e10000'])\n"
            "assert rc == 0, rc\n"
            "print(sorted(m for m in ('mpmath', 'numpy') if m in sys.modules))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env()
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "['numpy']"

    def test_commands_import_nothing_after_start_up(self):
        # every module a command needs is loaded by `import loglimset.cli`,
        # so no command pays a first-use import (np.unique, for one, imports
        # numpy.ma on its first call); the inputs are the golden corpus's
        runs = [
            ["newton", "line.txt", "--vars", "x,y"],
            ["sphdual", "line.txt", "--vars", "x,y"],
            ["sphdual", "trefoil.txt", "--vars", "m,l", "--format", "plotdata"],
            ["loglim", "trefoil.txt", "--vars", "m,l"],
            ["slopes", "trefoil.txt", "--vars", "m,l"],
            ["slopes", "link.txt", "--vars", "m1,l1,m2,l2", "--height", "3"],
            ["torusknot", "2", "3"],
            ["torusknot", "3", "4", "--psl2", "--format", "json"],
            ["sample", "trefoil.txt", "--vars", "m,l", "--grid", "8", "--rho-min", "1e-10000", "--rho-max", "1e10000"],
            ["sample", "binomial.txt", "--vars", "x,y", "--grid", "8"],
            ["sample", "segments.txt", "--vars", "x,y", "--grid", "8", "--format", "plotdata"],
        ]
        script = (
            "import json, sys\n"
            "from loglimset import cli\n"
            "before = set(sys.modules)\n"
            f"for argv in {runs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, cwd=GOLDEN, env=subprocess_env()
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == []


def _subcommands_action(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def _subcommands(parser) -> dict:
    return _subcommands_action(parser).choices


def _argparse_vars(argv):
    """vars() of argparse's namespace, or None where it refuses the line or prints help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except (cli.CliUsageError, SystemExit):
            return None


def _check_quick(argv):
    """The quick parser's namespace, after checking that argparse agrees with it."""
    quick = cli._quick_parse(argv)
    expected = _argparse_vars(argv)
    if expected is None:
        assert quick is None, argv
    elif quick is not None:
        assert vars(quick) == expected, argv
    return quick


class TestQuickParse:
    """``_quick_parse`` reads a plain line as argparse does, and leaves the rest to argparse."""

    INTS = ("1", "2", "7", "64")
    TEXT = ("a.txt", "dir/b.txt", "x,y", "m1,l1,m2,l2", "1e-10000", "x y.txt", "")
    BAD = ("-1", "-x", "--", "0", "1.5", "x", "xml", "JSON", "")

    @staticmethod
    def _valid(action, rng) -> str:
        if action.choices is not None:
            return rng.choice(list(action.choices))
        return rng.choice(TestQuickParse.INTS if action.type else TestQuickParse.TEXT)

    def _chunks(self, name, rng, included):
        """The positional run and one chunk per included option, of valid values."""
        sub = _subcommands(cli.build_parser())[name]
        positional = [a for a in sub._actions if not a.option_strings]
        run = []
        for action in positional:
            count = rng.randint(1, 3) if action.nargs == "+" else 1
            run += [self._valid(action, rng) for _ in range(count)]
        chunks = [run]
        for action in sub._actions:
            if action.option_strings and (action.required or action.dest in included):
                flag = action.option_strings[-1]
                chunks.append([flag] if action.nargs == 0 else [flag, self._valid(action, rng)])
        return chunks

    def _optional(self, name):
        sub = _subcommands(cli.build_parser())[name]
        return [a.dest for a in sub._actions if a.option_strings and not a.required and a.dest != "help"]

    def test_plain_lines_in_every_option_order(self):
        rng = random.Random(1)
        lines = 0
        for name in _subcommands(cli.build_parser()):
            optional = self._optional(name)
            for k in range(len(optional) + 1):
                for included in itertools.combinations(optional, k):
                    chunks = self._chunks(name, rng, included)
                    if len(chunks) <= 4:
                        orders = list(itertools.permutations(chunks))
                    else:
                        orders = [rng.sample(chunks, len(chunks)) for _ in range(24)]
                    for order in orders:
                        argv = [name] + [token for chunk in order for token in chunk]
                        assert _check_quick(argv) is not None, argv
                        lines += 1
        assert lines > 1400

    def _fallbacks(self, name, rng):
        """Lines the quick parser must leave to argparse, made from one plain line."""
        chunks = self._chunks(name, rng, self._optional(name))
        run, options = chunks[0], chunks[1:]
        valued = [c for c in options if len(c) == 2]
        plain = lambda *parts: [name] + [t for part in parts for t in part]  # noqa: E731
        yield plain(run, *options, ["-h"])
        yield plain(["--help"], run, *options)
        flag, value = rng.choice(valued)
        yield plain(run, *options, [flag[:3], value])  # an abbreviation such as --h
        yield plain(run, [flag[:-1], value])
        yield plain(run, *[c for c in options if c[0] != flag], [f"{flag}={value}"])
        yield plain(["--"], run, *options)
        yield plain(run, ["--"], *options)
        yield plain(run, *options, [flag, value])  # repeated
        yield plain(run, *options, [flag])  # missing value
        yield plain(run, *[c for c in options if c[0] != flag], [flag])
        for bad in (b for b in self.BAD if b.startswith("-")):
            yield plain(run, *[c for c in options if c[0] != flag], [flag, bad])
            yield plain([bad], run, *options)
        yield plain(*options)  # no positionals
        yield plain(run[:1], options[0], run[1:] or ["extra"], *options[1:])  # interleaved
        yield plain(run, *options, ["extra"])
        yield plain(run, *options, ["--unknown", "1"])
        for flag_only in (c for c in options if len(c) == 1):
            yield plain(run, *options, flag_only)  # a flag given twice
        for required in (c for c in options if c[0] == "--vars"):
            yield plain(run, *[c for c in options if c is not required])

    def test_fallbacks_and_random_lines(self):
        rng = random.Random(2026)
        names = list(_subcommands(cli.build_parser()))
        refused = 0
        for name in names:
            for _ in range(8):
                for argv in self._fallbacks(name, rng):
                    _check_quick(argv)
                    assert cli._quick_parse(argv) is None, argv
                # a value argparse refuses (a bad int, height or choice) goes to it
                run, *options = self._chunks(name, rng, self._optional(name))
                for i, bad in itertools.product(range(len(options)), self.BAD):
                    if len(options[i]) == 2:
                        argv = [name, *run] + [t for c in options[:i] + [[options[i][0], bad]] + options[i + 1 :] for t in c]
                        refused += _check_quick(argv) is None
        assert refused > 500
        for argv in ([], ["bogus"], ["Newton", "a.txt", "--vars", "x"], ["newto", "a.txt", "--vars", "x"],
                     [""], ["-h"], ["--help"], ["--vars", "x", "newton", "a.txt"]):
            _check_quick(argv)
            assert cli._quick_parse(argv) is None, argv
        # torusknot's positionals as negative numbers, with a flag between them, too few or too many
        for argv in (["torusknot", "-2", "3"], ["torusknot", "2", "--psl2", "3"], ["torusknot", "2"],
                     ["torusknot", "--psl2", "2", "3", "5"]):
            _check_quick(argv)
            assert cli._quick_parse(argv) is None, argv
        # random tokens from every command's options and values: agree or decline
        tokens = sorted({flag for sub in _subcommands(cli.build_parser()).values()
                         for a in sub._actions for flag in a.option_strings})
        tokens += list(self.INTS + self.TEXT + self.BAD) + ["json", "plotdata", "text", "csv"]
        for _ in range(3000):
            _check_quick([rng.choice(names)] + rng.choices(tokens, k=rng.randint(0, 9)))

    def test_argv_of_every_workload_is_plain(self, tmp_path):
        workloads = load_bench_module("workloads")
        for name in workloads.WORKLOADS:
            workdir = tmp_path / name
            workdir.mkdir()
            for item in workloads.build(name, 1, workdir):
                assert _check_quick(item.argv) is not None, item.argv

    def test_plain_line_builds_no_parser(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        monkeypatch.setattr(sys, "argv", ["loglimset", "torusknot", "2", "3"])
        rc, out, err = run_cli(capsys, None)
        assert (rc, out, err) == (0, golden_out("torusknot-text"), "")
        assert cli.build_parser.cache_info().currsize == 0
        # argv=None reaches argparse too: sys.argv[1:] is what it reads
        monkeypatch.setattr(sys, "argv", ["loglimset", "torusknot", "2", "3", "--height", "0"])
        rc, out, err = run_cli(capsys, None)
        assert rc == 2 and out == ""
        assert json.loads(err) == {"error": "usage", "message": "argument --height: height must be at least 1"}
        assert cli.build_parser.cache_info().currsize == 1


# (option strings, dest, nargs, type, choices, default, required, help) of
# every action of build_parser(), recorded from the parser as it was built
# before the command table, so the table must build the same tree; help is
# pinned as the strings handed to argparse, since its formatted output
# differs between Python versions
_HELP = [["-h", "--help"], "help", 0, None, None, "==SUPPRESS==", False, "show this help message and exit"]
_FILES = [[], "files", "+", None, None, None, True, "polynomial files, one generator per line"]
_VARS = [["--vars"], "vars", None, None, None, None, True, "comma-separated variable order"]
_HEIGHT = [["--height"], "height", None, "_height", None, 8, False, None]
PARSER_STRUCTURE = [
    [_HELP, [[], "command", "A...", None, ["newton", "sphdual", "loglim", "slopes", "torusknot", "sample"],
             None, True, None]],
    ["newton", "Newton polytope vertices as JSON", "cmd_newton", [_HELP, _FILES, _VARS]],
    ["sphdual", "spherical dual of each polynomial", "cmd_sphdual",
     [_HELP, _FILES, _VARS, [["--format"], "format", None, None, ["json", "plotdata"], "json", False, None]]],
    ["loglim", "limit set (outer approximation for ideals)", "cmd_loglim", [_HELP, _FILES, _VARS]],
    ["slopes", "boundary curve coordinates and slopes", "cmd_slopes", [_HELP, _FILES, _VARS, _HEIGHT]],
    ["torusknot", "torus-knot eigenvalue polynomial and slopes", "cmd_torusknot", [
        _HELP,
        [[], "p", None, "int", None, None, True, None],
        [[], "q", None, "int", None, None, True, None],
        [["--psl2"], "psl2", 0, None, None, False, False, "emit the squared-eigenvalue form"],
        _HEIGHT,
        [["--format"], "format", None, None, ["text", "json"], "text", False, None],
    ]],
    ["sample", "numerically sample a plane curve near infinity", "cmd_sample", [
        _HELP, _FILES, _VARS,
        [["--rho-min"], "rho_min", None, None, None, "1e-8", False, None],
        [["--rho-max"], "rho_max", None, None, None, "1e8", False, None],
        [["--grid"], "grid", None, "int", None, 64, False, None],
        [["--phases"], "phases", None, "int", None, 4, False, None],
        [["--seed"], "seed", None, "int", None, 0, False, None],
        [["--format"], "format", None, None, ["csv", "plotdata"], "csv", False, None],
    ]],
]


def test_parser_structure_snapshot():
    def row(a):
        choices = list(a.choices) if a.choices is not None else None
        return [list(a.option_strings), a.dest, a.nargs, getattr(a.type, "__name__", a.type), choices,
                a.default, a.required, a.help]

    parser = cli.build_parser()
    sub = _subcommands_action(parser)
    helps = {a.dest: a.help for a in sub._choices_actions}
    structure = [[row(a) for a in parser._actions]] + [
        [name, helps[name], p.get_default("run").__name__, [row(a) for a in p._actions]]
        for name, p in sub.choices.items()
    ]
    assert structure == PARSER_STRUCTURE
