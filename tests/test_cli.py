import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import subprocess_env
from loglimset import cli
from loglimset.knots import TorusKnotParams, a_polynomial
from loglimset.laurent import parse
from loglimset.loglim import loglim_outer
from loglimset.polytope import newton_polytope
from loglimset.slopes import detect_boundary_coordinates
from loglimset.sphdual import spherical_dual


def run_cli(capsys, args):
    rc = cli.main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def triangle_file(tmp_path: Path) -> str:
    path = tmp_path / "triangle.txt"
    path.write_text("# a line in the torus\nx+y+1\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def trefoil_file(tmp_path: Path) -> str:
    path = tmp_path / "trefoil.txt"
    path.write_text("(l-1)*(l*m^6+1)\n", encoding="utf-8")
    return str(path)


class TestNewton:
    def test_golden(self, capsys, triangle_file):
        rc, out, err = run_cli(capsys, ["newton", triangle_file, "--vars", "x,y"])
        assert rc == 0 and err == ""
        assert out == '{"dim": 2, "empty": false, "vertices": [[0, 0], [0, 1], [1, 0]]}\n'

    def test_matches_library(self, capsys, trefoil_file):
        rc, out, _ = run_cli(capsys, ["newton", trefoil_file, "--vars", "m,l"])
        assert rc == 0
        lib = newton_polytope(parse("(l-1)*(l*m^6+1)", ("m", "l"))).to_json_dict()
        assert json.loads(out) == json.loads(json.dumps(lib))


class TestSphdual:
    GOLDEN = (
        '{"cells": [{"eq": [[0, 1]], "ineq": [[-1, 0]]}, '
        '{"eq": [[1, -1]], "ineq": [[0, 1]]}, '
        '{"eq": [[1, 0]], "ineq": [[0, -1]]}], "dim": 2, "full_sphere": false}\n'
    )

    def test_golden(self, capsys, triangle_file):
        rc, out, err = run_cli(capsys, ["sphdual", triangle_file, "--vars", "x,y"])
        assert rc == 0 and err == ""
        assert out == self.GOLDEN

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
    def test_point_variety_golden(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("x-1\ny-1\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["loglim", str(path), "--vars", "x,y"])
        assert rc == 0 and err == ""
        assert out == '{"cells": [], "dim": 2, "full_sphere": false, "outer": true}\n'

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
    def test_trefoil_golden(self, capsys, trefoil_file):
        rc, out, err = run_cli(
            capsys, ["slopes", trefoil_file, "--vars", "m,l", "--height", "8"]
        )
        assert rc == 0 and err == ""
        assert out == '{"coordinates": [[0, 1], [6, 1]], "h": 1, "slopes": ["0", "6"]}\n'

    def test_matches_library(self, capsys, trefoil_file):
        rc, out, _ = run_cli(capsys, ["slopes", trefoil_file, "--vars", "m,l"])
        lib = detect_boundary_coordinates(
            spherical_dual(parse("(l-1)*(l*m^6+1)", ("m", "l"))), 8
        )
        assert json.loads(out)["coordinates"] == sorted(list(c.entries) for c in lib)

    def test_odd_variable_count_rejected(self, capsys, trefoil_file):
        rc, out, err = run_cli(capsys, ["slopes", trefoil_file, "--vars", "m,l,n"])
        assert rc == 2 and out == ""
        assert json.loads(err)["error"] == "usage"

    def test_h_flag_must_match(self, capsys, trefoil_file):
        rc, _, err = run_cli(capsys, ["slopes", trefoil_file, "--vars", "m,l", "--h", "2"])
        assert rc == 2
        assert json.loads(err)["error"] == "usage"


class TestTorusknot:
    TEXT_GOLDEN = (
        "# torus knot (2,3) A-polynomial over (m, l)\n"
        "# factors: (l - 1) * (m^6*l + 1)\n"
        "m^6*l^2 - m^6*l + l - 1\n"
        "# boundary slopes (height 8): 0, 6\n"
    )

    def test_text_golden(self, capsys):
        rc, out, err = run_cli(capsys, ["torusknot", "2", "3"])
        assert rc == 0 and err == ""
        assert out == self.TEXT_GOLDEN

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
            p.render() for p, _ in a_polynomial(TorusKnotParams(3, 4))
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

    def test_matches_library(self, capsys, triangle_file):
        from loglimset.loglim import SampleParams, csv_lines, sample_loglim

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
        assert data == csv_lines(lib.points)

    def test_rejects_multiple_polynomials(self, capsys, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text("x+y+1\nx-y\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, ["sample", str(path), "--vars", "x,y"])
        assert rc == 2
        assert json.loads(err)["error"] == "usage"


class TestErrorsAndDeterminism:
    def test_parse_error_json(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x + * y\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["newton", str(path), "--vars", "x,y"])
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "parse"
        assert payload["position"] == 4

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, ["newton", "/nonexistent/poly.txt", "--vars", "x"])
        assert rc == 1
        assert json.loads(err)["error"] == "FileNotFoundError"

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


class TestSubprocessEntry:
    def test_python_dash_m(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("x+y+1\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "loglimset", "newton", str(path), "--vars", "x,y"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["vertices"] == [[0, 0], [0, 1], [1, 0]]
