import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import in_convex_hull_fraction, subprocess_env
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

    def test_golden_in_four_variables(self, capsys, tmp_path, monkeypatch):
        # CI's newton golden in x,y,z,w: 44 support points, 27 vertices; the
        # sweep leaves 21 points to hull LPs, 4 of them vertices
        outcomes = []

        def recording(rows, weighted, *rest):
            lam = balance(rows, weighted, *rest)
            outcomes.append(lam is None)
            return lam

        monkeypatch.setattr(polytope, "balance", recording)
        text = "(1+x*y+z+w)*(1+x+y*z*w)*(1+x+y+z+w)"
        path = tmp_path / "four.txt"
        path.write_text(text + "\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["newton", str(path), "--vars", "x,y,z,w"])
        assert rc == 0 and err == ""
        assert out == (
            '{"dim": 4, "empty": false, "vertices": [[0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0], [0, 1, 0, 0], '
            "[0, 1, 0, 1], [0, 1, 1, 0], [0, 1, 1, 3], [0, 1, 3, 1], [0, 2, 1, 1], [0, 2, 1, 2], [0, 2, 2, 1], "
            "[1, 0, 0, 2], [1, 0, 2, 0], [1, 1, 1, 2], [1, 1, 2, 1], [1, 2, 0, 0], [1, 2, 1, 2], [1, 2, 2, 1], "
            "[1, 3, 1, 1], [2, 0, 0, 0], [2, 0, 0, 1], [2, 0, 1, 0], [2, 1, 0, 1], [2, 1, 1, 0], [2, 2, 0, 0], "
            "[2, 2, 1, 1], [3, 1, 0, 0]]}\n"
        )
        assert outcomes.count(True) == 4 and outcomes.count(False) == 17
        support = sorted(parse(text, ("x", "y", "z", "w")).support())
        vertices = [p for p in support if not in_convex_hull_fraction(p, [q for q in support if q != p])]
        assert json.loads(out)["vertices"] == [list(p) for p in vertices]

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

    # past two variables: the polynomials of CI's newton goldens, whose
    # support points lie on edges and inside, and one input in four variables
    GOLDENS_PAST_TWO = {
        "square": (
            "(x+y+1)*(x+y+1)*(x-y*z+1)",
            "x,y,z",
            (
                '{"cells": [{"eq": [[0, 1, 0]], "ineq": [[-3, 0, 1], [-2, 0, 1], [-1, 0, 0], [-1, 0, 1], '
                '[0, 0, 1]]}, {"eq": [[0, 1, 0]], "ineq": [[-2, 0, -1], [-1, 0, -1], [-1, 0, 0], [0, 0, '
                '-1]]}, {"eq": [[0, 1, 1]], "ineq": [[-3, 0, -2], [-2, 0, -1], [-1, 0, -2], [-1, 0, -1], '
                '[-1, 0, 0], [0, 0, -1]]}, {"eq": [[0, 1, 1]], "ineq": [[-2, 0, 1], [-1, 0, 0], [-1, 0, '
                '1], [-1, 0, 2], [0, 0, 1]]}, {"eq": [[1, -1, -1]], "ineq": [[0, 0, -1], [0, 1, -1], [0, '
                '1, 0], [0, 1, 1], [0, 2, 1], [0, 3, 1]]}, {"eq": [[1, -1, -1]], "ineq": [[0, 0, 1], [0, '
                '1, 1], [0, 1, 2], [0, 1, 3], [0, 2, 3]]}, {"eq": [[1, -1, 0]], "ineq": [[0, 0, -1], [0, '
                '1, -1], [0, 1, 0], [0, 2, -1]]}, {"eq": [[1, -1, 0]], "ineq": [[0, 0, 1], [0, 1, 0], '
                '[0, 1, 1], [0, 2, 1], [0, 3, 1]]}, {"eq": [[1, 0, 0]], "ineq": [[0, -3, -1], [0, -2, '
                '-1], [0, -1, -1], [0, -1, 0]]}, {"eq": [[1, 0, 0]], "ineq": [[0, -1, -1], [0, 0, -1], '
                '[0, 1, -1], [0, 1, 0]]}, {"eq": [[1, 0, 0]], "ineq": [[0, -1, 0], [0, -1, 1], [0, 0, '
                '1], [0, 1, 1]]}], "dim": 3, "full_sphere": false}\n'
            ),
        ),
        "prism": (
            "(1+x+y+z)*(1+x+y+z)*(1+x+y+z)*(1-x*y*z)",
            "x,y,z",
            (
                '{"cells": [{"eq": [[0, 0, 1]], "ineq": [[-4, -1, 0], [-3, -2, 0], [-3, -1, 0], [-2, -3, '
                '0], [-2, -1, 0], [-1, -4, 0], [-1, -3, 0], [-1, -2, 0], [-1, -1, 0], [-1, 0, 0], [0, '
                '-1, 0]]}, {"eq": [[0, 1, -1]], "ineq": [[-4, 0, 1], [-3, 0, 1], [-2, 0, -1], [-2, 0, '
                '1], [-2, 0, 3], [-1, 0, -2], [-1, 0, -1], [-1, 0, 0], [-1, 0, 1], [-1, 0, 2], [-1, 0, '
                '3], [0, 0, 1]]}, {"eq": [[0, 1, -1]], "ineq": [[-2, 0, 3], [-2, 0, 5], [-1, 0, 1], [-1, '
                '0, 2], [-1, 0, 3], [-1, 0, 4], [-1, 0, 5], [0, 0, 1], [1, 0, 2], [1, 0, 3], [1, 0, 4], '
                '[1, 0, 5]]}, {"eq": [[0, 1, 0]], "ineq": [[-4, 0, -1], [-3, 0, -2], [-3, 0, -1], [-2, '
                '0, -3], [-2, 0, -1], [-1, 0, -4], [-1, 0, -3], [-1, 0, -2], [-1, 0, -1], [-1, 0, 0], '
                '[0, 0, -1]]}, {"eq": [[1, -1, 0]], "ineq": [[0, -2, -1], [0, -1, -2], [0, -1, -1], [0, '
                '0, -1], [0, 1, -4], [0, 1, -3], [0, 1, -2], [0, 1, -1], [0, 1, 0], [0, 2, -1], [0, 3, '
                '-2], [0, 3, -1]]}, {"eq": [[1, -1, 0]], "ineq": [[0, 1, -1], [0, 1, 0], [0, 2, -1], [0, '
                '2, 1], [0, 3, -2], [0, 3, -1], [0, 3, 1], [0, 4, -1], [0, 4, 1], [0, 5, -2], [0, 5, '
                '-1], [0, 5, 1]]}, {"eq": [[1, 0, -1]], "ineq": [[0, -4, 1], [0, -3, 1], [0, -2, -1], '
                '[0, -2, 1], [0, -2, 3], [0, -1, -2], [0, -1, -1], [0, -1, 0], [0, -1, 1], [0, -1, 2], '
                '[0, -1, 3], [0, 0, 1]]}, {"eq": [[1, 0, -1]], "ineq": [[0, -2, 3], [0, -2, 5], [0, -1, '
                '1], [0, -1, 2], [0, -1, 3], [0, -1, 4], [0, -1, 5], [0, 0, 1], [0, 1, 2], [0, 1, 3], '
                '[0, 1, 4], [0, 1, 5]]}, {"eq": [[1, 0, 0]], "ineq": [[0, -4, -1], [0, -3, -2], [0, -3, '
                '-1], [0, -2, -3], [0, -2, -1], [0, -1, -4], [0, -1, -3], [0, -1, -2], [0, -1, -1], [0, '
                '-1, 0], [0, 0, -1]]}, {"eq": [[1, 1, 1]], "ineq": [[0, -5, -4], [0, -5, -3], [0, -4, '
                '-5], [0, -4, -3], [0, -3, -5], [0, -3, -4], [0, -3, -2], [0, -2, -3], [0, -2, -1], [0, '
                '-1, -2], [0, -1, -1]]}, {"eq": [[1, 1, 1]], "ineq": [[0, -2, 3], [0, -1, 1], [0, -1, '
                '2], [0, -1, 3], [0, -1, 4], [0, 0, 1], [0, 1, 2], [0, 1, 3], [0, 1, 4], [0, 1, 5], [0, '
                '2, 5]]}, {"eq": [[1, 1, 1]], "ineq": [[0, 1, -1], [0, 1, 0], [0, 2, -1], [0, 2, 1], [0, '
                '3, -2], [0, 3, -1], [0, 3, 1], [0, 4, -1], [0, 4, 1], [0, 5, 1], [0, 5, 2]]}], '
                '"dim": 3, "full_sphere": false}\n'
            ),
        ),
        "four": (
            "x*y*z*w+x^2+y^2*w+z^2+w^3+x*z^-1+1",
            "x,y,z,w",
            (
                '{"cells": [{"eq": [[0, 0, 0, 1]], "ineq": [[-1, -1, -1, 0], [-1, 0, 0, 0], [-1, 0, 1, '
                '0], [0, -1, 0, 0], [0, 0, -1, 0]]}, {"eq": [[0, 0, 1, 0]], "ineq": [[-1, -1, 0, -1], '
                '[-1, 0, 0, 0], [0, -2, 0, -1], [0, 0, 0, -1]]}, {"eq": [[0, 0, 2, -3]], "ineq": [[-2, '
                '-2, 0, 1], [-2, 0, 0, 3], [-2, 0, 0, 9], [0, -1, 0, 1], [0, 0, 0, 1]]}, {"eq": [[0, 1, '
                '0, -1]], "ineq": [[-2, 0, 0, 3], [-1, 0, -1, 1], [-1, 0, 1, 3], [0, 0, -2, 3], [0, 0, '
                '0, 1]]}, {"eq": [[0, 2, -2, 1]], "ineq": [[-2, 0, 0, -1], [-1, 0, 1, 0], [-1, 0, 3, 0], '
                '[0, 0, 1, 0], [0, 0, 2, -3]]}, {"eq": [[0, 2, 0, 1]], "ineq": [[-2, 0, -2, -1], [-1, 0, '
                '0, 0], [-1, 0, 1, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}, {"eq": [[1, -2, -1, -1]], '
                '"ineq": [[0, -2, -2, -1], [0, -1, -2, -1], [0, 1, 0, -1], [0, 2, -2, 1], [0, 2, 0, '
                '1]]}, {"eq": [[1, -1, -1, -1]], "ineq": [[0, 0, 2, 1], [0, 1, 0, 1], [0, 1, 1, 1], [0, '
                '1, 2, 1], [0, 2, 2, -1]]}, {"eq": [[1, -1, 1, 0]], "ineq": [[0, 0, 2, 1], [0, 1, 0, '
                '-1], [0, 1, 2, 1], [0, 2, -2, 1], [0, 2, 0, 1]]}, {"eq": [[1, 0, -1, -3]], "ineq": [[0, '
                '-1, -2, -1], [0, -1, 0, 1], [0, 0, -2, -3], [0, 0, -2, 3], [0, 0, 0, 1]]}, {"eq": [[1, '
                '0, -1, 0]], "ineq": [[0, -2, 0, -1], [0, -1, -2, -1], [0, 0, -1, 0], [0, 0, 0, -1]]}, '
                '{"eq": [[1, 0, -1, 0]], "ineq": [[0, -2, 2, -1], [0, -1, 0, -1], [0, 0, 1, 0], [0, 0, '
                '2, -3]]}, {"eq": [[1, 0, 1, 0]], "ineq": [[0, -2, -2, -1], [0, -1, -2, -1], [0, 0, -2, '
                '-3], [0, 0, -1, 0]]}, {"eq": [[1, 1, -1, 1]], "ineq": [[0, -2, 2, -1], [0, 0, 1, 0], '
                '[0, 0, 2, -3], [0, 1, 0, 1], [0, 1, 2, 1]]}, {"eq": [[1, 1, 1, -2]], "ineq": [[0, -1, '
                '0, 1], [0, 0, -2, 3], [0, 0, 0, 1], [0, 1, 2, 1], [0, 2, 2, -1]]}, {"eq": [[2, -2, 0, '
                '-1]], "ineq": [[0, 0, -2, -1], [0, 1, 0, -1], [0, 2, -2, 1], [0, 2, 0, 1], [0, 2, 2, '
                '1]]}, {"eq": [[2, 0, 0, -3]], "ineq": [[0, -2, -2, 1], [0, -1, 0, 1], [0, 0, -2, 3], '
                '[0, 0, 0, 1], [0, 0, 2, 3]]}], "dim": 4, "full_sphere": false}\n'
            ),
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDENS_PAST_TWO))
    def test_golden_past_two_variables(self, capsys, tmp_path, name):
        poly, variables, golden = self.GOLDENS_PAST_TWO[name]
        path = tmp_path / f"{name}.txt"
        path.write_text(poly + "\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["sphdual", str(path), "--vars", variables])
        assert rc == 0 and err == ""
        assert out == "".join(golden)

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

    def test_nested_pieces_golden(self, capsys, tmp_path):
        # two planes in three variables: 4 of the intersection's pieces lie
        # inside others and are dropped by the maximal reduction
        path = tmp_path / "planes.txt"
        path.write_text("x+y+z+1\nx+2*y+3*z+4\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["loglim", str(path), "--vars", "x,y,z"])
        assert rc == 0 and err == ""
        assert out == (
            '{"cells": [{"eq": [[0, 0, 1]], "ineq": [[-1, 0, 0], [0, -1, 0]]}, '
            '{"eq": [[0, 1, -1]], "ineq": [[-1, 0, 1], [0, 0, 1]]}, '
            '{"eq": [[0, 1, 0]], "ineq": [[-1, 0, 0], [0, 0, -1]]}, '
            '{"eq": [[1, -1, 0]], "ineq": [[0, 1, -1], [0, 1, 0]]}, '
            '{"eq": [[1, 0, -1]], "ineq": [[0, -1, 1], [0, 0, 1]]}, '
            '{"eq": [[1, 0, 0]], "ineq": [[0, -1, 0], [0, 0, -1]]}], '
            '"dim": 3, "full_sphere": false, "outer": true}\n'
        )

    def test_three_generator_golden(self, capsys, tmp_path):
        # a third generator cuts the two planes' intersection: the chained
        # intersection of duals, each piece kept by the fan rule or reduced
        # by containment
        path = tmp_path / "three.txt"
        path.write_text("x+y+z+1\nx+2*y+3*z+4\nx-y^2*z+z^3-2\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["loglim", str(path), "--vars", "x,y,z"])
        assert rc == 0 and err == ""
        assert out == (
            '{"cells": [{"eq": [[0, 0, 1]], "ineq": [[-1, 0, 0], [0, -1, 0]]}, '
            '{"eq": [[0, 1, -1]], "ineq": [[-1, 0, 1], [-1, 0, 3], [0, 0, 1]]}, '
            '{"eq": [[0, 1, 1], [1, 0, 1]], "ineq": [[0, 0, -1]]}, '
            '{"eq": [[1, 0, 0]], "ineq": [[0, -2, -1], [0, -1, 0], [0, 0, -1]]}], '
            '"dim": 3, "full_sphere": false, "outer": true}\n'
        )

    def test_split_link_golden(self, capsys, tmp_path):
        # the (2,3) and (2,5) torus knots on two cusps: every cell of the
        # intersection has two equalities, one from each cusp
        path = tmp_path / "link.txt"
        path.write_text("(l1-1)*(l1*m1^6+1)\n(l2-1)*(l2*m2^10+1)\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["loglim", str(path), "--vars", "m1,l1,m2,l2"])
        assert rc == 0 and err == ""
        assert out == (
            '{"cells": [{"eq": [[0, 0, 0, 1], [0, 1, 0, 0]], "ineq": [[-1, 0, 0, 0], [0, 0, -1, 0]]}, '
            '{"eq": [[0, 0, 0, 1], [0, 1, 0, 0]], "ineq": [[-1, 0, 0, 0], [0, 0, 1, 0]]}, '
            '{"eq": [[0, 0, 0, 1], [0, 1, 0, 0]], "ineq": [[0, 0, -1, 0], [1, 0, 0, 0]]}, '
            '{"eq": [[0, 0, 0, 1], [0, 1, 0, 0]], "ineq": [[0, 0, 1, 0], [1, 0, 0, 0]]}, '
            '{"eq": [[0, 0, 0, 1], [6, 1, 0, 0]], "ineq": [[0, -1, 0, 0], [0, 0, -1, 0]]}, '
            '{"eq": [[0, 0, 0, 1], [6, 1, 0, 0]], "ineq": [[0, -1, 0, 0], [0, 0, 1, 0]]}, '
            '{"eq": [[0, 0, 0, 1], [6, 1, 0, 0]], "ineq": [[0, 0, -1, 0], [0, 1, 0, 0]]}, '
            '{"eq": [[0, 0, 0, 1], [6, 1, 0, 0]], "ineq": [[0, 0, 1, 0], [0, 1, 0, 0]]}, '
            '{"eq": [[0, 0, 10, 1], [0, 1, 0, 0]], "ineq": [[-1, 0, 0, 0], [0, 0, 0, -1]]}, '
            '{"eq": [[0, 0, 10, 1], [0, 1, 0, 0]], "ineq": [[-1, 0, 0, 0], [0, 0, 0, 1]]}, '
            '{"eq": [[0, 0, 10, 1], [0, 1, 0, 0]], "ineq": [[0, 0, 0, -1], [1, 0, 0, 0]]}, '
            '{"eq": [[0, 0, 10, 1], [0, 1, 0, 0]], "ineq": [[0, 0, 0, 1], [1, 0, 0, 0]]}, '
            '{"eq": [[0, 0, 10, 1], [6, 1, 0, 0]], "ineq": [[0, -1, 0, 0], [0, 0, 0, -1]]}, '
            '{"eq": [[0, 0, 10, 1], [6, 1, 0, 0]], "ineq": [[0, -1, 0, 0], [0, 0, 0, 1]]}, '
            '{"eq": [[0, 0, 10, 1], [6, 1, 0, 0]], "ineq": [[0, 0, 0, -1], [0, 1, 0, 0]]}, '
            '{"eq": [[0, 0, 10, 1], [6, 1, 0, 0]], "ineq": [[0, 0, 0, 1], [0, 1, 0, 0]]}], '
            '"dim": 4, "full_sphere": false, "outer": true}\n'
        )

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

    def test_split_link_golden_at_benchmark_height(self, capsys, tmp_path):
        # the (2,3) and (2,5) split link at the boundary-slopes height: each
        # of its 16 cells walks both free coordinates over [0, 12]
        path = tmp_path / "link.txt"
        path.write_text("(l1-1)*(l1*m1^6+1)\n(l2-1)*(l2*m2^10+1)\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["slopes", str(path), "--vars", "m1,l1,m2,l2", "--height", "12"])
        assert rc == 0 and err == ""
        assert out == (
            '{"coordinates": [[0, 0, 0, 1], [0, 0, 10, 1], [0, 1, 0, 0], [0, 1, 0, 1], '
            '[0, 1, 0, 2], [0, 1, 0, 3], [0, 1, 0, 4], [0, 1, 0, 5], [0, 1, 0, 6], [0, 1, 0, 7], '
            '[0, 1, 0, 8], [0, 1, 0, 9], [0, 1, 0, 10], [0, 1, 0, 11], [0, 1, 0, 12], '
            '[0, 1, 10, 1], [0, 2, 0, 1], [0, 2, 0, 3], [0, 2, 0, 5], [0, 2, 0, 7], '
            '[0, 2, 0, 9], [0, 2, 0, 11], [0, 2, 10, 1], [0, 3, 0, 1], [0, 3, 0, 2], '
            '[0, 3, 0, 4], [0, 3, 0, 5], [0, 3, 0, 7], [0, 3, 0, 8], [0, 3, 0, 10], '
            '[0, 3, 0, 11], [0, 3, 10, 1], [0, 4, 0, 1], [0, 4, 0, 3], [0, 4, 0, 5], '
            '[0, 4, 0, 7], [0, 4, 0, 9], [0, 4, 0, 11], [0, 4, 10, 1], [0, 5, 0, 1], '
            '[0, 5, 0, 2], [0, 5, 0, 3], [0, 5, 0, 4], [0, 5, 0, 6], [0, 5, 0, 7], [0, 5, 0, 8], '
            '[0, 5, 0, 9], [0, 5, 0, 11], [0, 5, 0, 12], [0, 5, 10, 1], [0, 6, 0, 1], '
            '[0, 6, 0, 5], [0, 6, 0, 7], [0, 6, 0, 11], [0, 6, 10, 1], [0, 7, 0, 1], '
            '[0, 7, 0, 2], [0, 7, 0, 3], [0, 7, 0, 4], [0, 7, 0, 5], [0, 7, 0, 6], [0, 7, 0, 8], '
            '[0, 7, 0, 9], [0, 7, 0, 10], [0, 7, 0, 11], [0, 7, 0, 12], [0, 7, 10, 1], '
            '[0, 8, 0, 1], [0, 8, 0, 3], [0, 8, 0, 5], [0, 8, 0, 7], [0, 8, 0, 9], '
            '[0, 8, 0, 11], [0, 8, 10, 1], [0, 9, 0, 1], [0, 9, 0, 2], [0, 9, 0, 4], '
            '[0, 9, 0, 5], [0, 9, 0, 7], [0, 9, 0, 8], [0, 9, 0, 10], [0, 9, 0, 11], '
            '[0, 9, 10, 1], [0, 10, 0, 1], [0, 10, 0, 3], [0, 10, 0, 7], [0, 10, 0, 9], '
            '[0, 10, 0, 11], [0, 10, 10, 1], [0, 11, 0, 1], [0, 11, 0, 2], [0, 11, 0, 3], '
            '[0, 11, 0, 4], [0, 11, 0, 5], [0, 11, 0, 6], [0, 11, 0, 7], [0, 11, 0, 8], '
            '[0, 11, 0, 9], [0, 11, 0, 10], [0, 11, 0, 12], [0, 11, 10, 1], [0, 12, 0, 1], '
            '[0, 12, 0, 5], [0, 12, 0, 7], [0, 12, 0, 11], [0, 12, 10, 1], [6, 1, 0, 0], '
            '[6, 1, 0, 1], [6, 1, 0, 2], [6, 1, 0, 3], [6, 1, 0, 4], [6, 1, 0, 5], [6, 1, 0, 6], '
            '[6, 1, 0, 7], [6, 1, 0, 8], [6, 1, 0, 9], [6, 1, 0, 10], [6, 1, 0, 11], '
            '[6, 1, 0, 12], [6, 1, 10, 1], [12, 2, 0, 1], [12, 2, 0, 3], [12, 2, 0, 5], '
            '[12, 2, 0, 7], [12, 2, 0, 9], [12, 2, 0, 11], [12, 2, 10, 1]], "h": 2, "slopes": []}'
            "\n"
        )
        assert len(out) == 1887 and len(json.loads(out)["coordinates"]) == 127

    def test_grid_too_large_to_index_is_a_json_error(self, capsys, tmp_path):
        # the whole sphere of four variables at height 30 000: 60 001^4 > 2^63 vectors
        path = tmp_path / "zero.txt"
        path.write_text("0\n", encoding="utf-8")
        rc, out, err = run_cli(capsys, ["slopes", str(path), "--vars", "m1,l1,m2,l2", "--height", "30000"])
        assert rc == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "too large" in payload["message"]


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
        assert rc == 0 and out == TestSphdual.GOLDEN
        assert run_cli(capsys, ["torusknot", "2", "3", "--psl2"])[0] == 0
        rc, out, _ = run_cli(capsys, ["torusknot", "2", "3"])
        assert rc == 0 and out == TestTorusknot.TEXT_GOLDEN
        assert cli.build_parser() is cli.build_parser()


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

    def test_commands_import_nothing_after_start_up(self, tmp_path):
        # every module a command needs is loaded by `import loglimset.cli`,
        # so no command pays a first-use import (np.unique, for one, imports
        # numpy.ma on its first call); argparse's gettext loads locale
        files = {
            "line": "x+y+1\n",
            "trefoil": "(l-1)*(l*m^6+1)\n",
            "binomial": "3*x^3-5\n",
            "segments": "(y-1)*(y^2-x^3)*(y^3-x^7)\n",
            "link": "(l1-1)*(l1*m1^6+1)\n(l2-1)*(l2*m2^10+1)\n",
        }
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
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
            [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=subprocess_env()
        )
        assert result.returncode == 0, result.stderr
        assert set(json.loads(result.stdout.splitlines()[-1])) <= {"locale", "_locale"}
