import ast
import re
from pathlib import Path

import loglimset

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    for name in loglimset.__all__:
        assert getattr(loglimset, name) is not None, name


def test_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from loglimset import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(loglimset.__all__)


def test_readme_example_runs_and_shows_its_results():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    lines = block.splitlines()
    namespace: dict = {}
    shown = 0
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        # each expression's value is shown in the comment after it, on its
        # own line or on the next one
        rest = lines[node.end_lineno - 1][node.end_col_offset :]
        comment = rest if "#" in rest else lines[node.end_lineno]
        assert eval(code, namespace) == eval(comment.split("#", 1)[1], namespace), code
        shown += 1
    assert shown == 3
