import ast
from pathlib import Path

import cca


def test_no_asserts_in_package():
    # python -O strips assert statements; checks in the package must raise
    # explicit errors instead
    src = Path(cca.__file__).resolve().parent
    paths = sorted(src.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(), filename=path.name)
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"
