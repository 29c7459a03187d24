import ast
from pathlib import Path

import cca


def test_no_asserts_in_engine_and_its_layers():
    # python -O strips assert statements; checks in these modules must
    # raise explicit errors instead
    src = Path(cca.__file__).resolve().parent
    for name in ("engine.py", "groups.py", "graphs.py", "constructions.py"):
        tree = ast.parse((src / name).read_text(), filename=name)
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not lines, f"{name}: assert at lines {lines}"
