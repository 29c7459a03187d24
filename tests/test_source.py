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


def test_no_unreferenced_functions():
    # every top-level function of the package is named somewhere in src/,
    # tests/ or bench/ outside its own definition: as a name, an attribute,
    # an imported name or a string (the benchmark's tracer patches by name)
    src = Path(cca.__file__).resolve().parent
    root = src.parent.parent
    trees = [ast.parse(path.read_text(), filename=str(path))
             for top in ("src", "tests", "bench")
             for path in sorted((root / top).rglob("*.py"))]
    named: dict[str, int] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            named[name] = named.get(name, 0) + 1
    unreferenced = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # names inside the definition itself (recursion) do not count
            own = sum(isinstance(sub, ast.Name) and sub.id == node.name
                      for sub in ast.walk(node))
            if named.get(node.name, 0) == own:
                unreferenced.append(f"{path.name}: {node.name}")
    assert not unreferenced, unreferenced
