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


def test_only_masks_imports_numpy():
    # numpy takes about half of a fresh `cca check` process, so it stays
    # behind the enumeration: cca.masks holds every numpy kernel, and no
    # other module imports numpy, at module level or inside a function
    src = Path(cca.__file__).resolve().parent
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=path.name)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers and all(where.startswith("masks.py:")
                             for where in importers), importers


def _names(paths) -> dict[str, int]:
    """How often each name occurs in the files: as a name, an attribute, an
    imported name or a string (the benchmark's tracer patches by name)."""
    named: dict[str, int] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
    return named


def _functions(src: Path):
    """(path, node, own) for every top-level function and method of the
    package that is not special.  `own` counts the function's name inside
    its own definition (recursion), which is no use of it."""
    for path in sorted(src.glob("*.py")):
        # special methods, and special module functions such as a package's
        # __getattr__ (PEP 562), are called by the language
        body = [node for node in ast.parse(path.read_text()).body
                if not (getattr(node, "name", "").startswith("__")
                        and node.name.endswith("__"))]
        body += [node for cls in body if isinstance(cls, ast.ClassDef)
                 for node in cls.body
                 if not getattr(node, "name", "").startswith("__")]
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = sum(isinstance(sub, (ast.Name, ast.Attribute))
                          and node.name in (getattr(sub, "id", None),
                                            getattr(sub, "attr", None))
                          for sub in ast.walk(node))
                yield path, node, own


def test_no_unreferenced_functions():
    # every top-level function and method of the package is named somewhere
    # in src/, tests/ or bench/ outside its own definition
    src = Path(cca.__file__).resolve().parent
    root = src.parent.parent
    named = _names(path for top in ("src", "tests", "bench")
                   for path in sorted((root / top).rglob("*.py")))
    unreferenced = [f"{path.name}: {node.name}"
                    for path, node, own in _functions(src)
                    if named.get(node.name, 0) == own]
    assert not unreferenced, unreferenced


# package functions that only tests call, each kept for its own reason
TEST_ONLY_KEPT = {
    # the acceptance tests' class-membership oracle: conjugacy of connection
    # sets, decided without the enumeration's canonical masks
    "are_conjugate_subsets",
    # the paper's Cay(G/N, S/N), on which the engine tests check that Aut_c
    # passes to the quotient
    "quotient_graph",
}


def test_no_test_only_functions():
    # every top-level function and method of the package is named in src/
    # outside its own definition and __init__.py, or in bench/*.py: one that
    # only tests call reaches no command, recipe, construction or workload
    src = Path(cca.__file__).resolve().parent
    root = src.parent.parent
    named = _names([path for path in sorted(src.glob("*.py"))
                    if path.name != "__init__.py"]
                   + sorted((root / "bench").glob("*.py")))
    functions = list(_functions(src))
    test_only = [f"{path.name}: {node.name}" for path, node, own in functions
                 if named.get(node.name, 0) == own
                 and node.name not in TEST_ONLY_KEPT]
    assert not test_only, test_only
    assert TEST_ONLY_KEPT <= {node.name for _, node, _ in functions}


def test_no_unread_attributes():
    # every attribute the package sets, on self or on any other object, and
    # every dataclass field, is read somewhere in src/, tests/ or bench/ outside the function that sets
    # it: as an attribute or as a string (getattr); filling it in place there
    # does not count
    src = Path(cca.__file__).resolve().parent
    root = src.parent.parent
    read: dict[str, int] = {}
    for top in ("src", "tests", "bench"):
        for path in sorted((root / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif isinstance(node, ast.Constant) and \
                        isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                read[name] = read.get(name, 0) + 1
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        # the fields of a dataclass are set by its generated __init__
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                unread += [f"{path.name}:{node.lineno}: {node.target.id}"
                           for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and not read.get(node.target.id)]
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                for t in targets:
                    if not isinstance(t, ast.Attribute):
                        continue
                    own = sum(isinstance(sub, ast.Attribute)
                              and isinstance(sub.ctx, ast.Load)
                              and sub.attr == t.attr for sub in ast.walk(fn))
                    if read.get(t.attr, 0) == own:
                        unread.append(f"{path.name}:{t.lineno}: {t.attr}")
    assert not unread, unread


def _default_settings():
    """(function, parameter, sets) for every defaulted parameter of a package
    function, where sets holds, for each call of it in src/, tests/ or
    bench/, whether that call sets the parameter, by keyword or by position.
    Calls are matched by the called name; a call of a class counts for its
    __init__, and *args or **kwargs in a call count as setting every
    parameter, except where they only forward the enclosing function's own
    *args or **kwargs: such a wrapper sets what its own callers set, which
    the scan cannot follow."""
    src = Path(cca.__file__).resolve().parent
    root = src.parent.parent
    calls: dict[str, list] = {}
    for top in ("src", "tests", "bench"):
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            # the *args and **kwargs names of the functions around each call
            forwards: dict[int, set] = {}
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    own = {a.arg for a in (fn.args.vararg, fn.args.kwarg)
                           if a}
                    for node in ast.walk(fn):
                        forwards.setdefault(id(node), set()).update(own)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                own = forwards.get(id(node), set())

                def forwarded(value):
                    return isinstance(value, ast.Name) and value.id in own

                args = [a for a in node.args
                        if not (isinstance(a, ast.Starred)
                                and forwarded(a.value))]
                n = len(args)
                if any(isinstance(a, ast.Starred) for a in args):
                    n = float("inf")
                kw = {k.arg or "**" for k in node.keywords
                      if k.arg or not forwarded(k.value)}
                calls.setdefault(name, []).append((n, kw))
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods.update((id(fn), cls.name) for fn in cls.body)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = methods[id(fn)] if fn.name == "__init__" else fn.name
            # positions count the arguments a caller passes: not self
            args = [a.arg for a in fn.args.args][id(fn) in methods:]
            for pos in range(len(args) - len(fn.args.defaults), len(args)):
                sets = [n > pos or args[pos] in kw or "**" in kw
                        for n, kw in calls.get(name, [])]
                yield f"{path.name}:{fn.lineno}: {fn.name}({args[pos]})", sets


def test_no_unset_defaults():
    # every defaulted parameter of a package function is set by some call:
    # a default that no caller overrides is a constant
    unset = [where for where, sets in _default_settings() if not any(sets)]
    assert not unset, unset


def test_no_always_set_defaults():
    # no defaulted parameter of a package function is set by every call of
    # it: a default that every caller overrides is never used
    always = [where for where, sets in _default_settings()
              if sets and all(sets)]
    assert not always, always


def test_no_unused_imports():
    # every name a package module imports is used in that module, as a name
    # or as the base of an attribute; __init__.py re-exports and
    # `from __future__` imports are exempt
    src = Path(cca.__file__).resolve().parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=path.name)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in sorted(imported.items())
                   if name not in used]
    assert not unused, unused


def _pipes_outside_code(line: str) -> int:
    """The number of '|' in a markdown line outside backtick spans."""
    count, in_code = 0, False
    for ch in line:
        if ch == "`":
            in_code = not in_code
        elif ch == "|" and not in_code:
            count += 1
    return count


def test_readme_module_table():
    # every module of the package has exactly one row in the README's
    # Library overview, and that row has exactly two cells: a row cut off
    # mid-sentence runs into the next one and fails here
    src = Path(cca.__file__).resolve().parent
    readme = (src.parent.parent / "README.md").read_text()
    section = readme.split("## Library overview\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    bad = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        name = f"`cca.{path.stem}`"
        hits = [row for row in rows if name in row]
        if section.count(name) != 1 or len(hits) != 1 \
                or not hits[0].startswith(f"| {name} |") \
                or _pipes_outside_code(hits[0]) != 3:
            bad.append(name)
    assert not bad, bad
