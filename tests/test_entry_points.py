"""No dead entry points: every public top-level name of the package is used.

A public name (one not starting with `_`) defined at the top level of a
module under `src/nurho` must be referenced somewhere in `src/`, `tests/`
or `bench/` outside its own definition.  References are counted with a
word-boundary search, so a use inside the name's own body (recursion, a
docstring) does not keep it alive.

No dead imports either: every name a module of the package imports must be
read in the function, or module, whose body holds the import.

No dead methods: every method of a class of the package must be read as an
attribute (`x.name`) somewhere in `src/`, `tests/` or `bench/`, or be named
by a string of the benchmark's tracer, which patches methods by name.
Special methods (`__eq__`, ...) are called by the language and exempt.
"""
import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nurho"
SEARCHED = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]


def _defined_names(tree: ast.Module):
    """(name, first line, last line) of every public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def dead_names() -> list[str]:
    texts = {p: p.read_text(encoding="utf-8").splitlines() for p in SEARCHED}
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _defined_names(ast.parse(module.read_text(encoding="utf-8"))):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(
                word.search(line)
                for path, lines in texts.items()
                for no, line in enumerate(lines, 1)
                if not (path == module and first <= no <= last)
            )
            if not used:
                dead.append(f"{module.stem}.{name}")
    return dead


def test_every_public_name_is_referenced():
    assert SEARCHED, "no sources found"
    assert dead_names() == []


def _imports(node, scope):
    """(import statement, the function or module it binds its names in)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _imports(child, inner)


def unused_imports() -> list[str]:
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for imp, scope in _imports(tree, tree):
            if isinstance(imp, ast.ImportFrom) and imp.module == "__future__":
                continue
            used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            for alias in imp.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{module.stem}:{imp.lineno}:{name}")
    return unused


def test_every_import_is_used():
    """An imported name must be read in the scope that imports it."""
    assert unused_imports() == []


def _read_attributes() -> set[str]:
    read = set()
    for path in SEARCHED:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
    tracer = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    read |= {n.value for n in ast.walk(tracer)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return read


def dead_methods() -> list[str]:
    read = _read_attributes()
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(module.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (fn.name.startswith("__") and fn.name.endswith("__"))
                        and fn.name not in read):
                    dead.append(f"{module.stem}.{cls.name}.{fn.name}")
    return dead


def test_every_method_is_read():
    assert dead_methods() == []


def test_every_traced_name_exists():
    """The benchmark's tracer looks each target up in its owner's __dict__,
    so renaming or deleting one breaks `bench/run.py --trace 1`."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name, owner, attr, _ in tracing.TARGETS if attr not in vars(owner)]
    assert tracing.TARGETS and missing == []
