"""No dead entry points: every public top-level name of the package is used.

A public name (one not starting with `_`) defined at the top level of a
module under `src/nurho` must be referenced somewhere in `src/`, `tests/`
or `bench/` outside its own definition.  References are read from the
syntax tree: the name read as a variable, read as `mod.name` on a package
module, imported by name, or named by a string of the benchmark's tracer.
A use inside the name's own body (recursion) does not keep it alive, and
neither does a docstring, a comment or a method of the same name
(`xs.extend` does not keep a function `extend` alive).

No dead imports either: every name a module of the package imports must be
read in the function, or module, whose body holds the import.

No dead methods: every method of a class of the package must be read as an
attribute (`x.name`) somewhere in `src/`, `tests/` or `bench/`, or be named
by a string of the benchmark's tracer, which patches methods by name.
Special methods (`__eq__`, ...) are called by the language and exempt.

No dead locals: every name a function of the package stores must be read
in that function or in a function nested in it.  `_` and names starting
with `_` are exempt, and so are names the function declares `global` or
`nonlocal`.
"""
import ast
import importlib.util
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


def _from_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "nurho"


def _references(tree: ast.Module):
    """(name, line) of each reference a file makes to a package name: a
    read `name`, a read `mod.name` on a name bound to a package module, or
    a name imported from the package."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            for alias in node.names:
                yield alias.name, node.lineno
                if node.module in (None, "nurho"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node.attr, node.lineno


def _tracer_strings() -> set[str]:
    """The dotted parts of every string of the benchmark's tracer, which
    patches functions and methods by name."""
    tracer = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    return {part for n in ast.walk(tracer)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            for part in n.value.split(".")}


def dead_names() -> list[str]:
    refs: dict[str, list[tuple[Path, int]]] = {}
    for path in SEARCHED:
        for name, line in _references(ast.parse(path.read_text(encoding="utf-8"))):
            refs.setdefault(name, []).append((path, line))
    traced = _tracer_strings()
    dead = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _defined_names(ast.parse(module.read_text(encoding="utf-8"))):
            used = name in traced or any(
                not (path == module and first <= line <= last)
                for path, line in refs.get(name, ())
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
    return read | _tracer_strings()


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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _DEFS + (ast.Lambda, ast.ClassDef)


def _functions(node, prefix):
    """(qualified name, node) of every function under node, methods and
    nested functions included."""
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}.{child.name}" if isinstance(child, _DEFS + (ast.ClassDef,)) else prefix
        if isinstance(child, _DEFS):
            yield name, child
        yield from _functions(child, name)


def _own_nodes(fn):
    """The nodes of fn's body outside the functions and classes it defines."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals() -> list[str]:
    unread = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for name, fn in _functions(tree, module.stem):
            own = list(_own_nodes(fn))
            declared = {n for node in own if isinstance(node, (ast.Global, ast.Nonlocal))
                        for n in node.names}
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            stored = {n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            unread += [f"{name} {v}" for v in sorted(stored - read - declared)
                       if not v.startswith("_")]
    return unread


def test_every_local_is_read():
    """A local that is stored and never read is dead code, or a bug."""
    assert unread_locals() == []
