"""No dead entry points: every public top-level name of the package is used.

A public name (one not starting with `_`) defined at the top level of a
module under `src/nurho` must be referenced somewhere in `src/`, `tests/`
or `bench/` outside its own definition.  References are counted with a
word-boundary search, so a use inside the name's own body (recursion, a
docstring) does not keep it alive.
"""
import ast
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
