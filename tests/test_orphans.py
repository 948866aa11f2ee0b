"""Every public top-level function or class of hykg has a caller.

Code with no caller in the program is deleted, not kept alive by its own
tests.  A name counts as used when some Name or Attribute node outside its
own definition reads it, in `src/hykg` (the package `__init__` re-exports do
not count), `bench/` or `scripts/`.  The scan reads the syntax tree, so a
name inside a string or a comment does not count.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hykg"

# Kept without a caller, each for a stated use.
ALLOWED_ORPHANS = {
    # acceptance criteria 7 and 8 call these, and ROADMAP direction 5 keeps them
    "schrodinger_limit",
    "simpson_adaptive",
}


def _modules() -> list[Path]:
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _public_definitions() -> set[str]:
    return {node.name for path in _modules() for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _used_names() -> set[str]:
    """Identifiers read anywhere but inside the definition of that name."""
    sources = _modules() + [p for top in ("bench", "scripts")
                            for p in sorted((ROOT / top).rglob("*.py"))]
    used = set()
    for path in sources:
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_public_definition_has_a_caller():
    orphans = _public_definitions() - _used_names()
    assert orphans == ALLOWED_ORPHANS, sorted(orphans)
