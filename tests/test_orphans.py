"""Every top-level function or class of hykg, and every method, has a caller.

Code with no caller in the program is deleted, not kept alive by its own
tests.  A name counts as used when some Name or Attribute node outside its
own definition reads it, in `src/hykg` (the package `__init__` re-exports do
not count), `bench/` or `scripts/`, and that read resolves to the module
that defines the name: a bare name read in that module itself or bound by
an import from it (or from the package, which re-exports it), or an
attribute of a name bound to that module.  So a local function or a method
of the same name elsewhere does not keep a definition alive.  The scan
reads the syntax tree, so a name inside a string or a comment does not
count.  Public definitions and private module-level functions (`_name`)
are checked alike, so a helper left behind by a refactor fails here too.
A non-dunder method or property of a hykg class counts as used when `src/hykg`,
`bench/` or `scripts/` reads an attribute of its name outside its own
definition; the scan cannot tell which class an attribute belongs to, so any
read of the name counts.
Every field of a hykg dataclass is read the same way, as an attribute of its
name anywhere in `src/hykg`, `bench/` or `scripts/`, unless `src/hykg`
enumerates the class with `dataclasses.fields`, which reads every field.
The tests' shared helpers (`tests/_*.py`) are held to the same rule: each
of their top-level definitions is read in its own helper module or
imported from it by some test module.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hykg"
TESTS = ROOT / "tests"

# Kept without a caller, each for a stated use.
ALLOWED_ORPHANS = {
    # the acceptance tests of criteria 7 and 8 call these
    "schrodinger_limit",
    "simpson_adaptive",
    # the plain seed scan: tests check the closure's array twins against it
    "sample",
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def _definitions(private: bool) -> set[tuple[str, str]]:
    """(module, name) of the top-level public definitions, or of the private
    module-level functions."""
    return {(module, node.name) for module, tree in _modules().items()
            for node in tree.body
            if (isinstance(node, ast.FunctionDef) if private
                else isinstance(node, (ast.FunctionDef, ast.ClassDef)))
            and node.name.startswith("_") == private}


def _reexports() -> dict[str, str]:
    """Name -> defining module of what the package `__init__` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names}


def _hykg_module(node: ast.ImportFrom, in_package: bool) -> str | None:
    """The hykg module an ImportFrom reads from: a module stem, "" for the
    package itself, or None for another package."""
    if node.level:
        return (node.module or "") if in_package and node.level == 1 else None
    if node.module == "hykg":
        return ""
    if node.module and node.module.startswith("hykg."):
        return node.module[len("hykg."):]
    return None


def _bindings(tree: ast.Module, in_package: bool, modules: set[str],
              reexports: dict[str, str]) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, name) for a definition imported from hykg, or
    (module, None) for a hykg module itself; imports anywhere in the file."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "hykg":
                    bound[alias.asname or "hykg"] = ("", None)
                elif alias.name.startswith("hykg."):
                    module = alias.name[len("hykg."):]
                    bound[alias.asname or "hykg"] = (module, None) if alias.asname else ("", None)
        elif isinstance(node, ast.ImportFrom):
            module = _hykg_module(node, in_package)
            if module is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if module == "" and alias.name in modules:
                    bound[local] = (alias.name, None)
                elif module == "":
                    bound[local] = (reexports.get(alias.name, ""), alias.name)
                else:
                    bound[local] = (module, alias.name)
    return bound


def _used() -> set[tuple[str, str]]:
    """(module, name) of every definition read anywhere but inside its own
    definition, resolved to the module that defines it."""
    modules, reexports = _modules(), _reexports()
    sources = [(stem, tree) for stem, tree in modules.items()]
    sources += [(None, ast.parse(p.read_text())) for top in ("bench", "scripts")
                for p in sorted((ROOT / top).rglob("*.py"))]
    used = set()
    for own_module, tree in sources:
        bound = _bindings(tree, own_module is not None, set(modules), reexports)

        def module_of(value: ast.expr) -> str | None:
            # the hykg module an expression names: a bound name, or hykg.<module>
            if isinstance(value, ast.Name):
                module, name = bound.get(value.id, (None, ""))
                return module if name is None else None
            if (isinstance(value, ast.Attribute) and module_of(value.value) == ""
                    and value.attr in modules):
                return value.attr
            return None

        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    if node.id in bound and bound[node.id][1] is not None:
                        used.add(bound[node.id])
                    elif own_module is not None and node.id != own:
                        used.add((own_module, node.id))
                elif isinstance(node, ast.Attribute):
                    module = module_of(node.value)
                    if module is not None and not (module == own_module and node.attr == own):
                        used.add((module, node.attr))
    return used


def _program_trees(modules: dict[str, ast.Module]) -> list[ast.Module]:
    """The hykg modules and every file under bench/ and scripts/."""
    return list(modules.values()) + [ast.parse(p.read_text()) for top in ("bench", "scripts")
                                     for p in sorted((ROOT / top).rglob("*.py"))]


def _method_orphans() -> set[str]:
    """Class.name of each non-dunder method or property of a hykg class whose
    name no attribute read outside its own definition names."""
    modules = _modules()

    def reads(node: ast.AST) -> Counter:
        return Counter(n.attr for n in ast.walk(node)
                       if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))

    everywhere = sum((reads(tree) for tree in _program_trees(modules)), Counter())
    return {f"{cls.name}.{fn.name}" for tree in modules.values() for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and everywhere[fn.name] == reads(fn)[fn.name]}


def _field_orphans() -> set[str]:
    """Class.field of each field of a hykg dataclass that no attribute read
    names, the classes that `src/hykg` passes to `fields()` left out."""
    modules = _modules()
    read = {n.attr for tree in _program_trees(modules) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    enumerated = {n.args[0].id for tree in modules.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "fields" and n.args and isinstance(n.args[0], ast.Name)}

    def is_dataclass(cls: ast.ClassDef) -> bool:
        return any(isinstance(d, ast.Name) and d.id == "dataclass"
                   or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                   for d in cls.decorator_list)

    return {f"{cls.name}.{node.target.id}" for tree in modules.values() for cls in tree.body
            if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
            and cls.name not in enumerated
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and node.target.id not in read}


def _orphans(private: bool) -> set[str]:
    return {name for _, name in _definitions(private) - _used()}


def test_every_public_definition_has_a_caller():
    orphans = _orphans(private=False)
    assert orphans == ALLOWED_ORPHANS, sorted(orphans)


def test_every_private_function_has_a_caller():
    orphans = _orphans(private=True)
    assert orphans == set(), sorted(orphans)


def test_every_method_has_a_caller():
    orphans = _method_orphans()
    assert orphans == set(), sorted(orphans)


def test_every_dataclass_field_is_read():
    orphans = _field_orphans()
    assert orphans == set(), sorted(orphans)


def _helper_orphans() -> set[str]:
    """helper.name of each top-level definition in tests/_*.py that neither
    its own module (outside the definition) nor an import into a test
    module reads."""
    helpers = {p.stem: ast.parse(p.read_text()) for p in sorted(TESTS.glob("_*.py"))}
    used = set()
    for stem, tree in helpers.items():
        for top in tree.body:
            own = getattr(top, "name", None)
            used |= {(stem, node.id) for node in ast.walk(top)
                     if isinstance(node, ast.Name) and node.id != own}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in helpers:
                used |= {(node.module, alias.name) for alias in node.names}
    return {f"{stem}.{node.name}" for stem, tree in helpers.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and (stem, node.name) not in used}


def test_every_test_helper_has_a_caller():
    orphans = _helper_orphans()
    assert orphans == set(), sorted(orphans)
