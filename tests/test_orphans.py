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


def _resolver(bound: dict[str, tuple[str, str | None]], own_module: str | None,
              modules: set[str]):
    """Maps a Name or Attribute node of one file to the (module, name) of the
    hykg definition it reads, or to None."""
    def module_of(value: ast.expr) -> str | None:
        # the hykg module an expression names: a bound name, or hykg.<module>
        if isinstance(value, ast.Name):
            module, name = bound.get(value.id, (None, ""))
            return module if name is None else None
        if (isinstance(value, ast.Attribute) and module_of(value.value) == ""
                and value.attr in modules):
            return value.attr
        return None

    def resolve(node: ast.AST) -> tuple[str, str] | None:
        if isinstance(node, ast.Name):
            if node.id in bound and bound[node.id][1] is not None:
                return bound[node.id]
            return None if own_module is None else (own_module, node.id)
        if isinstance(node, ast.Attribute):
            module = module_of(node.value)
            return None if module is None else (module, node.attr)
        return None

    return resolve


def _scanned() -> list[tuple]:
    """(module stem, or None outside the package; syntax tree; `_resolver`)
    of each file the guards read: the hykg modules, bench/ and scripts/."""
    modules, reexports = _modules(), _reexports()
    sources = [(stem, tree) for stem, tree in modules.items()]
    sources += [(None, ast.parse(p.read_text())) for top in ("bench", "scripts")
                for p in sorted((ROOT / top).rglob("*.py"))]
    return [(own_module, tree,
             _resolver(_bindings(tree, own_module is not None, set(modules), reexports),
                       own_module, set(modules)))
            for own_module, tree in sources]


def _used() -> set[tuple[str, str]]:
    """(module, name) of every definition read anywhere but inside its own
    definition, resolved to the module that defines it."""
    used = set()
    for own_module, tree, resolve in _scanned():
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                target = resolve(node)
                if target is not None and target != (own_module, own):
                    used.add(target)
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
    assert orphans == set(), sorted(orphans)


def test_every_private_function_has_a_caller():
    orphans = _orphans(private=True)
    assert orphans == set(), sorted(orphans)


def test_every_method_has_a_caller():
    orphans = _method_orphans()
    assert orphans == set(), sorted(orphans)


def test_every_dataclass_field_is_read():
    orphans = _field_orphans()
    assert orphans == set(), sorted(orphans)


def _defaulted(fn: ast.FunctionDef, offset: int) -> list[tuple[int | None, str]]:
    """(position in a call, name) of each parameter of `fn` with a default;
    position None for a keyword-only one.  `offset` is the number of leading
    parameters a call does not pass (self of a method)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(i - offset, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default in zip(fn.args.kwonlyargs,
                                                       fn.args.kw_defaults)
               if default is not None])


def _unpassed_defaults() -> set[str]:
    """module.function(parameter) or Class.method(parameter) of each parameter
    with a default, in a hykg function or method, that no call in `src/hykg`,
    `bench/` or `scripts/` passes by position or keyword.  Calls resolve to
    the defining module as the orphan guard's reads do; a method call
    matches every method of that name."""
    defaulted = {}   # label -> [(position, name)]
    functions = {}   # (module, name) -> label
    methods = {}     # method name -> [label]
    for module, tree in _modules().items():
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        in_class = {fn for cls in classes for fn in cls.body}
        for cls in classes:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    label = f"{cls.name}.{fn.name}"
                    defaulted[label] = _defaulted(fn, 0 if static else 1)
                    methods.setdefault(fn.name, []).append(label)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn not in in_class:
                label = f"{module}.{fn.name}"
                defaulted[label] = _defaulted(fn, 0)
                functions[(module, fn.name)] = label

    passed = set()   # (label, name)
    for _, tree, resolve in _scanned():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            target = resolve(call.func)
            if target in functions:
                labels = [functions[target]]
            elif target is None and isinstance(call.func, ast.Attribute):
                labels = methods.get(call.func.attr, [])
            else:
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            keywords = {kw.arg for kw in call.keywords}   # None for **kwargs
            passed |= {(label, name) for label in labels for pos, name in defaulted[label]
                       if name in keywords or None in keywords
                       or pos is not None and (starred or pos < len(call.args))}

    return {f"{label}({name})" for label, params in defaulted.items()
            for _, name in params if (label, name) not in passed}


def test_every_default_argument_is_passed():
    unpassed = _unpassed_defaults()
    assert unpassed == set(), sorted(unpassed)


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
