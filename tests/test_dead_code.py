"""No dead code in the package: every module uses the names it imports
(``__init__`` only re-exports), every module-level private name is read
somewhere in the package, every ``self.<attr>`` that a method assigns is
read as an attribute somewhere in the package, and every defaulted parameter
is passed by some call in the source, the tests or the benchmark. Moving a
function between modules tends to leave either an import or the old private
copy behind, a rewritten method tends to leave a stored array nothing reads,
and a removed caller tends to leave a parameter nothing sets; this scan
catches all four."""

import ast
from pathlib import Path

import pytest

import voxlight

PACKAGE = Path(voxlight.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__")


def names_loaded(tree) -> set[str]:
    """Bare names read anywhere in ``tree``."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def reexported(module: str) -> set[str]:
    """Names that ``__init__`` imports from ``module``."""
    return {alias.name for node in TREES["__init__"].body
            if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names}


def imported(tree) -> list[str]:
    """Names bound by the module-level imports of ``tree``."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def private_definitions(tree) -> list[str]:
    """Module-level private names (one leading underscore) that ``tree``
    defines by ``def``, ``class`` or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_in_package() -> set[str]:
    """Names read anywhere in the package: bare names, attributes and names
    imported from another module."""
    read = set()
    for tree in TREES.values():
        read |= names_loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return read


READ = read_in_package()


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = TREES[module]
    unused = [name for name in imported(tree)
              if name not in names_loaded(tree) and name not in reexported(module)]
    assert not unused, f"voxlight.{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read(module):
    unread = [name for name in private_definitions(TREES[module]) if name not in READ]
    assert not unread, f"voxlight.{module} defines private names nothing reads: {unread}"


def self_attributes_assigned(tree) -> set[str]:
    """Attributes that ``tree`` assigns on ``self``, augmented and annotated
    assignments included."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


ATTRIBUTES_READ = {node.attr for tree in TREES.values() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", MODULES)
def test_every_self_attribute_is_read(module):
    unread = sorted(self_attributes_assigned(TREES[module]) - ATTRIBUTES_READ)
    assert not unread, f"voxlight.{module} stores attributes nothing reads: {unread}"


def calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the source, the tests and the benchmark, by the bare
    name or attribute it calls."""
    repo, calls = Path(__file__).resolve().parents[1], {}
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (repo / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


CALLS = calls_by_name()


def defaulted_parameters(tree):
    """(name a call uses, parameter, index among a call's positional
    arguments or None if keyword-only) of every defaulted parameter that
    ``tree``'s functions declare; ``__init__`` is called by its class name,
    and a method's ``self`` or ``cls`` is not among a call's arguments."""
    classes = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        positional = f.args.posonlyargs + f.args.args
        bound = id(f) in classes and positional and positional[0].arg in ("self", "cls")
        name = classes[id(f)] if f.name == "__init__" else f.name
        first = len(positional) - len(f.args.defaults)
        for i, arg in enumerate(positional[first:], start=first - bool(bound)):
            yield name, arg.arg, i
        yield from ((name, arg.arg, None) for arg, default
                    in zip(f.args.kwonlyargs, f.args.kw_defaults) if default is not None)


def is_passed(name: str, param: str, index) -> bool:
    """Whether some call of ``name`` passes ``param``: by keyword, by
    position, or possibly through ``*args`` or ``**kwargs``."""
    for call in CALLS.get(name, ()):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args)):
            return True
    return False


@pytest.mark.parametrize("module", MODULES)
def test_every_default_is_overridden(module):
    unset = [f"{name}({param})" for name, param, index in defaulted_parameters(TREES[module])
             if not is_passed(name, param, index)]
    assert not unset, f"voxlight.{module} has defaulted parameters no call passes: {unset}"
