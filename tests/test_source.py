"""Source checks that no installed linter makes: every module of the
package uses what it imports (the package's `__init__` re-exports, so it
is left out), exports only names it binds, exports no function or class
that no code of the package reads, and imports no numpy when it loads;
and the README documents the relation kinds there are."""

import ast
import pathlib
import re

import pytest

from geodeform.relations import RELATIONS

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geodeform"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _names_read(tree: ast.Module) -> set[str]:
    """The names the module reads: in code, in annotations written as
    strings, and in `__all__`."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign))
                   and node.annotation is not None]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.returns is not None]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _names_read(ast.parse(node.value))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in node.value.elts}
    return names


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds by an import, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    read = _names_read(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in read}
    assert not unused, f"{module}: unused imports {unused}"


def _imported_on_load(node: ast.AST) -> set[str]:
    """The top-level packages that the code under `node` imports when the
    module loads: not inside a function, nor under `if TYPE_CHECKING:`."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            found.update(alias.name.split(".")[0] for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            found.add(child.module.split(".")[0])
        elif not (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  or isinstance(child, ast.If)
                  and ast.unparse(child.test) == "TYPE_CHECKING"):
            found |= _imported_on_load(child)
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_numpy_when_it_loads(module):
    """numpy is imported where rows are built or a conic is fitted, never
    when a module loads: it would cost every `run`, `render` and `shapes`
    start about a tenth of a second."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert "numpy" not in _imported_on_load(tree), module


def _exported(tree: ast.Module) -> list[str]:
    """The names in the module's `__all__`, or none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _bound_at_top(body: list[ast.stmt]) -> set[str]:
    """The names that statements bind at the top level of a module: by
    def, class, import or assignment, also under an `if` or a `try`."""
    bound = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            bound.update(name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name))
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *(h.body for h in getattr(node, "handlers", []))):
                bound |= _bound_at_top(block)
    return bound


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_export_is_bound(module):
    """A name left in `__all__` after its definition is deleted breaks
    `from geodeform.<module> import *` and nothing else: check it here."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    stale = [name for name in _exported(tree)
             if name not in _bound_at_top(tree.body)]
    assert not stale, f"{module}: __all__ names unbound {stale}"


def _modules_bound(tree: ast.Module) -> set[str]:
    """The names the module binds to a module of the package, by `from .
    import deform`, anywhere."""
    stems = {module.removesuffix(".py") for module in MODULES}
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module is None
            for alias in node.names if alias.name in stems}


def _read_in_package() -> set[str]:
    """The names that code in the package reads: as a name, or as an
    attribute of a name bound to a module of the package (`deform.sample`,
    not `self.claim_names`); the `__init__` re-exports are left out."""
    read = set()
    for module in MODULES:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        modules = _modules_bound(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_function_is_read(module):
    """A function or class in `__all__` that no code of the package reads
    is public only for its own tests: each one is read somewhere in the
    package.  Data tables are left out."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    read = _read_in_package()
    unread = [name for name in _exported(tree)
              if name in defined and name not in read]
    assert not unread, f"{module}: __all__ names no code reads {unread}"


def test_readme_lists_every_relation_kind_in_order():
    """The README's table of assertable relations has one row per kind of
    `RELATIONS`, in its order: a kind added or deleted takes its row with
    it."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("\nAssertable relations", 1)[1].split("\n\n")[1]
    kinds = [re.match(r"\| `(\w+)` \|", row).group(1)
             for row in table.splitlines()[2:]]
    assert kinds == list(RELATIONS)
