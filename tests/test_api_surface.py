"""The public names stay ones that a command, a verify suite or an oracle test needs.

A name in wigner_nonstd.__all__ must be read somewhere in the package's own
modules, outside its own definition (imports do not count, and __init__ is
skipped). The exceptions are the per-entry oracles that only the tests call
to check the tensor routes.

The same holds for the members of the public classes: every non-dunder
attribute defined in a class body (method, property or field) must be read
as an attribute somewhere in the package, outside its own definition. The
one exception is ResidualReport.worst, which the benchmark's sweep reads.
"""

import ast
import inspect
from pathlib import Path

import wigner_nonstd

ORACLES = {"overlap", "fbar", "f_small"}
MEMBER_EXCEPTIONS = {"ResidualReport.worst"}


def _modules() -> dict[str, ast.Module]:
    """The package modules but __init__, parsed, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(wigner_nonstd.__file__).parent.glob("*.py")
            if path.name != "__init__.py"}


def _reads(node: ast.AST, owners: frozenset[str], names: set[str], attributes: set[str]) -> None:
    """Add what node reads as a Name or an Attribute to names, and as an Attribute to attributes.

    owners are the definitions node sits in: a module-level def or class, and
    a member of that class. A read of an owner's own name does not count.
    """
    for child in ast.iter_child_nodes(node):
        inner = owners
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and (
                isinstance(node, (ast.Module, ast.ClassDef))):
            inner = owners | {child.name}
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in owners:
                names.add(child.id)
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            if child.attr not in owners:
                names.add(child.attr)
                attributes.add(child.attr)
        _reads(child, inner, names, attributes)


def _package_reads() -> tuple[set[str], set[str]]:
    names, attributes = set(), set()
    for tree in _modules().values():
        _reads(tree, frozenset(), names, attributes)
    return names, attributes


def _class_members(tree: ast.Module, class_name: str) -> list[str]:
    """Non-dunder names that class_name's body defines: defs, and plain or annotated assignments."""
    (body,) = [node.body for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == class_name]
    members = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.append(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members.append(node.target.id)
        elif isinstance(node, ast.Assign):
            members += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return [name for name in members if not (name.startswith("__") and name.endswith("__"))]


def _public_members() -> list[str]:
    """Class.member for every member of every class in __all__."""
    modules = _modules()
    members = []
    for name in wigner_nonstd.__all__:
        cls = getattr(wigner_nonstd, name)
        if inspect.isclass(cls):
            tree = modules[cls.__module__.rpartition(".")[2]]
            members += [f"{name}.{member}" for member in _class_members(tree, name)]
    return members


def test_every_public_name_is_used_or_an_oracle():
    names, _ = _package_reads()
    unused = sorted(set(wigner_nonstd.__all__) - names - ORACLES)
    assert unused == []


def test_oracles_are_public():
    assert ORACLES <= set(wigner_nonstd.__all__)


def test_every_public_class_member_is_read():
    _, attributes = _package_reads()
    members = _public_members()
    unread = [member for member in members
              if member.partition(".")[2] not in attributes and member not in MEMBER_EXCEPTIONS]
    assert unread == []
    assert MEMBER_EXCEPTIONS <= set(members)


def test_the_member_rule_sees_a_read_of_a_member_but_not_one_inside_it():
    tree = ast.parse("class A:\n"
                     "    def used(self):\n"
                     "        return self.used() + self.helper()\n"
                     "    def helper(self):\n"
                     "        return 0\n"
                     "def f(a):\n"
                     "    return a.other\n")
    names, attributes = set(), set()
    _reads(tree, frozenset(), names, attributes)
    assert "used" not in attributes
    assert {"helper", "other"} <= attributes
    assert _class_members(tree, "A") == ["used", "helper"]
