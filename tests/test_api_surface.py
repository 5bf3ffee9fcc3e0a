"""The public names stay ones that a command, a verify suite or an oracle test needs.

A name in wigner_nonstd.__all__ must be read somewhere in the package's own
modules, outside its own definition (imports do not count, and __init__ is
skipped). The exceptions are the per-entry oracles that only the tests call
to check the tensor routes.
"""

import ast
from pathlib import Path

import wigner_nonstd

ORACLES = {"overlap", "fbar", "f_small"}


def _loaded_names() -> set[str]:
    """Names read as a Name or an Attribute in the package modules, outside their own definition."""
    loaded = set()
    for path in Path(wigner_nonstd.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    loaded.add(name)
    return loaded


def test_every_public_name_is_used_or_an_oracle():
    unused = sorted(set(wigner_nonstd.__all__) - _loaded_names() - ORACLES)
    assert unused == []


def test_oracles_are_public():
    assert ORACLES <= set(wigner_nonstd.__all__)
