"""Every name the package exports has a reader.

A name that `pbftest/__init__.py` imports is kept when the package's own
code reads it outside its definition (a load of the name, or an attribute
of that name), when a perfbench module names it, or when README.md
documents it for library use.  A name only tests read is a path no command
reaches, and goes.  The files are read, not edited.
"""

import ast
import re
from pathlib import Path

import pbftest

PACKAGE = Path(pbftest.__file__).resolve().parent
REPO = PACKAGE.parents[1]


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _read_names(tree: ast.Module) -> set[str]:
    """Names and attributes loaded in a module, less each top-level definition's own name."""
    read = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)  # a def or class reading itself is no reader
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                read.add(name)
    return read


def test_every_export_has_a_reader():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            read |= _read_names(ast.parse(path.read_text()))
    named = "\n".join(path.read_text() for path in [REPO / "README.md", *REPO.glob("perfbench/*.py")])
    unread = [name for name in _exports()
              if name not in read and not re.search(rf"\b{re.escape(name)}\b", named)]
    assert unread == []
