"""Every public name is used by the package itself, not only by tests."""

import ast
from pathlib import Path

import pytest

import wavecell

SRC = Path(wavecell.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def references_outside_definition(tree, name):
    """Count Name/Attribute references to ``name`` outside its own
    top-level definition."""
    own = [node for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
           and node.name == name]
    inside = {id(n) for node in own for n in ast.walk(node)}
    return sum(1 for node in ast.walk(tree)
               if id(node) not in inside
               and ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)))


def unused(names):
    return [name for name in names
            if not any(references_outside_definition(tree, name)
                       for tree in MODULES.values())]


def test_every_public_name_is_used_in_src():
    assert unused(wavecell.__all__) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_public_definition_is_used_in_src(module):
    # Top-level functions and classes outside __all__ count too.
    public = [node.name for node in MODULES[module].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert unused(public) == []
