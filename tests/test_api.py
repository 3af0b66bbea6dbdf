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


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
READERS = list(MODULES.values()) + [
    ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))
    if not path.name.startswith("test_")]


def is_dataclass(cls):
    return "dataclass" in {
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
        for d in cls.decorator_list}


def public_members(tree):
    """``Class.name`` of every public method and dataclass field of the
    public classes of a module."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif (isinstance(node, ast.AnnAssign) and is_dataclass(cls)
                  and isinstance(node.target, ast.Name)):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{cls.name}.{name}"


def read_by_name(tree):
    """Names read as ``getattr(x, name) for name in NAMES``, NAMES a
    module-level tuple of string constants (the study CSV's columns)."""
    tuples = {t.id: [getattr(e, "value", None) for e in node.value.elts]
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Tuple) for t in node.targets
              if isinstance(t, ast.Name)}
    return {name for comp in ast.walk(tree)
            if isinstance(comp, (ast.GeneratorExp, ast.ListComp))
            for gen in comp.generators
            if getattr(gen.iter, "id", None) in tuples
            and any(getattr(call.func, "id", None) == "getattr"
                    and getattr(call.args[1], "id", None) == gen.target.id
                    for call in ast.walk(comp.elt)
                    if isinstance(call, ast.Call))
            for name in tuples[gen.iter.id]}


def unread(members, readers):
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    read = read.union(*map(read_by_name, readers))
    return [m for m in members if m.split(".")[1] not in read]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_public_member_is_read(module):
    # Methods and dataclass fields must be read as an attribute by the
    # package or the benchmark scripts, not only by tests: by attribute
    # syntax, or by name with getattr over a constant tuple of names.
    assert unread(list(public_members(MODULES[module])), READERS) == []


def test_unread_field_is_caught():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "NAMES = ('by_name',)\nOTHER = ('never_read_anywhere',)\n"
                     "@dataclass(frozen=True)\nclass Probe:\n"
                     "    kept: int\n    never_read_anywhere: int\n"
                     "    by_name: int\n"
                     "    def used(self):\n        return self.kept\n"
                     "print(Probe(1, 2, 3).used())\n"
                     "print([getattr(Probe(1, 2, 3), n) for n in NAMES])\n"
                     "print([n for n in OTHER])\n")
    members = list(public_members(tree))
    assert members == ["Probe.kept", "Probe.never_read_anywhere",
                       "Probe.by_name", "Probe.used"]
    assert unread(members, READERS + [tree]) == ["Probe.never_read_anywhere"]
