"""Every public name is used by the package itself, not only by tests."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import cached_property
from pathlib import Path
from types import FunctionType

import pytest

import wavecell
from wavecell.cli import main
from wavecell.harness import BenchmarkConfig, run_benchmark

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


# -- runtime read check --------------------------------------------------------

# A read counts when the nearest caller in the project is the package or
# the benchmark scripts, not a test.  Reads by the standard library and by
# code that dataclasses generate (replace, asdict, __eq__, __repr__ read
# every field) belong to whoever called them.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
READER_DIRS = tuple(str(path) + os.sep for path in (SRC, PERFBENCH))
PROJECT = READER_DIRS + (str(Path(__file__).resolve().parent) + os.sep,)


def read_by_package(frame):
    """Whether the nearest frame from ``frame`` outward whose file lies in
    the project is in the package or the benchmark scripts."""
    while frame is not None:
        file = frame.f_code.co_filename
        if file.startswith(PROJECT):
            return file.startswith(READER_DIRS)
        frame = frame.f_back
    return False


# Public attributes that only tests read, each with the reason it stays.
UNREAD_ALLOWED = {
    "TensorSystem.k1": "the 1D stiffness of the nine-contraction reference "
                       "of k_matvec in tests/test_assembly.py",
    "BenchmarkConfig.to_dict": "the config-file form that from_dict reads "
                               "back; tests write config files with it",
}


def wavecell_classes():
    """Every class defined in a module of the package."""
    modules = [importlib.import_module(f"wavecell.{name}") for name in MODULES]
    return [obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__]


# Construction hooks, which the name checks above cover, and the lookup
# hook that reads_recorded wraps itself.
NOT_MEMBERS = ("__init__", "__post_init__", "__getattribute__")


def members(cls):
    """Names of the public methods, properties, class- and staticmethods
    of ``cls`` itself, and of the dunders written in its source (not
    generated, as a dataclass's are), such as ``__len__``."""
    file = inspect.getfile(cls)
    return {name for name, value in vars(cls).items()
            if (isinstance(value, (FunctionType, property, cached_property,
                                   classmethod, staticmethod))
                and not name.startswith("_"))
            or (isinstance(value, FunctionType) and name.startswith("__")
                and name not in NOT_MEMBERS
                and value.__code__.co_filename == file)}


class Recorded:
    """Stands in for a member: each lookup made for the package
    (``read_by_package``) adds ``name`` to ``names``."""

    def __init__(self, member, name, names):
        self.member, self.name, self.names = member, name, names

    def __get__(self, obj, owner=None):
        if read_by_package(sys._getframe(1)):
            self.names.add(self.name)
        return self.member.__get__(obj, owner)


@contextmanager
def reads_recorded(classes):
    """Record reads on ``classes`` for the block and yield ``(held,
    read)``: per class, its ``members``, fields and the instance attributes
    its instances held, and the names read on it for the package.

    A wrapped ``__getattribute__`` sees the instance lookups.  Lookups on
    the class (``Grid.build``) and the interpreter's own (``len``) bypass
    it, so the members are swapped for ``Recorded`` ones.  Every class
    gets back what its ``__dict__`` had."""
    held = {cls: members(cls) | ({f.name for f in dataclasses.fields(cls)}
                                 if dataclasses.is_dataclass(cls) else set())
            for cls in classes}
    read = {cls: set() for cls in classes}
    own = {cls: {name: vars(cls).get(name)
                 for name in ("__getattribute__", *members(cls))}
           for cls in classes}
    # Resolved before any class is wrapped, so no wrapper calls another.
    inherited = {cls: cls.__getattribute__ for cls in classes}

    def wrapper(cls):
        get, keys, names = inherited[cls], held[cls], read[cls]

        def __getattribute__(self, name):
            keys.update(get(self, "__dict__"))
            if read_by_package(sys._getframe(1)):
                names.add(name)
            return get(self, name)
        return __getattribute__

    wrapped = []
    try:
        for cls in classes:
            cls.__getattribute__ = wrapper(cls)
            wrapped.append(cls)
            for name in members(cls):
                setattr(cls, name, Recorded(own[cls][name], name, read[cls]))
        yield held, read
    finally:
        for cls in wrapped:
            for name, value in own[cls].items():
                if value is None:
                    delattr(cls, name)
                else:
                    setattr(cls, name, value)


def unread_attributes(classes, held, read):
    return sorted(f"{cls.__name__}.{name}" for cls in classes
                  for name in held[cls] - read[cls]
                  if not name.startswith("_") or name in members(cls))


def read_sweep(tmp_path, wavebench):
    """One fixed tiny pass over every method, basis family, mass choice,
    CLI subcommand and the benchmark's traced run."""
    immersed = BenchmarkConfig(p=2, n_e=4, octree_depth=2)
    fitted = BenchmarkConfig(p=2, n_e=3, boundary_fitted=True, n_t=50)
    for cfg in (immersed,
                replace(immersed, method="imex", alpha=1e-12, epsilon=1e-4),
                replace(immersed, method="newmark", n_t=20),
                replace(immersed, lumping="hrz", alpha=1e-4),
                replace(immersed, family="bspline"),
                fitted,
                replace(fitted, method="newmark", n_t=20)):
        run_benchmark(cfg)
    config = tmp_path / "config.json"
    cfg = BenchmarkConfig(p=2, n_e=3, octree_depth=2, T=0.05)
    config.write_text(json.dumps(cfg.to_dict(), indent=2))
    for command, *extra in (
            ("run",), ("dtcrit",), ("dofs",), ("export-matrices",),
            ("reference", "--ref-p", "2", "--ref-n-e", "3", "--ref-dt",
             "0.005"),
            ("converge", "--n-e-values", "3", "--n-s", "10"),
            ("timing", "--repetitions", "2")):
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / command), *extra]) == 0
    for cfg in (immersed, fitted):
        prep, _, _ = wavebench.traced_run(cfg, wavebench.Tracer())
        wavebench.octree_probe(prep.grid, cfg.octree_depth)


def test_every_public_attribute_is_read(tmp_path, monkeypatch):
    # Dataclass fields, instance attributes, methods, properties, class-
    # and staticmethods and protocol dunders must be read by the package or
    # the benchmark scripts on a real run, not only by tests.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wavebench = importlib.import_module("wavebench")
    classes = wavecell_classes()
    before = {cls: dict(vars(cls)) for cls in classes}
    with reads_recorded(classes) as (held, read):
        read_sweep(tmp_path, wavebench)
    assert {cls: dict(vars(cls)) for cls in classes} == before
    assert unread_attributes(classes, held, read) == sorted(UNREAD_ALLOWED)


def test_attribute_read_only_by_tests_is_caught():
    @dataclasses.dataclass
    class Probe:
        kept: int
        tested: int

        def __post_init__(self):
            self.extra = 0

        checked = lambda self: self.tested
        view = property(lambda self: self.kept)
        of = classmethod(lambda cls, kept: cls(kept, 0))
        unit = staticmethod(lambda: 1)
        __len__ = lambda self: self.kept

    @dataclasses.dataclass
    class Record:
        saved: int

    package = {}
    exec(compile("import dataclasses\n"
                 "def use(probe, record):\n"
                 "    return probe.kept, type(probe).unit(),"
                 " dataclasses.asdict(record)\n",
                 str(SRC / "probe.py"), "exec"), package)
    before = {cls: dict(vars(cls)) for cls in (Probe, Record)}
    with reads_recorded([Probe, Record]) as (held, read):
        probe = Probe(1, 2)
        package["use"](probe, Record(3))
        # a test that copies, compares or prints a probe reads every field
        copy = dataclasses.replace(probe, kept=3)
        assert copy != probe and repr(copy)
        assert probe.tested == 2 and probe.extra == 0
        assert (probe.checked(), probe.view, len(probe), Probe.of(5).kept,
                Probe.unit()) == (2, 1, 1, 5, 1)
    assert {cls: dict(vars(cls)) for cls in (Probe, Record)} == before
    assert unread_attributes([Probe, Record], held, read) == [
        "Probe.__len__", "Probe.checked", "Probe.extra", "Probe.of",
        "Probe.tested", "Probe.view"]


def test_member_read_on_another_class_is_caught():
    # Both classes define ``size``: a read of one does not cover the other.
    class Small:
        size = property(lambda self: 1)

    class Large:
        size = property(lambda self: 2)

    package = {}
    exec(compile("def use(small):\n    return small.size\n",
                 str(SRC / "probe.py"), "exec"), package)
    with reads_recorded([Small, Large]) as (held, read):
        assert package["use"](Small()) + Large().size == 3
    assert unread_attributes([Small, Large], held, read) == ["Large.size"]
