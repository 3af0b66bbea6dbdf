"""Every public name is used by the package itself, not only by tests."""

import ast
import dataclasses
import importlib
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

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


# -- runtime read check --------------------------------------------------------

# A read counts when the nearest caller in the project is the package or
# the benchmark scripts, not a test.  Reads by the standard library and by
# code that dataclasses generate (replace, asdict, __eq__, __repr__ read
# every field) belong to whoever called them.
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
}


def wavecell_classes():
    """Every class defined in a module of the package."""
    modules = [importlib.import_module(f"wavecell.{name}") for name in MODULES]
    return [obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__]


@contextmanager
def reads_recorded(classes):
    """Wrap ``__getattribute__`` of ``classes`` for the block and yield
    ``(held, read)``: per class, the fields and instance attributes its
    instances held, and the attribute names read on them for the package
    (``read_by_package``).  Every class gets back the
    ``__getattribute__`` of its own that it had, or none."""
    held = {cls: {f.name for f in dataclasses.fields(cls)}
            if dataclasses.is_dataclass(cls) else set() for cls in classes}
    read = {cls: set() for cls in classes}
    own = {cls: cls.__dict__.get("__getattribute__") for cls in classes}
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
        yield held, read
    finally:
        for cls in wrapped:
            if own[cls] is None:
                del cls.__getattribute__
            else:
                cls.__getattribute__ = own[cls]


def unread_attributes(classes, held, read):
    return sorted(f"{cls.__name__}.{name}" for cls in classes
                  for name in held[cls] - read[cls]
                  if not name.startswith("_"))


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
    config.write_text(BenchmarkConfig(p=2, n_e=3, octree_depth=2,
                                      T=0.05).to_json())
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
    # Dataclass fields and instance attributes must be read by the package
    # or the benchmark scripts on a real run, not only by tests: the
    # receiver's class is resolved, unlike the name match above.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    wavebench = importlib.import_module("wavebench")
    classes = wavecell_classes()
    before = {cls: cls.__dict__.get("__getattribute__") for cls in classes}
    with reads_recorded(classes) as (held, read):
        read_sweep(tmp_path, wavebench)
    assert {cls: cls.__dict__.get("__getattribute__")
            for cls in classes} == before
    assert unread_attributes(classes, held, read) == sorted(UNREAD_ALLOWED)


def test_attribute_read_only_by_tests_is_caught():
    @dataclasses.dataclass
    class Probe:
        kept: int
        tested: int

        def __post_init__(self):
            self.extra = 0

    @dataclasses.dataclass
    class Record:
        saved: int

    package = {}
    exec(compile("import dataclasses\n"
                 "def use(probe, record):\n"
                 "    return probe.kept, dataclasses.asdict(record)\n",
                 str(SRC / "probe.py"), "exec"), package)
    with reads_recorded([Probe, Record]) as (held, read):
        probe = Probe(1, 2)
        package["use"](probe, Record(3))
        # a test that copies, compares or prints a probe reads every field
        copy = dataclasses.replace(probe, kept=3)
        assert copy != probe and repr(copy)
        assert probe.tested == 2 and probe.extra == 0
    assert "__getattribute__" not in Probe.__dict__ | Record.__dict__
    assert unread_attributes([Probe, Record], held, read) == [
        "Probe.extra", "Probe.tested"]
