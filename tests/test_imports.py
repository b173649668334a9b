"""Every module of the package reads each name it imports: a name that is
imported and never read is dead code, or a re-export that belongs in
``__init__``."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nilwitness"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def unread_imports(source: str) -> set[str]:
    """The names that `source` binds by an import but never loads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - read


def test_unread_imports_are_found():
    assert unread_imports("import os\nfrom math import inf, pi\nprint(pi)\n") == {
        "os",
        "inf",
    }
    assert unread_imports("import os.path\nos.path.join('a')\n") == set()


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert unread_imports(source) == set()


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that `source` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_are_found():
    source = "import os.path\nimport random as r\nfrom json import dumps\nfrom . import cli\n"
    assert imported_modules(source) == {"os", "random", "json"}


def test_only_the_package_lists_its_public_names():
    # __init__'s _SURFACE is the one list of the public surface; an __all__
    # in a module would be a second one, read by nothing but a star import
    definers = {
        p.stem
        for p in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "__all__"
    }
    assert definers == {"__init__"}


def test_no_module_imports_random():
    # every check in the package is a certificate over its whole finite
    # domain, not a sample, so the package draws nothing
    importers = {p.stem for p in PACKAGE.glob("*.py") if "random" in imported_modules(p.read_text())}
    assert importers == set()


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies: numpy, for one, costs more to
    # import than a small bench job takes
    imported = set().union(*(imported_modules(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert "fractions" in imported
    assert imported <= sys.stdlib_module_names, sorted(imported - sys.stdlib_module_names)


# --- every definition has a reader --------------------------------------------

# definitions that nothing in src reads, each with the reader that keeps it
UNREAD_IN_SRC = {
    "magnus.MagnusElement.coefficient": "public accessor of one coefficient; tests/test_magnus.py",
    "magnus.MagnusElement.mul_letter": "bench/tracer.py, the magnus.letter layer",
    "magnus.MagnusElement.conjugate_letter": "bench/tracer.py, the magnus.letter layer",
    "magnus.MagnusElement.degree_terms": "bench/child.py max_coeff_bits, and the tests' oracle",
    "magnus.eval_word": "public constructor of a word's image (__init__ exports it); the tests",
    "series.TruncatedSeries.monomial": "public constructor; tests/test_acceptance.py and the series tests",
    "series.TruncatedSeries.x": "public constructor; tests/test_series.py and tests/test_coinv.py",
}


def unread_definitions(sources: dict[str, str]) -> set[str]:
    """The functions, methods and classes of the modules in `sources` (name
    -> text) that none of them loads by name: a module-level definition by
    its name or as an attribute, a method as an attribute only.  A dunder
    method is read by the syntax that calls it, so it never counts."""
    trees = [ast.parse(text) for text in sources.values()]
    loads = [n for t in trees for n in ast.walk(t) if isinstance(getattr(n, "ctx", None), ast.Load)]
    names = {n.id for n in loads if isinstance(n, ast.Name)}
    attrs = {n.attr for n in loads if isinstance(n, ast.Attribute)}
    unread = set()

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                read = name in attrs or (not in_class and name in names)
                if not read and not (name.startswith("__") and name.endswith("__")):
                    unread.add(prefix + name)
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{name}.", True)

    for module, tree in zip(sources, trees):
        visit(tree.body, f"{module}.", False)
    return unread


def test_unread_definitions_are_found():
    source = (
        "class C:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def __eq__(self, other): pass\n"
        "def f(): pass\n"
        "def g(): pass\n"
        "def unused(): pass\n"
        "C().used(f)\n"
        "x = m.g\n"
    )
    # a method is not read by a plain name that happens to match it
    assert unread_definitions({"m": source}) == {"m.C.unused", "m.unused"}
    assert unread_definitions({"m": source + "unused()\n"}) == {"m.C.unused"}


def test_every_definition_has_a_reader():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_definitions(sources) == set(UNREAD_IN_SRC)


# --- the public surface --------------------------------------------------------

README = PACKAGE.parent.parent / "README.md"


def readme_surface() -> dict[str, list[str]]:
    """The names of the fenced block under "### Public surface" in the
    README, by the label of their line: a module, or "modules"; a line with
    no label continues the one above."""
    block = README.read_text().split("### Public surface", 1)[1].split("```")[1]
    surface, label = {}, None
    for line in block.strip().splitlines():
        head, sep, rest = line.partition(":")
        if sep and head.strip().isidentifier():
            label, line = head.strip(), rest
        surface.setdefault(label, []).extend(line.split())
    return surface


def test_readme_lists_the_public_surface():
    nilwitness = importlib.import_module("nilwitness")
    surface = readme_surface()
    names = [name for listed in surface.values() for name in listed]
    assert sorted(names) == sorted(nilwitness.__all__)
    for label, listed in surface.items():
        for name in listed:
            value = getattr(nilwitness, name)
            if label == "modules":
                assert value is importlib.import_module(f"nilwitness.{name}"), name
            else:
                assert value is getattr(importlib.import_module(f"nilwitness.{label}"), name), name
    # the package resolves its names on first access: an unlisted one is
    # still an AttributeError, dir lists every name, and a star import binds
    # __all__ and nothing else
    with pytest.raises(AttributeError):
        nilwitness.no_such_name
    assert set(nilwitness.__all__) <= set(dir(nilwitness))
    namespace = {}
    exec("from nilwitness import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nilwitness.__all__)


# --- what an import loads ------------------------------------------------------


def fresh_modules(code: str) -> set[str]:
    """The modules that `code` adds to sys.modules in a fresh interpreter
    that writes no bytecode; pytest itself loads much of the library."""
    code = (
        "import json, sys; before = set(sys.modules)\n"
        + code
        + "\nprint(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


# what bench/child.py imports as its set-up
BENCH_SETUP = "import nilwitness.cli; from nilwitness import witness"


def test_fresh_import_loads_no_dataclass_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize
    added = fresh_modules(BENCH_SETUP)
    assert "nilwitness.witness" in added
    assert added.isdisjoint({"dataclasses", "inspect"}), sorted(added)


def test_a_command_loads_only_the_modules_it_runs():
    def loaded(argv):
        code = f"from nilwitness.cli import main\nassert main({argv!r}) == 0"
        return {name.partition(".")[2] for name in fresh_modules(code) if name.startswith("nilwitness.")}

    magnus_stack = {"magnus", "freelie", "witness"}
    for argv in (["coinv", "--ring", "Q", "--weight", "6"], ["involution"]):
        assert loaded(argv).isdisjoint(magnus_stack | {"words", "lamplighter"}), argv
    assert loaded(["phi", "--word", "[a,b]"]).isdisjoint(magnus_stack)
    # the bench times its child's set-up against its parent's, and its
    # tracer, installed after that set-up or after bench/test_bench.py's
    # import, rebinds targets in every module, so each must load all eight
    for setup in (BENCH_SETUP, "from nilwitness import magnus, witness"):
        added = {name.partition(".")[2] for name in fresh_modules(setup)}
        assert set(readme_surface()["modules"]) <= added, setup


def test_no_process_loads_argparse():
    # cli reads argv against its COMMANDS table: argparse, and the gettext
    # and locale it pulls in on its first message, cost a cold process more
    # than a small coinv job
    argv = ["coinv", "--ring", "Q", "--weight", "6"]
    for code in (BENCH_SETUP, f"from nilwitness.cli import main\nassert main({argv!r}) == 0"):
        assert fresh_modules(code).isdisjoint({"argparse", "gettext", "locale"}), code
