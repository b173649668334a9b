"""Every module of the package reads each name it imports: a name that is
imported and never read is dead code, or a re-export that belongs in
``__init__``."""

import ast
import importlib
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
    "witness.WitnessPair.s_word": "bench/child.py max_coeff_bits",
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
