"""Every module of the package reads each name it imports: a name that is
imported and never read is dead code, or a re-export that belongs in
``__init__``."""

import ast
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
