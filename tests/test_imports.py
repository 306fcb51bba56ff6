"""No module of the library imports a name it never uses, and no oracle imports the library.

A stdlib `ast` scan: every name an import statement binds must appear as a
name somewhere in the module, so a deletion cannot leave a dead import
behind.  A second scan reads the oracles the tests and the benchmark check
the library against, and finds no `leibniz` import in them, so that no
oracle can share a fault with the code it checks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "leibniz"
ORACLES = (ROOT / "tests" / "gf2_screen.py", ROOT / "bench" / "oracles.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_the_scan_finds_an_unused_import():
    source = "from typing import Iterable, Sequence\nimport os.path\n\ndef f(x: Sequence) -> None:\n    pass\n"
    assert unused_imports(source) == ["Iterable", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def library_imports(source: str) -> list[str]:
    """The `leibniz` modules an import statement anywhere in the source names."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
    return sorted(m for m in modules if m.split(".")[0] == "leibniz")


def test_the_scan_finds_a_library_import():
    source = "import numpy as np\n\ndef f():\n    from leibniz.census import _check_dim\n    import leibniz.linalg\n"
    assert library_imports(source) == ["leibniz.census", "leibniz.linalg"]


@pytest.mark.parametrize("path", ORACLES, ids=lambda p: p.name)
def test_oracles_import_no_library_code(path):
    assert library_imports(path.read_text()) == []
