"""No module of the library imports a name it never uses.

A stdlib `ast` scan: every name an import statement binds must appear as a
name somewhere in the module, so a deletion cannot leave a dead import
behind.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "leibniz"


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
