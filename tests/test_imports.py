"""Every top-level import of the package's modules is read somewhere in
its module; ``__future__`` imports and the re-exports of ``__init__.py``
are exempt."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "local_antimagic"


def unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or path.name == "__init__.py" and node.level):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_top_level_import_is_read(path):
    assert unread_imports(path) == []
