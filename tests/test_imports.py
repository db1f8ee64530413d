"""Gates on the package's source.  Every top-level import of a module is
read somewhere in it; ``__future__`` imports and the re-exports of
``__init__.py`` are exempt.  No module imports ``dataclasses`` or
``typing``, and ``cli.py`` imports the construction modules, the oracle
and ``reproduce`` only inside the commands that run them.  Each module's
top-level imports of package modules are pinned.  No module has an
``assert`` statement, which ``python -O`` strips, and none reads the
environment: a result depends only on its arguments."""

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


def imported_modules(nodes) -> set[str]:
    """The modules the import statements among ``nodes`` name, relative
    ones without their dots (``from . import x`` names x)."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_dataclasses_or_typing(path):
    # dataclasses costs a cold CLI process about 10 ms, since it pulls in
    # inspect, ast, dis and tokenize; annotations need no typing import.
    tree = ast.parse(path.read_text(), str(path))
    imported = {name.split(".")[0] for name in imported_modules(ast.walk(tree))}
    assert imported & {"dataclasses", "typing"} == set()


def test_cli_imports_what_a_command_runs_inside_the_command():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    lazy = {"circulants", "cycle_merge", "unions", "oracle", "reproduce"}
    top_level = imported_modules(tree.body)
    assert top_level & lazy == set() and {"graphs", "labelings", "serialize"} <= top_level
    assert lazy <= imported_modules(ast.walk(tree))


# The package modules each module imports at its top level.  ``verify`` and
# ``export`` load only the modules ``cli`` reaches this way, so a module that
# pulls a construction module onto their path shows here.
TOP_LEVEL_IMPORTS = {
    "__init__.py": {"graphs", "labelings"},
    "__main__.py": {"cli"},
    "graphs.py": set(),
    "labelings.py": {"graphs"},
    "circulants.py": {"graphs", "labelings"},
    "unions.py": {"graphs", "labelings"},
    "cycle_merge.py": {"graphs", "labelings", "circulants"},
    "oracle.py": {"graphs", "labelings", "circulants"},
    "serialize.py": {"graphs", "labelings"},
    "cli.py": {"graphs", "labelings", "serialize"},
    "reproduce.py": {"graphs", "labelings", "circulants", "cycle_merge", "unions", "oracle"},
}


def test_each_module_imports_only_its_pinned_package_modules():
    found = {}
    for path in PACKAGE.glob("*.py"):
        body = ast.parse(path.read_text(), str(path)).body
        found[path.name] = imported_modules(
            node for node in body if isinstance(node, ast.ImportFrom) and node.level)
    assert found == TOP_LEVEL_IMPORTS


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_asserts(path):
    # A check must raise under -O too: CertificationError or ValueError.
    tree = ast.parse(path.read_text(), str(path))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    tree = ast.parse(path.read_text(), str(path))
    # Names, attributes, imported names and strings (getattr(os, "environ")).
    found = {getattr(node, field, None) for node in ast.walk(tree)
             for field in ("id", "attr", "name", "value")}
    assert found & {"environ", "environb", "getenv", "getenvb"} == set()
