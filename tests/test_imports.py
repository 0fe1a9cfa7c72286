"""Import hygiene of the package source, read with the stdlib ``ast``.

An import that nothing uses outlives the code it served; the bench hooks
that ``corpus.py`` imports for attribute lookup are marked
``# noqa: F401`` and exempt.  ``__init__.py`` imports exactly the names
it lists in ``__all__``.
"""

import ast
import pathlib

import pytest

import corefeval

SRC = pathlib.Path(corefeval.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """(bound name, the lines of its import statement, comments included)
    for every import but ``from __future__``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            statement = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                found.append((bound, statement))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    path = SRC / module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name
        for name, statement in imports(path)
        if name not in used and "# noqa: F401" not in statement
    ]
    assert unused == []


def test_init_imports_exactly_all():
    assert {name for name, _ in imports(SRC / "__init__.py")} == set(corefeval.__all__)
    assert len(corefeval.__all__) == len(set(corefeval.__all__))
