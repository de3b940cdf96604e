"""Every module of the package uses what it imports.

A module may import a name only to use it or to re-export it through
``__all__``.  A star import re-exports exactly its source module's
``__all__``, so it is never unused.  The check reads the source with
``ast`` and imports nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinfocal"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``;
    a non-literal ``__all__`` counts through the names it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            try:
                used |= set(ast.literal_eval(node.value))
            except ValueError:
                pass
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_check_finds_an_unused_import():
    source = "from math import pi, tau\nimport os.path\n__all__ = ['tau']\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 2)"]


def test_check_passes_a_star_import_and_reads_a_computed_all():
    source = ("from .m import *\nfrom . import m, n\nimport os\n"
              "__all__ = [*m.__all__, 'x']\n")
    assert unused_imports(source) == ["n (line 2)", "os (line 3)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_its_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
