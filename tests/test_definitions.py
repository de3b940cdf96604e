"""Everything the package defines is used in it or exported.

Every function, class and method defined in ``src/twinfocal``, dunders
aside, is named by some ``Name`` or ``Attribute`` node of the package's
source, or is listed in the package ``__all__``.  The check reads the
source with ``ast`` and imports nothing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinfocal"


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Definitions in ``sources`` (file name -> text) that no ``Name`` or
    ``Attribute`` names and that the ``__all__`` of ``__init__.py`` does
    not list."""
    named, defined = set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((f"{module}:{node.lineno} {node.name}", node.name))
        if module == "__init__.py":
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                    named |= set(ast.literal_eval(node.value))
    return [where for where, name in defined if name not in named]


def test_check_finds_an_unused_definition():
    sources = {
        "__init__.py": "__all__ = ['exported']\n",
        "m.py": ("def exported(): pass\ndef called(): pass\ndef dead(): pass\n"
                 "class C:\n    def __init__(self): pass\n    def method(self): pass\n"
                 "    def unused(self): pass\n"
                 "C().method(called())\n"),
    }
    assert unused_definitions(sources) == ["m.py:3 dead", "m.py:7 unused"]


def test_package_defines_nothing_unused():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unused_definitions(sources) == []
