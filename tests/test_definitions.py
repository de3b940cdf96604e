"""Everything the package defines is used in it or exported.

Every function, class and method defined in ``src/twinfocal``, dunders
aside, is named by some ``Name`` or ``Attribute`` node of the package's
source, or is exported: the package exports the ``__all__`` of each
module that ``__init__.py`` star-imports, and each of those lists must
be a literal.  The check reads the source with ``ast`` and imports
nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinfocal"


def literal_all(tree: ast.Module, module: str) -> list[str]:
    """The literal ``__all__`` of a module; an assertion fails without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            try:
                return list(ast.literal_eval(node.value))
            except ValueError:
                break
    raise AssertionError(f"{module} has no literal __all__")


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Definitions in ``sources`` (file name -> text) that no ``Name`` or
    ``Attribute`` names and that the package does not export."""
    named, defined, trees = set(), [], {}
    for module, source in sources.items():
        tree = trees[module] = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((f"{module}:{node.lineno} {node.name}", node.name))
    for node in trees["__init__.py"].body:
        if isinstance(node, ast.ImportFrom) and node.names[0].name == "*":
            module = f"{node.module}.py"
            named |= set(literal_all(trees[module], module))
    return [where for where, name in defined if name not in named]


def test_check_finds_an_unused_definition():
    sources = {
        "__init__.py": "from .m import *\n",
        "m.py": ("__all__ = ['exported']\n"
                 "def exported(): pass\ndef called(): pass\ndef dead(): pass\n"
                 "class C:\n    def __init__(self): pass\n    def method(self): pass\n"
                 "    def unused(self): pass\n"
                 "C().method(called())\n"),
    }
    assert unused_definitions(sources) == ["m.py:4 dead", "m.py:8 unused"]


def test_check_needs_a_literal_all_behind_a_star_import():
    sources = {"__init__.py": "from .m import *\n",
               "m.py": "__all__ = [*names]\ndef exported(): pass\n"}
    with pytest.raises(AssertionError, match="m.py has no literal __all__"):
        unused_definitions(sources)


def test_package_defines_nothing_unused():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unused_definitions(sources) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_all_lists_only_its_own_definitions(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    own = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            own |= {t.id for t in targets if isinstance(t, ast.Name)}
    exported = literal_all(tree, module)
    assert len(exported) == len(set(exported))
    assert set(exported) <= own
