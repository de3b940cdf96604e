"""Every module of the package uses what it imports, and imports only
modules before it in the chain of layers.

A module may import a name only to use it or to re-export it through
``__all__``.  A star import re-exports exactly its source module's
``__all__``, so it is never unused.  The layers form one chain, ``errors``
and ``specfun`` first, side by side, then ``optics``, ``psf``,
``coincidence``, ``scansim`` and ``cli``; the package ``__init__``
gathers them all.  The checks read the source with ``ast`` and import
nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twinfocal"

# The layers in order; a module may import only the modules of earlier layers.
CHAIN = [{"errors", "specfun"}, {"optics"}, {"psf"}, {"coincidence"}, {"scansim"}, {"cli"}]


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


def package_imports(source: str) -> set[str]:
    """The package modules a module imports, relatively or as
    ``twinfocal.<module>``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 or (node.module or "").startswith("twinfocal"):
                module = (node.module or "").removeprefix("twinfocal").strip(".")
                found |= {module.split(".")[0]} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("twinfocal.")}
    return found


def test_check_reads_every_form_of_package_import():
    source = ("from .psf import kernel_field\nfrom . import optics, errors\n"
              "import twinfocal.scansim\nfrom twinfocal.cli import main\n"
              "from twinfocal import specfun\nimport numpy\nfrom os import path\n")
    assert package_imports(source) == {"psf", "optics", "errors", "scansim", "cli", "specfun"}


def test_chain_names_every_layer_module_once():
    layers = [name for layer in CHAIN for name in layer]
    assert len(layers) == len(set(layers))
    assert set(layers) == {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("module", sorted(name for layer in CHAIN for name in layer))
def test_module_imports_only_earlier_layers(module):
    rank = {name: k for k, layer in enumerate(CHAIN) for name in layer}
    imported = package_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert sorted(name for name in imported if rank[name] >= rank[module]) == []
