"""The package's public names, as a user reaches them."""

import re
from pathlib import Path

import twinfocal

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_binds_exactly_the_package_all():
    namespace = {}
    exec("from twinfocal import *", namespace)
    namespace.pop("__builtins__")
    assert len(twinfocal.__all__) == len(set(twinfocal.__all__))
    assert set(namespace) == set(twinfocal.__all__)


def test_readme_python_api_block_runs():
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(block, namespace)
    assert namespace["image"].values.shape == (129,)
    assert 0.0 < namespace["width"] < 2e-6
    assert 0.0 < namespace["limit"] < 2e-6
