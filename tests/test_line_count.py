"""The code-line rule of scripts/line_count.py: blank lines, comments and
docstrings do not count; every other line does, strings included."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_count.py"


def load_script():
    spec = importlib.util.spec_from_file_location("line_count", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = '''"""Module
docstring."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """not a
# docstring"""
        return text
'''
    # import, class, def, the two lines of the string assignment, return
    assert load_script().code_lines(source) == 6


def test_worktree_counts_every_package_module():
    counts = load_script().count_worktree()
    assert "errors.py" in counts and "cli.py" in counts
    assert all(n > 0 for n in counts.values())


def test_unknown_revision_is_one_error_line(capsys):
    assert load_script().main(["no-such-revision"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown revision 'no-such-revision'\n"
