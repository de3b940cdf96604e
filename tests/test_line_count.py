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


def test_full_sha_sits_over_its_counts(capsys, monkeypatch):
    """CI passes the base revision as a 40-character sha: the revision
    column widens to it, so each count ends where its heading ends, on
    the tests' line after the total too."""
    script = load_script()
    sha = "0123456789abcdef" * 2 + "01234567"
    monkeypatch.setattr(script, "count_at",
                        lambda rev, folder=script.PACKAGE: {"cli.py": 1, "errors.py": 22222})
    assert script.main([sha]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert rows[-2].startswith("total") and rows[-1].startswith("tests/*.py")
    ends = [header.index(sha) + len(sha), header.index("worktree") + len("worktree"),
            len(header)]
    for row in rows:
        fields = row.split()
        starts = [row.index(field, end - len(field)) for field, end in zip(fields[1:], ends)]
        assert [start + len(field) for start, field in zip(starts, fields[1:])] == ends


def test_tests_line_counts_the_test_modules_by_the_same_rule(capsys, monkeypatch):
    """The line after the total sums the code lines of ``tests/*.py`` at the
    revision and in the working tree, and gives their net."""
    script = load_script()
    tests = Path(__file__).resolve().parent
    now = sum(script.code_lines(path.read_text(encoding="utf-8"))
              for path in tests.glob("*.py"))
    counts = {script.PACKAGE: {"cli.py": 1}, "tests": {"a.py": 5, "b.py": 7}}
    monkeypatch.setattr(script, "count_at", lambda rev, folder=script.PACKAGE: counts[folder])
    assert script.main(["HEAD"]) == 0
    name, before, after, net = capsys.readouterr().out.splitlines()[-1].split()
    assert (name, int(before), int(after), int(net)) == ("tests/*.py", 12, now, now - 12)
