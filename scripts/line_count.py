"""Count the code lines of ``src/twinfocal`` per module, and of
``tests/*.py`` together, at a git revision and in the working tree.

Run from the repository root::

    python scripts/line_count.py [REV]

``REV`` defaults to ``HEAD``.  A code line is a line that is not blank,
not a comment and not a docstring: the lines of every token other than
comments and line breaks count, less the lines of the docstrings of the
module, its classes and its functions, which ``ast`` finds.  A module
present on one side only counts 0 on the other.  The last row is the
total, and its net is the change the working tree makes to ``REV``.  A
line of its own after the table gives the same three counts for the
test modules, by the same rule, so that code moved from the package
into the tests shows.  A ``REV`` that git does not know prints one
error line and exits 2.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/twinfocal"
TESTS = "tests"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, docstrings excluded."""
    docs: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def count_at(rev: str, folder: str = PACKAGE) -> dict[str, int]:
    """Code lines of each module of ``folder`` at git revision ``rev``."""
    names = _git("ls-tree", "--name-only", f"{rev}:{folder}").split()
    return {name: code_lines(_git("show", f"{rev}:{folder}/{name}"))
            for name in names if name.endswith(".py")}


def count_worktree(folder: str = PACKAGE) -> dict[str, int]:
    """Code lines of each module of ``folder`` in the working tree."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / folder).glob("*.py"))}


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    try:
        before, tests = count_at(rev), count_at(rev, TESTS)
    except subprocess.CalledProcessError:
        print(f"error: unknown revision {rev!r}", file=sys.stderr)
        return 2
    after = count_worktree()
    rows = [(name, before.get(name, 0), after.get(name, 0))
            for name in sorted(before.keys() | after.keys())]
    rows.append(("total", sum(before.values()), sum(after.values())))
    rows.append((f"{TESTS}/*.py", sum(tests.values()), sum(count_worktree(TESTS).values())))
    width = max(len(name) for name, _, _ in rows)
    column = max(10, len(rev))  # a full sha is 40 characters
    print(f"{'module':<{width}}  {rev:>{column}}  {'worktree':>10}  {'net':>6}")
    for name, old, new in rows:
        print(f"{name:<{width}}  {old:>{column}}  {new:>10}  {new - old:>+6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
