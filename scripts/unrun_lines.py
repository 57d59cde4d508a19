"""List the statements of src/linkstream that the tier-1 tests never run.

Runs the tier-1 suite in this process under a `sys.settrace` line tracer
that follows only the frames of src/linkstream, then prints each statement
that no test ran, as `path:line: source`, and last their count.  Docstrings,
`def` and `class` lines and imports are not listed.  A statement counts as
run when any line of it ran; a compound statement's own lines are those of
its header.  Code that runs only in a child process (`python -m ...`) shows
as unrun.  pytest's own report goes to stderr, so stdout holds the list:

    python scripts/unrun_lines.py [pytest args] > unrun.txt

Exits with pytest's exit code.  Traced, the suite took 98-115 s against 25 s
untraced on 2 CPUs under Python 3.11.
"""

import ast
import contextlib
import os
import sys
from operator import itemgetter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linkstream"

SKIP = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
        ast.ImportFrom)


def statements(path):
    """(first line, its own lines) of each statement of the file that is
    listed when unrun: a compound statement owns the lines of its header,
    up to its first nested statement; a `try` owns none."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIP):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        if isinstance(node, ast.Try):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        own = range(node.lineno, max(last, node.lineno) + 1)
        out.append((node.lineno, own))
    return sorted(out, key=itemgetter(0))


def main(argv):
    prefix = str(SRC) + os.sep
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return line
        return None

    assert "linkstream" not in sys.modules  # its import must be traced too
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    with contextlib.redirect_stdout(sys.stderr):
        sys.settrace(call)
        try:
            code = pytest.main(["-q", "--continue-on-collection-errors",
                                "-p", "no:cacheprovider", *argv])
        finally:
            sys.settrace(None)
    unrun = 0
    for path in sorted(SRC.glob("*.py")):
        name, text = str(path), path.read_text().splitlines()
        for first, own in statements(path):
            if not any((name, k) in ran for k in own):
                unrun += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), first,
                                     text[first - 1].strip()))
    print("%d statements of src/linkstream never ran" % unrun)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
