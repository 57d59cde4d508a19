"""List the statements of src/linkstream that the tier-1 tests, or the
benchmark workloads, never run.

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

With `--workloads`, the same tracer follows one pass over each pool of
perfbench/workloads.py instead of the suite, with the operations that
perfbench/run.py times: each entry's stream is parsed, a profile entry runs
`profile(stream, samples, threads=1)`, and a session runs its cold and warm
`betweenness` queries on that stream, then its `--verify` query through the
CLI.  The pools are only read; nothing under perfbench/ is written.  Exits
with 1 if a CLI call ended with a code other than 0 or 1 (a `--verify`
verdict), else 0.  Traced, the pass took 3 s on 2 CPUs under Python 3.11.
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
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


def run_workloads():
    """One pass over each benchmark pool; 1 if a CLI call failed, else 0."""
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    import linkstream
    from linkstream import cli

    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.ls"
        for name in workloads.WORKLOADS:
            for entry in workloads.pool(name):
                stream = linkstream.parse_stream(entry.text)
                if isinstance(entry, workloads.Profile):
                    linkstream.profile(stream, entry.samples, threads=1)
                    continue
                for t, v in (entry.cold, *entry.warm):
                    linkstream.betweenness(stream, linkstream.TemporalNode(
                        linkstream.parse_time(t), v))
                path.write_text(entry.text)
                argv = [entry.verify[0], "--stream", str(path),
                        *entry.verify[1:]]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    failed |= cli.run(argv) not in (0, 1)
    return int(failed)


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
    with contextlib.redirect_stdout(sys.stderr):
        sys.settrace(call)
        try:
            if argv[:1] == ["--workloads"]:
                code = run_workloads()
            else:
                import pytest

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
