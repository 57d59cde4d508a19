"""Only `stream.py` reads the stream's graph and search memos.

`LinkStream` keeps one graph per set of links and memoizes BFS results and
connected components per graph.  Every other module reaches them through
`snapshot`, `bfs` and `components`, by slot, so how the memos are keyed
stays a decision of `stream.py` alone.
"""

import ast
from pathlib import Path

import pytest

import linkstream

PACKAGE = Path(linkstream.__file__).parent
MEMOS = {"_snapshots", "_bfs", "_components"}
OTHERS = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "stream.py")


def memo_reads(source):
    """The memo names a module reads, as an attribute or as a string
    constant (a name for getattr and the like), in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in MEMOS:
            found.append((node.lineno, node.col_offset, name))
    return [name for *_, name in sorted(found)]


def test_finds_a_memo_read():
    source = ("def f(stream, k):\n"
              "    hit = stream._bfs.get(k)\n"
              "    return hit or getattr(stream, '_components')\n")
    assert memo_reads(source) == ["_bfs", "_components"]


@pytest.mark.parametrize("module", OTHERS)
def test_no_other_module_reads_the_memos(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert memo_reads(source) == []
