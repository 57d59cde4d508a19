"""Each per-stream table has one owning module.

`LinkStream` keeps one graph per set of links and memoizes BFS results and
connected components per graph.  Every other module reaches them through
`snapshot`, `bfs` and `components`, by slot, so how the memos are keyed
stays a decision of `stream.py` alone.  Likewise, apart from `stream.py`,
which declares them, the per-query tables are read by one module each:
the sweeps by `shortest_volumes.py`, the anchor frames by
`contribution.py` and the latency lists by `latencies.py`.  And no sweep
points back at its stream: every read is given it.
"""

import ast
import weakref
from pathlib import Path

import pytest

import linkstream
from linkstream import (
    LinkStream,
    Q,
    TemporalNode,
    betweenness,
    contribution,
    latency_lists,
    parse_stream,
    profile,
    vsp,
)

from conftest import DEMO_TEXT
from test_shared_state import int_times

PACKAGE = Path(linkstream.__file__).parent
MEMOS = {"_snapshots", "_bfs", "_components"}
OTHERS = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "stream.py")
OWNERS = {"_sweeps": "shortest_volumes.py", "_frames": "contribution.py",
          "_latency_lists": "latencies.py"}


def memo_reads(source, names=MEMOS):
    """The `names` a module reads, as an attribute or as a string constant
    (a name for getattr and the like), in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in names:
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


@pytest.mark.parametrize("module", OTHERS)
def test_each_table_is_read_by_its_owner_alone(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    read = set(memo_reads(source, set(OWNERS)))
    assert read <= {name for name, owner in OWNERS.items() if owner == module}


def test_every_owner_reads_its_table():
    for name, owner in OWNERS.items():
        assert name in memo_reads((PACKAGE / owner).read_text(encoding="utf-8"),
                                  {name})


@pytest.mark.parametrize("parsed", [True, False], ids=["parsed", "int_built"])
def test_no_sweep_holds_its_stream(parsed):
    """After each kind of query, on a parsed demo (with an int twin of its
    own) and on an int-built one (its own twin), no sweep of the stream or
    of its twin holds a stream or a weak reference."""
    stream = parse_stream(DEMO_TEXT)
    if not parsed:
        stream = int_times(stream)
    tv = TemporalNode(Q(9, 2), "c")
    betweenness(stream, tv)
    profile(stream, 40)
    vsp(stream, TemporalNode(Q(1), "a"), TemporalNode(Q(14), "e"))
    contribution(stream, "a", "e", tv, latency_lists(stream, "a")["e"])
    twin = stream.lattice()[0]
    sweeps = [*stream._sweeps.values(), *twin._sweeps.values()]
    assert sweeps
    for tables in sweeps:
        held = [value for value in vars(tables).values()
                if isinstance(value, (LinkStream, weakref.ref))]
        assert held == []
