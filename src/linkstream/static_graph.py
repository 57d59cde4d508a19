"""Classical subroutines on snapshot graphs: BFS distances with shortest-path
counts, and the connected components of the linked nodes.  Counts are exact
big integers.  `LinkStream.bfs` and `LinkStream.components` keep their
results per graph."""

from collections import deque
from typing import NamedTuple


class BfsResult(NamedTuple):
    dist: dict  # node -> int, absent when unreachable
    count: dict  # node -> int, shortest-path count, absent when unreachable


def bfs_counts(graph, source):
    """BFS distances and shortest-path counts from `source`.  Nodes that
    `source` cannot reach are absent from both `dist` and `count`."""
    if source not in graph.adjacency:
        raise KeyError("unknown source %r" % source)
    dist = {source: 0}
    count = {source: 1}
    queue = deque([source])
    while queue:
        w = queue.popleft()
        dw = dist[w]
        cw = count[w]
        for y in graph.neighbors(w):
            if y not in dist:
                dist[y] = dw + 1
                count[y] = cw
                queue.append(y)
            elif dist[y] == dw + 1:
                count[y] += cw
    return BfsResult(dist, count)


def connected_components(graph):
    """The maximal connected sets of two or more nodes, in the order of their
    first nodes: a search starts only at a node with a link, so a node
    without one costs nothing and forms no set."""
    adj = graph.adjacency
    comps, seen = [], set()
    for start, nbrs in adj.items():
        if not nbrs or start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            for y in adj[todo.pop()]:
                if y not in comp:
                    comp.add(y)
                    todo.append(y)
        seen |= comp
        comps.append(comp)
    return comps
