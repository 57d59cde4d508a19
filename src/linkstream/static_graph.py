"""Classical subroutines on snapshot graphs: BFS distances with shortest-path
counts, and connected components.  Counts are exact big integers."""

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
    """Partition of the nodes into maximal connected sets, in deterministic
    (sorted first-node) order; isolated nodes form singletons."""
    seen = set()
    components = []
    for start in graph.nodes:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            w = queue.popleft()
            for y in graph.neighbors(w):
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    queue.append(y)
        components.append(comp)
    return components
