"""Betweenness of temporal nodes: sum of pair contributions, and the
profile sampler evaluating betweenness on a regular time grid for all nodes.
"""

from typing import NamedTuple

from .contribution import contribution
from .latencies import cached_latency_lists
from .numbers import Q
from .stream import TemporalNode


class BetweennessProfile(NamedTuple):
    samples: list  # ordered (TemporalNode, exact rational)


def betweenness(stream, tv):
    """Betweenness of the temporal node tv: the total contribution of every
    ordered node pair (u, w), including u == w and pairs touching tv.node."""
    stream.check_temporal_node(tv)
    total = Q(0)
    for u in stream.nodes:
        lists = cached_latency_lists(stream, u)
        for w in stream.nodes:
            total += contribution(stream, u, w, tv, lists[w]).value
    return total


def profile(stream, samples_per_node, threads=1):
    """Betweenness at t_i = alpha + i*(omega-alpha)/samples_per_node for
    i = 0..samples_per_node, for every node, in deterministic order.

    `threads` is accepted for compatibility and ignored: the samples share
    the stream's tables, and evaluating them serially is the fastest way."""
    if samples_per_node < 1:
        raise ValueError("samples_per_node must be >= 1")
    span = stream.omega - stream.alpha
    points = [
        TemporalNode(stream.alpha + Q(i) * span / samples_per_node, v)
        for v in stream.nodes
        for i in range(samples_per_node + 1)
    ]
    return BetweennessProfile([(tv, betweenness(stream, tv)) for tv in points])
