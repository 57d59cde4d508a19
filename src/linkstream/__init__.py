"""Betweenness centrality of temporal nodes in continuous-time link streams.

Exact rational arithmetic end to end: volumes of uncountable sets of
shortest fastest paths are (size, dimension) pairs, and betweenness values
are exact rationals.  A grid-discretization oracle is included for
validation.
"""

from .betweenness import BetweennessProfile, betweenness, profile
from .contribution import (
    BoundaryList,
    ContributionResult,
    cell_ratio,
    contribution,
    next_list,
    prev_list,
)
from .latencies import (
    LatencyList,
    LatencyPair,
    latency,
    latency_lists,
)
from .numbers import Q, format_decimal, parse_time
from .oracle import (
    GridError,
    GridSpec,
    grid_betweenness,
    grid_contribution,
    grid_count_shortest,
    grid_fastest,
)
from .shortest_volumes import VspResult, reachable, segment_volume, vsp
from .static_graph import BfsResult, bfs_counts, connected_components
from .stream import (
    IntervalSet,
    LinkStream,
    SnapshotGraph,
    StreamError,
    TemporalNode,
    parse_stream,
)
from .volumes import (
    V_UNIT,
    V_ZERO,
    Volume,
    VolumeError,
    vol_add,
    vol_div,
    vol_mul,
    vol_sub,
    volume,
)

__version__ = "0.1.0"

__all__ = [
    "BetweennessProfile",
    "BfsResult",
    "BoundaryList",
    "ContributionResult",
    "GridError",
    "GridSpec",
    "IntervalSet",
    "LatencyList",
    "LatencyPair",
    "LinkStream",
    "Q",
    "SnapshotGraph",
    "StreamError",
    "TemporalNode",
    "V_UNIT",
    "V_ZERO",
    "Volume",
    "VolumeError",
    "VspResult",
    "betweenness",
    "bfs_counts",
    "cell_ratio",
    "connected_components",
    "contribution",
    "format_decimal",
    "grid_betweenness",
    "grid_contribution",
    "grid_count_shortest",
    "grid_fastest",
    "latency",
    "latency_lists",
    "next_list",
    "parse_stream",
    "parse_time",
    "prev_list",
    "profile",
    "reachable",
    "segment_volume",
    "vol_add",
    "vol_div",
    "vol_mul",
    "vol_sub",
    "volume",
    "vsp",
]
