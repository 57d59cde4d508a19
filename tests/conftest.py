import random
from pathlib import Path

import pytest

from linkstream import LinkStream, Q, parse_stream

DATA = Path(__file__).parent / "data"

DEMO_PATH = DATA / "demo.ls"
DEMO_TEXT = DEMO_PATH.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def demo():
    """The running-example stream used by all golden tests."""
    return parse_stream(DEMO_TEXT)


@pytest.fixture()
def demo_path():
    return str(DEMO_PATH)


def random_stream(rng, max_nodes=5, max_segments=8, horizon=20):
    """Small random stream with integer event times, for property tests."""
    n = rng.randint(2, max_nodes)
    nodes = [chr(ord("a") + i) for i in range(n)]
    presence = {}
    for _ in range(rng.randint(1, max_segments)):
        u, v = rng.sample(nodes, 2)
        b = rng.randint(0, horizon - 1)
        e = rng.randint(b, min(horizon, b + rng.randint(0, 6)))
        key = (u, v) if u < v else (v, u)
        presence.setdefault(key, []).append((Q(b), Q(e)))
    return LinkStream(Q(0), Q(horizon), nodes, presence)


def relay_stream(rng, max_nodes=6, horizon=12):
    """Random stream whose links relay a path along a chain of 5 to
    max_nodes nodes, plus up to two short random links.  The first and
    last links of the chain are short; each middle one lasts 2 to 5 time
    units, spanning whole gaps, and the next link begins during it or just
    after.  A fastest path along the chain can cross a middle link at any
    time of such a gap, and two overlapping ones at two times, so
    betweenness varies there, on about a third of the gaps, and not only
    linearly; random_stream gives almost no such gap."""
    n = rng.randint(5, max_nodes)
    nodes = [chr(ord("a") + i) for i in range(n)]
    presence = {}

    def add(u, v, b, e):
        key = (u, v) if u < v else (v, u)
        presence.setdefault(key, []).append((Q(b), Q(e)))

    chain = rng.sample(nodes, n)
    t = rng.randint(0, 1)
    for i, (u, v) in enumerate(zip(chain, chain[1:])):
        middle = 0 < i < n - 2
        e = min(horizon, t + (rng.randint(2, 5) if middle else rng.randint(0, 1)))
        add(u, v, t, e)
        t = min(horizon, rng.randint(t if middle else e, e + 1))
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(nodes, 2)
        b = rng.randint(0, horizon - 1)
        add(u, v, b, min(horizon, b + rng.randint(0, 2)))
    return LinkStream(Q(0), Q(horizon), nodes, presence)


def reversed_stream(stream):
    """The stream with time reversed: the window [-omega, -alpha], and each
    interval [b, e] becomes [-e, -b]."""
    presence = {pair: [(-e, -b) for b, e in ivs]
                for pair, ivs in stream.presence.items()}
    return LinkStream(-stream.omega, -stream.alpha, stream.nodes, presence)


def seeded(seed):
    return random.Random(seed)
