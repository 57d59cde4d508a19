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


def reversed_stream(stream):
    """The stream with time reversed: the window [-omega, -alpha], and each
    interval [b, e] becomes [-e, -b]."""
    presence = {pair: [(-e, -b) for b, e in ivs]
                for pair, ivs in stream.presence.items()}
    return LinkStream(-stream.omega, -stream.alpha, stream.nodes, presence)


def seeded(seed):
    return random.Random(seed)
