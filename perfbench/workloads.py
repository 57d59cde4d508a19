"""Seeded inputs of the three benchmark workloads.

Every workload draws its inputs from a fixed pool.  Pool entry k of a
workload is generated from the string "<workload>/<k>" alone, so the exact
outputs of every entry can be committed in golden.json.  A run visits the
whole pool in passes; the run seed sets the order of each pass.  Times are
kept as text (as a user would type them) so that equal seeds give
byte-identical inputs.

A session is what one user does with one stream: a cold query (parse the
text, then one `betweenness` call), warm queries at new temporal nodes on the
same LinkStream, and one CLI query with `--verify`.
"""

import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
DEMO_PATH = HERE / "demo.ls"

WORKLOADS = ("demo-profile", "synth-session", "oracle-verify")

PROFILE_SAMPLES = 1000  # demo profile: 5 nodes x 1001 temporal nodes
PROFILES_PER_PASS = 2
DEMO_SESSIONS_PER_PROFILE = 25
SYNTH_CLASSES = ((10, 40), (20, 80), (30, 160))  # (nodes, segments)
SYNTH_PER_CLASS = 4
SYNTH_HORIZON = 40
ORACLE_SESSIONS = 40
ORACLE_HORIZON = 10
# Operations of a few milliseconds are too short for one timing to be
# steady: they are run this many times and timed by the median.  These are
# `volumes --verify` (tens of milliseconds) and the queries on oracle-verify's
# small streams (about a millisecond).
SHORT_REPEATS = 3


class Session(NamedTuple):
    key: str  # "<workload>/<pool index>"
    text: str  # stream file contents
    cold: tuple  # (time text, node) of the first query
    warm: tuple  # further (time text, node) queries on the same stream
    verify: tuple  # CLI argv without `--stream FILE`, ending in --verify
    repeats: int = 1  # times the cold and warm queries are run, on fresh streams
    verify_repeats: int = 1  # times the verify query is run


class Profile(NamedTuple):
    key: str
    text: str
    samples: int


def _time(num, den):
    return str(Fraction(num, den))


def _query(rng, nodes, horizon, den):
    return (_time(rng.randint(0, horizon * den), den), rng.choice(nodes))


def _nodes_of(text):
    nodes = set()
    for line in text.splitlines()[1:]:
        nodes.update(line.split()[:2])
    return sorted(nodes)


def _volumes_verify(rng, nodes, horizon, den):
    """A `volumes --verify` query between two seeded temporal nodes."""
    (ta, x), (tb, y) = sorted(
        (_query(rng, nodes, horizon, den) for _ in range(2)),
        key=lambda q: Fraction(q[0]),
    )
    return ("volumes", "--from", ta, x, "--to", tb, y, "--verify")


def demo_session(k, demo_text):
    """Side session on the demo stream, on its quarter-time lattice."""
    rng = random.Random("demo-profile/%d" % k)
    nodes = _nodes_of(demo_text)
    cold = _query(rng, nodes, 32, 4)
    warm = tuple(_query(rng, nodes, 32, 4) for _ in range(3))
    verify = _volumes_verify(rng, nodes, 32, 4)
    return Session("demo-profile/%d" % k, demo_text, cold, warm, verify,
                   verify_repeats=SHORT_REPEATS)


def synth_text(rng, n, segments, den, horizon):
    """Random stream: `segments` presence intervals of length at most 3 on
    uniformly chosen pairs of n nodes, all times on the 1/den lattice."""
    nodes = ["n%02d" % i for i in range(n)]
    lines = ["0 %d" % horizon]
    for _ in range(segments):
        u, v = rng.sample(nodes, 2)
        b = rng.randint(0, horizon * den - 1)
        e = min(horizon * den, b + rng.randint(0, 3 * den))
        lines.append("%s %s %s %s" % (u, v, _time(b, den), _time(e, den)))
    return "\n".join(lines) + "\n"


def synth_session(k):
    """Pool entry k: size class k % 3.  The 10- and 20-node classes
    alternate between the integer and the quarter lattice; the 30-node class
    stays on integers, where a session takes about 1.5 s against 4-10 s on
    quarters, so that a pass over the pool fits well inside a run.  Queries sit
    on the half-lattice, so about half of them fall inside open gaps."""
    rng = random.Random("synth-session/%d" % k)
    size = k % len(SYNTH_CLASSES)
    n, segments = SYNTH_CLASSES[size]
    quarters = size < len(SYNTH_CLASSES) - 1 and (k // len(SYNTH_CLASSES)) % 2
    den = 4 if quarters else 1
    text = synth_text(rng, n, segments, den, SYNTH_HORIZON)
    nodes = _nodes_of(text)
    cold = _query(rng, nodes, SYNTH_HORIZON, 2 * den)
    warm = tuple(_query(rng, nodes, SYNTH_HORIZON, 2 * den) for _ in range(3))
    verify = _volumes_verify(rng, nodes, SYNTH_HORIZON, 2 * den)
    return Session("synth-session/%d" % k, text, cold, warm, verify,
                   verify_repeats=SHORT_REPEATS)


def oracle_text(rng, max_nodes=5, max_segments=8, horizon=ORACLE_HORIZON):
    """Small random stream drawn like tests/conftest.random_stream; nodes
    that carry no link do not appear in the file format."""
    n = rng.randint(2, max_nodes)
    nodes = [chr(ord("a") + i) for i in range(n)]
    lines = ["0 %d" % horizon]
    for _ in range(rng.randint(1, max_segments)):
        u, v = rng.sample(nodes, 2)
        b = rng.randint(0, horizon - 1)
        e = rng.randint(b, min(horizon, b + rng.randint(0, 6)))
        lines.append("%s %s %d %d" % (u, v, b, e))
    return "\n".join(lines) + "\n"


def oracle_session(k):
    """Pool entry k: a betweenness query at an integer time, verified by the
    grid oracle.  Entries are never filtered by the verify verdict."""
    rng = random.Random("oracle-verify/%d" % k)
    text = oracle_text(rng)
    nodes = _nodes_of(text)
    cold = _query(rng, nodes, ORACLE_HORIZON, 1)
    warm = tuple(_query(rng, nodes, ORACLE_HORIZON, 1) for _ in range(4))
    verify = ("betweenness", "--at", cold[0], cold[1], "--verify")
    return Session("oracle-verify/%d" % k, text, cold, warm, verify, repeats=SHORT_REPEATS)


def demo_profile(demo_text):
    return Profile("demo-profile/profile", demo_text, PROFILE_SAMPLES)


def pool(workload):
    """Every input a workload visits, in pool order."""
    if workload == "demo-profile":
        text = DEMO_PATH.read_text()
        sessions = PROFILES_PER_PASS * DEMO_SESSIONS_PER_PROFILE
        return [demo_profile(text)] + [demo_session(k, text) for k in range(sessions)]
    if workload == "synth-session":
        return [synth_session(k) for k in range(len(SYNTH_CLASSES) * SYNTH_PER_CLASS)]
    if workload == "oracle-verify":
        return [oracle_session(k) for k in range(ORACLE_SESSIONS)]
    raise ValueError("unknown workload %r" % workload)


def passes(workload, seed, entries):
    """Endless sequence of passes over the pool `entries` for one run seed;
    each pass is a list that visits every entry.

    demo-profile: DEMO_SESSIONS_PER_PROFILE side sessions, then the profile,
    PROFILES_PER_PASS times.  synth-session: the size classes in turn, each
    class in its own seeded order, so that every stretch of a pass mixes the
    sizes alike.  oracle-verify: a seeded permutation of the pool.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    while True:
        if workload == "demo-profile":
            profile, sessions = entries[0], list(entries[1:])
            rng.shuffle(sessions)
            order = []
            for i in range(0, len(sessions), DEMO_SESSIONS_PER_PROFILE):
                order += sessions[i:i + DEMO_SESSIONS_PER_PROFILE] + [profile]
        elif workload == "synth-session":
            classes = [entries[c::len(SYNTH_CLASSES)] for c in range(len(SYNTH_CLASSES))]
            for members in classes:
                rng.shuffle(members)
            order = [entry for group in zip(*classes) for entry in group]
        else:
            order = list(entries)
            rng.shuffle(order)
        yield order
