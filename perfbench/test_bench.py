"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
GOLDEN = json.loads(run.GOLDEN_PATH.read_text())


def _inputs(workload, seed):
    """The first three passes of a run with this seed."""
    entries = workloads.pool(workload)
    passes = workloads.passes(workload, seed, entries)
    return [next(passes) for _ in range(3)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = _inputs(workload, 7)
    assert repr(first).encode() == repr(_inputs(workload, 7)).encode()
    assert repr(first).encode() != repr(_inputs(workload, 8)).encode()
    for order in first:
        assert {e.key for e in order} == {e.key for e in workloads.pool(workload)}


def test_every_pool_entry_has_golden_outputs():
    for workload in workloads.WORKLOADS:
        for entry in workloads.pool(workload):
            outputs = 1 if isinstance(entry, workloads.Profile) else 2 + len(entry.warm)
            assert len(GOLDEN[entry.key]) == outputs, entry.key


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail(list(range(40))) == (29, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _cheap_entries():
    """One session of each workload, small enough for a unit test."""
    return [
        workloads.pool("demo-profile")[1],
        workloads.synth_session(0),  # 10 nodes
        workloads.oracle_session(0),
    ]


def _run_entries(entries, tracer=None, golden=GOLDEN):
    workdir = HERE / ".work-test"
    try:
        package = run._import_program()
        workdir.mkdir(exist_ok=True)
        paths = {}
        for entry in entries:
            paths[entry.key] = workdir / (entry.key.replace("/", "-") + ".ls")
            paths[entry.key].write_text(entry.text)
        rec = run.Recorder(golden)
        for entry in entries:
            if tracer is None:
                run.run_entry(package, entry, paths, rec)
            else:
                with tracer.installed(package.__name__):
                    run.run_entry(package, entry, paths, rec)
        return rec
    finally:
        for path in workdir.glob("*.ls"):
            path.unlink()
        if workdir.exists():
            workdir.rmdir()


def test_traced_outputs_equal_untraced_outputs():
    plain = _run_entries(_cheap_entries())
    tracer = Tracer()
    traced = _run_entries(_cheap_entries(), tracer)
    assert plain.outputs == traced.outputs
    assert plain.failed == traced.failed == 0
    # the oracle-verify queries run 3 times, then once more under --verify
    assert tracer.calls("betweenness.betweenness") == 4 + 4 + 3 * 5 + 1
    assert tracer.calls("cli.run") == 3 + 3 + 1  # volumes --verify runs 3 times
    assert tracer.counts["volumes.ops"] > 0
    assert tracer.counts["shortest_volumes.advance_steps"] > 0


def test_tracing_restores_every_function():
    package = run._import_program()
    cli = sys.modules["linkstream.cli"]
    before = (cli.betweenness, package.vol_add, package.LinkStream.graph_at)
    with Tracer().installed(package.__name__):
        assert cli.betweenness is not before[0]
        assert cli.betweenness is package.betweenness
        assert sys.modules["linkstream.betweenness"].betweenness is package.betweenness
    assert (cli.betweenness, package.vol_add, package.LinkStream.graph_at) == before


def test_perturbed_golden_value_counts_as_a_failure():
    entries = _cheap_entries()
    assert _run_entries(entries).failed == 0
    perturbed = dict(GOLDEN)
    key = entries[2].key
    perturbed[key] = ["0" * 16] + GOLDEN[key][1:]
    rec = _run_entries(entries, golden=perturbed)
    assert rec.failed == 1
    assert rec.attempted == 5 + 5 + 6


def _result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_name_is_emitted(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ] + [("trace.overhead_ratio", "ratio")]
