"""Tests of the benchmark itself: names, failure accounting, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Each test drives a one-point grid (the first llc-bounded point) so the
file runs in seconds.
"""

import json
import time
from pathlib import Path

import pytest

import core
import run
from tracer import ENTRY_POINTS, Instrumentation, Tracer

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def one_point_grid(seed):
    return core.WORKLOADS["llc-bounded"](seed)[:1]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Run ``run.main`` on a one-point workload; returns (stdout, record)."""
    monkeypatch.setitem(core.WORKLOADS, "tiny", one_point_grid)
    monkeypatch.setattr(run, "IMPORT_SAMPLES", 1)
    # main() caps the address space of the whole process; a test must not.
    monkeypatch.setattr(run.resource, "setrlimit", lambda *args: None)
    monkeypatch.delenv("REPRO_ENGINE", raising=False)

    def invoke(capsys, trace):
        code = run.main([
            "--workload", "tiny", "--seconds", "0", "--trace", str(trace),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        record = json.loads((tmp_path / f"tiny.trace{trace}.json").read_text())
        return out, record

    return invoke


def last_json_line(out):
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(tiny, capsys, trace, section):
    declared = json.loads(BENCHMARK_JSON.read_text())[section]
    out, _record = tiny(capsys, trace)
    result = last_json_line(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}


def test_failed_verify_is_counted(tiny, capsys, monkeypatch):
    from repro.workloads import WORKLOADS

    monkeypatch.setattr(WORKLOADS["hashmap"], "verify", lambda self: False)
    out, record = tiny(capsys, 0)
    result = last_json_line(out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert record["fail_share"] == 1.0
    assert "verify() returned False" in record["failures"][0]["failure"]
    assert "fail_share" in out and "FAILED" in out


def test_raising_point_is_counted(tiny, capsys, monkeypatch):
    from repro.workloads import WORKLOADS

    def boom(self):
        raise RuntimeError("corrupt structure")

    monkeypatch.setattr(WORKLOADS["hashmap"], "verify", boom)
    out, record = tiny(capsys, 0)
    assert last_json_line(out)["failed"] == record["attempted"]
    assert "RuntimeError" in record["failures"][0]["failure"]


def test_missing_sources_exit_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "hybrid-kv", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_hand_built_span_tree():
    """point [0, 10] -> a [1, 6] -> (b [2, 3], b [3.5, 5] -> b [4, 4.5]);
    point -> c [7, 9]."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    events = [
        (0.0, "enter", "point"), (1.0, "enter", "x.a"),
        (2.0, "enter", "y.b"), (3.0, "exit", None),
        (3.5, "enter", "y.b"), (4.0, "enter", "y.b"), (4.5, "exit", None),
        (5.0, "exit", None), (6.0, "exit", None),
        (7.0, "enter", "x.c"), (9.0, "exit", None), (10.0, "exit", None),
    ]
    for at, kind, name in events:
        clock.now = at
        tracer.enter(name) if kind == "enter" else tracer.exit()
    assert tracer.open_spans == 0
    names = tracer.names
    assert names["point"].self_s == pytest.approx(10 - 5 - 2)
    assert names["x.a"].self_s == pytest.approx(5 - 1 - 1.5)
    assert names["x.c"].self_s == pytest.approx(2)
    # y.b: 1 s, then 1.5 s holding a nested 0.5 s call of itself.
    assert names["y.b"].calls == 3
    assert names["y.b"].self_s == pytest.approx(1 + 1 + 0.5)
    assert names["y.b"].total_s == pytest.approx(2.5)  # outermost calls only
    # Kept spans: the point and its direct children, parent first.
    kept = [(s["name"], s["parent"], s["start"], s["end"]) for s in tracer.spans]
    assert kept == [("point", None, 0.0, 10.0), ("x.a", 0, 1.0, 6.0),
                    ("x.c", 0, 7.0, 9.0)]
    # Deeper spans are folded under their depth-1 ancestor.
    (rollup,) = tracer.rollups()
    assert rollup["parent"] == 1 and rollup["name"] == "y.b"
    assert rollup["calls"] == 3 and (rollup["start"], rollup["end"]) == (2.0, 5.0)
    assert rollup["total_s"] == pytest.approx(2.5)
    assert rollup["self_s"] == pytest.approx(2.5)


def test_traced_and_untraced_digests_equal():
    points = one_point_grid(core.DEFAULT_WORKLOAD_SEED)
    runner = core.Runner(points, [0], clock=time.perf_counter,
                         deadline=time.perf_counter() + 120)
    untraced = runner.run_pass(traced=False)
    traced = runner.run_pass(traced=True)
    assert runner.failures() == []
    assert untraced.samples[0].digest == traced.samples[0].digest
    # The traced pass saw every layer the point exercises.
    split = traced.tracer.layer_split()
    for layer in ("cache", "htm", "mem", "workloads", "sim", "runtime",
                  "harness"):
        assert split[layer]["calls"] > 0, layer


def test_instrumentation_restores_entry_points():
    from repro.cache.hierarchy import CacheHierarchy
    from repro.harness import runner as harness_runner

    before = (CacheHierarchy.access, harness_runner.collect_metrics)
    with Instrumentation(Tracer(), ENTRY_POINTS):
        assert CacheHierarchy.access is not before[0]
        assert harness_runner.collect_metrics is not before[1]
    assert (CacheHierarchy.access, harness_runner.collect_metrics) == before


def test_missing_entry_point_is_listed_not_fatal():
    from tracer import Entry

    gone = (Entry("cache.gone", "repro.cache.hierarchy:CacheHierarchy", "gone"),
            Entry("mem.gone", "repro.no_such_module", "f"))
    with Instrumentation(Tracer(), gone) as instrumentation:
        pass
    assert instrumentation.missing == [
        "repro.cache.hierarchy:CacheHierarchy.gone", "repro.no_such_module.f"]
