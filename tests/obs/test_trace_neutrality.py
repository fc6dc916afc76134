"""Trace neutrality: attaching a tracer must not change the simulation.

The tracing subsystem's headline contract (docs/OBSERVABILITY.md): every
hook site is an ``is not None`` test plus an event append, so a traced run
and an untraced run of the same spec execute the exact same simulation —
identical metric dicts, byte-identical exported JSON.  The differential
below is the proof, and it extends to the process pool: ``trace_grid`` with
1 and 2 workers returns identical results *and* identical event streams.
"""

from __future__ import annotations

import json

from repro.harness.metrics import run_result_to_dict
from repro.harness.parallel import GridPoint
from repro.harness.runner import run_experiment
from repro.obs.capture import trace_experiment, trace_grid


class TestTraceNeutrality:
    def test_traced_run_metrics_bit_identical_to_untraced(self, tiny_spec):
        plain = run_experiment(tiny_spec)
        traced = trace_experiment(tiny_spec)
        assert run_result_to_dict(traced.result) == run_result_to_dict(plain)
        assert traced.events, "tracer captured nothing — hooks are dead"

    def test_traced_run_neutral_under_contention(self, contended_spec):
        plain = run_experiment(contended_spec)
        traced = trace_experiment(contended_spec)
        assert plain.aborts > 0, "spec not contended enough to test"
        assert run_result_to_dict(traced.result) == run_result_to_dict(plain)

    def test_exported_json_byte_identical(self, tiny_spec):
        plain = run_experiment(tiny_spec)
        traced = trace_experiment(tiny_spec)
        a = json.dumps(run_result_to_dict(plain), sort_keys=True)
        b = json.dumps(run_result_to_dict(traced.result), sort_keys=True)
        assert a.encode("utf-8") == b.encode("utf-8")

    def test_ring_overflow_is_still_neutral(self, tiny_spec):
        """Dropping events must only lose observability, never change runs."""
        plain = run_experiment(tiny_spec)
        traced = trace_experiment(tiny_spec, capacity=16)
        assert traced.dropped > 0
        assert len(traced.events) == 16
        assert run_result_to_dict(traced.result) == run_result_to_dict(plain)


class TestTraceGridParallel:
    def test_results_and_events_identical_across_job_counts(
        self, tiny_spec, contended_spec
    ):
        points = [
            GridPoint(spec=tiny_spec),
            GridPoint(spec=contended_spec),
            GridPoint(spec=tiny_spec, label="again"),
        ]
        serial = trace_grid(points, jobs=1)
        pooled = trace_grid(points, jobs=2)
        assert [r.label for r in serial] == [r.label for r in pooled]
        for a, b in zip(serial, pooled):
            assert run_result_to_dict(a.result) == run_result_to_dict(b.result)
            assert a.events == b.events  # the stream survives pickling intact
            assert a.dropped == b.dropped


class TestTraceNeutralityPerEngine:
    """The tracer sees the same simulation with or without the dispatcher.

    An attached tracer does not fence blocks: the fused loops emit nothing
    themselves, and every event a block causes comes from the code the
    per-op walk runs too.  So a traced System and a traced per-op
    reference (``htm.batch`` set to None) must produce the same metrics
    *and* the same event stream; together with the traced-vs-untraced
    tests above this ties the untraced fused run to the per-op event
    sequence.
    """

    def _trace(self, spec, monkeypatch, fused):
        from repro.harness import runner

        if not fused:
            build = runner.build_system

            def per_op(spec):
                system = build(spec)
                system.htm.batch = None
                return system

            monkeypatch.setattr(runner, "build_system", per_op)
        return trace_experiment(spec)

    def test_events_and_metrics_identical_across_engines(
        self, tiny_spec, monkeypatch
    ):
        untraced = run_experiment(tiny_spec)
        fused = self._trace(tiny_spec, monkeypatch, fused=True)
        reference = self._trace(tiny_spec, monkeypatch, fused=False)
        assert run_result_to_dict(fused.result) == run_result_to_dict(
            reference.result
        )
        assert run_result_to_dict(untraced) == run_result_to_dict(fused.result)
        assert fused.events == reference.events
        assert fused.dropped == reference.dropped

    def test_contended_events_identical_across_engines(
        self, contended_spec, monkeypatch
    ):
        fused = self._trace(contended_spec, monkeypatch, fused=True)
        reference = self._trace(contended_spec, monkeypatch, fused=False)
        assert reference.result.aborts > 0, "spec not contended enough to test"
        assert fused.events == reference.events
