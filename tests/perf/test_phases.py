"""Tests for the manual phase timers."""

from __future__ import annotations

from repro.cache.directory import Directory
from repro.cache.hierarchy import CacheHierarchy
from repro.htm import designs
from repro.htm.base import HTMSystem
from repro.htm.batch import BatchDispatcher
from repro.perf.phases import PHASES, PhaseTimers
from repro.sim.stats import Histogram, StatsRegistry


def _phase_entry_points():
    return {
        (CacheHierarchy, "access"),
        (CacheHierarchy, "serve_l1_miss"),
        (designs, "_signature_hits"),
        (Directory, "check_access"),
        (Directory, "record_access"),
        (HTMSystem, "commit"),
        (StatsRegistry, "incr"),
        (StatsRegistry, "record"),
        (Histogram, "record"),
        (BatchDispatcher, "tx_read_block"),
        (BatchDispatcher, "tx_write_block"),
        (BatchDispatcher, "nontx_rmw_block"),
    }


class TestAttachDetach:
    def test_detach_restores_every_entry_point(self):
        originals = {
            (owner, name): getattr(owner, name)
            for owner, name in _phase_entry_points()
        }
        timers = PhaseTimers()
        timers.attach()
        assert timers.attached
        for (owner, name), original in originals.items():
            assert getattr(owner, name) is not original
        timers.detach()
        assert not timers.attached
        for (owner, name), original in originals.items():
            assert getattr(owner, name) is original

    def test_attach_is_idempotent(self):
        timers = PhaseTimers()
        timers.attach()
        timers.attach()  # must not double-wrap
        wrapped = StatsRegistry.incr
        timers.attach()
        assert StatsRegistry.incr is wrapped
        timers.detach()

    def test_context_manager_detaches_on_error(self):
        original = StatsRegistry.incr
        try:
            with PhaseTimers():
                assert StatsRegistry.incr is not original
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert StatsRegistry.incr is original

    def test_detach_twice_is_safe(self):
        timers = PhaseTimers()
        timers.attach()
        timers.detach()
        timers.detach()


class TestAccounting:
    def test_stats_calls_are_counted(self):
        timers = PhaseTimers()
        with timers:
            registry = StatsRegistry()
            for _ in range(10):
                registry.incr("x")
            registry.record("y", 1.0)
        assert timers.calls["stats"] == 11
        assert registry.counter("x") == 10
        assert timers.exclusive_s["stats"] >= 0.0

    def test_report_shares_sum_to_one(self):
        timers = PhaseTimers()
        with timers:
            registry = StatsRegistry()
            registry.incr("x")
        report = timers.report()
        assert set(report) == set(PHASES)
        assert abs(sum(r["share"] for r in report.values()) - 1.0) < 0.01

    def test_empty_report_has_zero_shares(self):
        report = PhaseTimers().report()
        assert all(r["share"] == 0.0 for r in report.values())
        assert all(r["calls"] == 0 for r in report.values())

    def test_all_phases_fire_in_a_real_run(self):
        from repro.harness.config import ExperimentSpec, consolidated
        from repro.harness.runner import run_experiment
        from repro.params import HTMConfig
        from repro.workloads import WorkloadParams

        spec = ExperimentSpec(
            name="phases-smoke",
            htm=HTMConfig(),
            benchmarks=consolidated(
                "hashmap",
                2,
                WorkloadParams(
                    threads=2,
                    txs_per_thread=2,
                    value_bytes=16 << 10,
                    keys=64,
                    initial_fill=16,
                ),
            ),
            scale=1 / 64,
            seed=2020,
        )
        timers = PhaseTimers()
        with timers:
            result = run_experiment(spec)
        assert result.commits > 0
        for phase in PHASES:
            assert timers.calls[phase] > 0, f"phase {phase!r} never fired"
        assert timers.total_s() > 0.0

    def test_epoch_phase_fires_under_batched(self):
        from repro.harness.config import ExperimentSpec, consolidated
        from repro.harness.runner import run_experiment
        from repro.params import HTMConfig
        from repro.workloads import WorkloadParams

        spec = ExperimentSpec(
            name="phases-epoch",
            htm=HTMConfig(),
            benchmarks=consolidated(
                "hashmap",
                2,
                WorkloadParams(
                    threads=2,
                    txs_per_thread=2,
                    value_bytes=16 << 10,
                    keys=64,
                    initial_fill=16,
                ),
            ),
            scale=1 / 64,
            seed=2020,
        )
        timers = PhaseTimers()
        with timers:
            run_experiment(spec)
        assert timers.calls["epoch"] > 0
        assert timers.exclusive_s["epoch"] > 0.0

        def per_op(system):
            system.htm.batch = None

        reference = PhaseTimers()
        with reference:
            run_experiment(spec, instrument=per_op)
        # The per-op reference never enters the dispatcher; its whole cache
        # walk lands in ``access``, where the fused run charges only misses.
        assert reference.calls["epoch"] == 0
        assert reference.calls["access"] > timers.calls["access"]
