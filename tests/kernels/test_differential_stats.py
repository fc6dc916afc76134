"""Differential tier: histogram bucketing, and the hierarchy's hit latencies."""

import pytest

from kernel_harness import (
    DifferentialHarness,
    ModelHistogram,
    histogram_ops,
    histogram_state,
)

from repro.params import HTMConfig, LatencyConfig, MachineConfig
from repro.runtime.system import System
from repro.sim.stats import Histogram

SEEDS = (2020, 7, 41)


class TestHistogramDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_recorded_sequences(self, seed):
        harness = DifferentialHarness(
            ModelHistogram(), Histogram(), state_fn=histogram_state
        )
        ops = histogram_ops(seed)
        assert harness.replay(ops) == len(ops)

    def test_bucket_edges(self):
        # Values straddling every power-of-two bucket edge, plus the
        # sub-1 floor bucket and the top-bucket clamp.
        edges = [0.0, 0.5, 0.999, 1.0, 1.5, 2.0, 3.9, 4.0]
        edges += [2.0**exp - 0.5 for exp in range(1, 40)]
        edges += [2.0**exp for exp in range(1, 40)]
        edges += [2.0**exp + 0.5 for exp in range(1, 40)]
        edges += [2.0**45, 2.0**60]
        shipped, model = Histogram(), ModelHistogram()
        for value in edges:
            shipped.record(value)
            model.record(value)
        assert histogram_state(shipped) == histogram_state(model)

    def test_sum_is_left_fold_identical(self):
        # Pathological float mix where pairwise summation would differ
        # from a left fold — deferred bucketing must keep the fold.  A left
        # fold loses every +1.0 against 1e16; a pairwise sum would gather
        # them first and report 1e16 + 1000.
        values = [1e16] + [1.0] * 1000
        shipped, model = Histogram(), ModelHistogram()
        for value in values:
            shipped.record(value)
            model.record(value)
        assert shipped.mean == model.mean
        assert shipped._sum == model.total == 1e16

    def test_percentiles_identical(self):
        shipped, model = Histogram(), ModelHistogram()
        import random

        rng = random.Random(77)
        for _ in range(5000):
            value = rng.random() * 10 ** rng.randrange(8)
            shipped.record(value)
            model.record(value)
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            assert shipped.percentile(q) == model.percentile(q)


class TestLatencyDifferential:
    def test_hit_constants_match_hierarchy_order(self):
        # The fused dispatcher hoists the hierarchy's L1 hit constant and
        # sends every L1 miss through the hierarchy's own miss path, so
        # both paths charge the same floats: l1_ns, and l1_ns + llc_ns in
        # that addition order.
        latency = LatencyConfig()
        system = System(MachineConfig.scaled(1 / 64, cores=2), HTMConfig())
        assert system.machine.latency == latency
        hierarchy, batch = system.hierarchy, system.htm.batch
        assert hierarchy._l1_hit_ns == batch._l1_hit_ns == latency.l1_ns
        assert hierarchy._llc_hit_ns == latency.l1_ns + latency.llc_ns
