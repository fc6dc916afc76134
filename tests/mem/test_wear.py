"""Tests for NVM wear accounting."""

from __future__ import annotations

import pytest

from repro import HTMConfig, MachineConfig, System
from repro.mem.address import MemoryKind
from repro.mem.wear import WearTracker
from repro.params import LINE_SIZE
from repro.runtime import RawContext
from repro.sim.engine import SimThread
from repro.workloads import WORKLOADS, WorkloadParams


def make_system():
    return System(MachineConfig.scaled(1 / 64, cores=2), HTMConfig())


def commit_lines(system, base, nlines, value=1):
    thread = SimThread(0, "t", lambda t: iter(()))
    tx = system.htm.begin(thread, 0, 1, 1)
    for i in range(nlines):
        system.htm.tx_write(tx, base + i * LINE_SIZE, value)
    system.htm.commit(tx)


class TestWearTracker:
    def test_counts_inplace_writes_after_drain(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(4 * LINE_SIZE, MemoryKind.NVM)
        commit_lines(system, base, 4)
        system.controller.dram_cache.drain_all()
        assert tracker.total_line_writes == 4
        assert tracker.distinct_lines == 4

    def test_log_bytes_accounted(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(4 * LINE_SIZE, MemoryKind.NVM)
        commit_lines(system, base, 4)
        assert tracker.log_bytes >= 4 * 80  # four redo records

    def test_write_amplification(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(2 * LINE_SIZE, MemoryKind.NVM)
        commit_lines(system, base, 2)
        system.controller.dram_cache.drain_all()
        amplification = tracker.write_amplification()
        assert amplification > 1.0  # line-sized records per 8-byte payload

    def test_hot_line_detection(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(2 * LINE_SIZE, MemoryKind.NVM)
        for _ in range(5):
            commit_lines(system, base, 1, value=7)
            system.controller.dram_cache.drain_all()
        hottest = tracker.hottest_lines(1)
        assert hottest[0][0] == base
        assert hottest[0][1] == 5
        assert tracker.max_line_writes == 5

    def test_percentiles(self):
        tracker = WearTracker()
        tracker.line_writes.update({0: 1, 64: 1, 128: 10})
        assert tracker.percentile_line_writes(0.5) == 1
        assert tracker.percentile_line_writes(1.0) == 10
        with pytest.raises(ValueError):
            tracker.percentile_line_writes(0.0)

    def test_empty_tracker(self):
        tracker = WearTracker()
        assert tracker.total_line_writes == 0
        assert tracker.max_line_writes == 0
        assert tracker.write_amplification() == 0.0
        assert tracker.percentile_line_writes(0.5) == 0

    def test_detach_restores(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        tracker.detach()
        base = system.heap.alloc(LINE_SIZE, MemoryKind.NVM)
        system.controller.nvm.store(base, 1)
        assert tracker.total_line_writes == 0

    def test_double_attach_rejected(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        with pytest.raises(RuntimeError):
            tracker.attach(system.controller)

    def test_recovery_writes_also_counted(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(2 * LINE_SIZE, MemoryKind.NVM)
        commit_lines(system, base, 2)
        system.crash()
        system.recover()
        assert tracker.total_line_writes >= 2


class TestPrefillWear:
    """Pre-fill is functional: each published NVM word counts once."""

    def spawn_hashmap(self, staged):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        workload = WORKLOADS["hashmap"](
            system,
            system.process("hashmap"),
            WorkloadParams(threads=2, value_bytes=8 << 10, keys=64,
                           initial_fill=32, kind=MemoryKind.NVM),
        )
        if staged:
            workload.spawn()
        else:
            workload.raw = RawContext(system.controller)
            workload.setup()
        return system, tracker

    def test_each_published_word_counts_once(self):
        system, tracker = self.spawn_hashmap(staged=True)
        published = system.controller.nvm.word_count()
        assert published > 0
        assert tracker.payload_bytes == 8 * published
        assert tracker.total_line_writes == published
        assert tracker.log_bytes == 0

    def test_raw_setup_counts_every_write(self):
        staged, staged_tracker = self.spawn_hashmap(staged=True)
        raw, raw_tracker = self.spawn_hashmap(staged=False)
        assert staged.controller.nvm_snapshot() == raw.controller.nvm_snapshot()
        # The bucket heads and the size word are rewritten during pre-fill.
        assert raw_tracker.total_line_writes > staged_tracker.total_line_writes
        assert raw_tracker.distinct_lines == staged_tracker.distinct_lines
