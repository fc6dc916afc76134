"""Tests for the memory controller: logging protocols, crash, recovery."""

from __future__ import annotations

import pytest

from repro.mem.controller import MemoryController
from repro.mem.log import RecordKind
from repro.params import LatencyConfig, MemoryConfig


@pytest.fixture
def controller():
    return MemoryController(MemoryConfig(), LatencyConfig())


def dram_addr(controller, offset=0):
    return controller.address_space.dram_heap.base + offset


def nvm_addr(controller, offset=0):
    return controller.address_space.nvm_heap.base + offset


class TestUndoLogging:
    def test_undo_log_then_update_in_place(self, controller):
        addr = dram_addr(controller)
        controller.dram.store(addr, 10)
        charge = controller.log_undo_and_update(1, addr, {addr: 20})
        assert charge == 0.0  # off the critical path
        assert controller.dram.load(addr) == 20
        records = controller.dram_log.records_of(1)
        assert dict(records[0].words) == {addr: 10}

    def test_rollback_restores_old_values(self, controller):
        addr = dram_addr(controller)
        controller.dram.store(addr, 10)
        controller.log_undo_and_update(1, addr, {addr: 20})
        cost = controller.rollback_undo(1)
        assert controller.dram.load(addr) == 10
        assert cost > 0  # aborts are expensive under undo

    def test_rollback_chain_restores_first_image(self, controller):
        """Repeated spills of one line roll back to the pre-tx value."""
        addr = dram_addr(controller)
        controller.dram.store(addr, 1)
        controller.log_undo_and_update(1, addr, {addr: 2})
        controller.log_undo_and_update(1, addr, {addr: 3})
        controller.rollback_undo(1)
        assert controller.dram.load(addr) == 1

    def test_commit_undo_is_one_mark_write(self, controller):
        addr = dram_addr(controller)
        controller.log_undo_and_update(1, addr, {addr: 5})
        cost = controller.commit_undo(1)
        assert cost == controller.latency.dram_ns
        assert controller.dram.load(addr) == 5

    def test_commit_cheaper_than_abort(self, controller):
        """The undo trade-off the paper optimises for (Figure 4c)."""
        a = dram_addr(controller, 0)
        b = dram_addr(controller, 64)
        controller.log_undo_and_update(1, a, {a: 1})
        controller.log_undo_and_update(1, b, {b: 2})
        commit_cost = controller.commit_undo(1)
        controller.log_undo_and_update(2, a, {a: 3})
        controller.log_undo_and_update(2, b, {b: 4})
        abort_cost = controller.rollback_undo(2)
        assert commit_cost < abort_cost


class TestRedoDramAblation:
    def test_redo_leaves_in_place_unmodified(self, controller):
        addr = dram_addr(controller)
        controller.dram.store(addr, 10)
        controller.log_redo_dram(1, addr, {addr: 20})
        assert controller.dram.load(addr) == 10

    def test_redo_lookup_finds_logged_value(self, controller):
        addr = dram_addr(controller)
        controller.log_redo_dram(1, addr, {addr: 20})
        assert controller.redo_dram_lookup(1, addr) == 20
        assert controller.redo_dram_lookup(1, addr + 64) is None

    def test_commit_copies_values_in_place(self, controller):
        addr = dram_addr(controller)
        controller.log_redo_dram(1, addr, {addr: 20})
        cost = controller.commit_redo_dram(1)
        assert controller.dram.load(addr) == 20
        assert cost > controller.latency.dram_ns  # copy makes commit slow

    def test_abort_discards_cheaply(self, controller):
        addr = dram_addr(controller)
        controller.dram.store(addr, 10)
        controller.log_redo_dram(1, addr, {addr: 20})
        cost = controller.discard_redo_dram(1)
        assert controller.dram.load(addr) == 10
        assert cost == controller.latency.dram_ns

    def test_redo_commit_slower_than_undo_commit(self, controller):
        """Undo commits with one mark; redo must copy every line."""
        lines = [dram_addr(controller, i * 64) for i in range(8)]
        for line in lines:
            controller.log_undo_and_update(1, line, {line: 1})
        undo_cost = controller.commit_undo(1)
        for line in lines:
            controller.log_redo_dram(2, line, {line: 1})
        redo_cost = controller.commit_redo_dram(2)
        assert redo_cost > undo_cost

    def test_indirection_latency_positive(self, controller):
        assert controller.redo_dram_indirection_latency() > 0


class TestNvmCommit:
    def test_commit_publishes_via_dram_cache(self, controller):
        addr = nvm_addr(controller)
        controller.commit_nvm(7, {addr: {addr: 99}})
        # Visible through the DRAM cache before any drain:
        assert controller.load_word(addr) == 99
        # Not yet durable in place:
        assert controller.nvm.load(addr) == 0

    def test_commit_appends_mark(self, controller):
        addr = nvm_addr(controller)
        controller.commit_nvm(7, {addr: {addr: 99}})
        assert 7 in controller.nvm_log.committed_tx_ids()

    def test_read_latency_served_from_dram_cache(self, controller):
        addr = nvm_addr(controller)
        before = controller.read_latency(addr)
        assert before == controller.latency.nvm_read_ns
        controller.commit_nvm(7, {addr: {addr: 99}})
        assert controller.read_latency(addr) == controller.latency.dram_cache_ns

    def test_early_eviction_buffers_uncommitted(self, controller):
        addr = nvm_addr(controller)
        controller.buffer_early_evicted_nvm(3, addr, {addr: 5})
        entry = controller.dram_cache.lookup(addr)
        assert entry is not None and not entry.committed

    def test_abort_after_early_eviction_keeps_prior_commit(self, controller):
        """A committed line still in the DRAM cache, then early-evicted by
        a second transaction that aborts: reads see the first commit."""
        addr = nvm_addr(controller)
        controller.commit_nvm(1, {addr: {addr: 10}})
        controller.buffer_early_evicted_nvm(2, addr, {addr: 20})
        assert controller.load_word(addr) == 20
        controller.abort_nvm(2, [addr])
        assert controller.load_word(addr) == 10

    def test_abort_nvm_invalidates_buffered_lines(self, controller):
        addr = nvm_addr(controller)
        controller.buffer_early_evicted_nvm(3, addr, {addr: 5})
        controller.abort_nvm(3, [addr])
        assert controller.dram_cache.lookup(addr) is None
        assert controller.load_word(addr) == 0


class TestStoreWord:
    def test_nvm_store_updates_resident_dram_cache_line(self, controller):
        addr = nvm_addr(controller)
        controller.commit_nvm(7, {addr: {addr: 1}})
        controller.store_word(addr, 2)
        assert controller.load_word(addr) == 2
        controller.dram_cache.drain_all()
        assert controller.nvm.load(addr) == 2

    def test_dram_store_direct(self, controller):
        addr = dram_addr(controller)
        controller.store_word(addr, 11)
        assert controller.dram.load(addr) == 11


class TestCrashRecovery:
    def test_committed_data_survives_crash(self, controller):
        addr = nvm_addr(controller)
        controller.nvm_log.append_data(RecordKind.REDO, 1, addr, {addr: 42})
        controller.commit_nvm(1, {addr: {addr: 42}})
        controller.crash()
        assert controller.load_word(addr) == 0  # DRAM cache was wiped
        replayed = controller.recover()
        assert replayed >= 1
        assert controller.nvm.load(addr) == 42

    def test_uncommitted_data_discarded_on_recovery(self, controller):
        addr = nvm_addr(controller)
        controller.nvm_log.append_data(RecordKind.REDO, 2, addr, {addr: 13})
        controller.crash()
        controller.recover()
        assert controller.nvm.load(addr) == 0

    def test_aborted_tx_never_replayed(self, controller):
        addr = nvm_addr(controller)
        controller.nvm_log.append_data(RecordKind.REDO, 3, addr, {addr: 13})
        controller.nvm_log.append_mark(RecordKind.COMMIT, 3)
        controller.nvm_log.append_mark(RecordKind.ABORT, 3)
        controller.crash()
        controller.recover()
        assert controller.nvm.load(addr) == 0

    def test_crash_wipes_volatile_state(self, controller):
        daddr = dram_addr(controller)
        controller.dram.store(daddr, 5)
        controller.dram_log.append_mark(RecordKind.COMMIT, 1)
        controller.crash()
        assert controller.dram.load(daddr) == 0
        assert len(controller.dram_log) == 0
        assert len(controller.dram_cache) == 0

    def test_recovery_is_idempotent(self, controller):
        addr = nvm_addr(controller)
        controller.nvm_log.append_data(RecordKind.REDO, 1, addr, {addr: 42})
        controller.nvm_log.append_mark(RecordKind.COMMIT, 1)
        controller.crash()
        controller.recover()
        first = controller.nvm.clone_contents()
        controller.recover()
        assert controller.nvm.clone_contents() == first
