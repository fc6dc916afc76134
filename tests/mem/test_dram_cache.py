"""Tests for the DRAM cache in front of NVM."""

from __future__ import annotations

import pytest

from repro.mem.address import MemoryKind
from repro.mem.backend import BackingStore
from repro.mem.dram_cache import DramCache
from repro.params import LINE_SIZE, LatencyConfig, MemoryConfig


@pytest.fixture
def nvm():
    return BackingStore(MemoryKind.NVM, LatencyConfig())


def make_cache(nvm, lines=4):
    config = MemoryConfig(
        dram_cache_bytes=lines * LINE_SIZE, dram_cache_ways=min(lines, 16)
    )
    return DramCache(config, nvm)


class TestFillAndLookup:
    def test_fill_then_lookup(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 7}, tx_id=1, committed=True)
        entry = cache.lookup(0x40)
        assert entry is not None
        assert entry.words[0x40] == 7

    def test_lookup_miss(self, nvm):
        assert make_cache(nvm).lookup(0x40) is None

    def test_fill_updates_existing(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 1}, 1, committed=False)
        cache.fill(0x40, {0x48: 2}, 1, committed=True)
        entry = cache.lookup(0x40)
        assert entry.words == {0x40: 1, 0x48: 2}
        assert entry.committed


class TestEvictionAndDrain:
    def test_committed_lines_drain_to_nvm(self, nvm):
        cache = make_cache(nvm, lines=2)
        cache.fill(0x00, {0x00: 1}, 1, committed=True)
        cache.fill(0x40, {0x40: 2}, 1, committed=True)
        cache.fill(0x80, {0x80: 3}, 1, committed=True)  # evicts 0x00
        assert nvm.load(0x00) == 1
        assert cache.lookup(0x00) is None
        assert cache.drains == 1

    def test_uncommitted_lines_are_pinned(self, nvm):
        cache = make_cache(nvm, lines=2)
        cache.fill(0x00, {0x00: 1}, 1, committed=False)
        cache.fill(0x40, {0x40: 2}, 1, committed=False)
        cache.fill(0x80, {0x80: 3}, 2, committed=False)
        # Nothing drains: uncommitted data must not reach NVM in place.
        assert nvm.load(0x00) == 0
        assert cache.overcommits == 1

    def test_drain_all(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x00, {0x00: 1}, 1, committed=True)
        cache.fill(0x40, {0x40: 2}, 2, committed=False)
        drained = cache.drain_all()
        assert drained == 1
        assert nvm.load(0x00) == 1
        assert nvm.load(0x40) == 0  # uncommitted stays put


class TestInvalidation:
    def test_invalidate_uncommitted(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, tx_id=5, committed=False)
        assert cache.invalidate(0x40, tx_id=5)
        assert cache.lookup(0x40) is None
        assert cache.invalidations == 1

    def test_invalidate_wrong_tx_refused(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, tx_id=5, committed=False)
        assert not cache.invalidate(0x40, tx_id=6)
        assert cache.lookup(0x40) is not None

    def test_invalidate_committed_refused(self, nvm):
        """Committed data is durable; the abort path must never drop it."""
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, tx_id=5, committed=True)
        assert not cache.invalidate(0x40, tx_id=5)

    def test_abort_never_takes_undrained_committed_data(self, nvm):
        """An uncommitted fill over a committed line that has not drained
        writes the committed image back first, so invalidating the entry
        on the new owner's abort leaves the committed values in NVM."""
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 1, 0x48: 2}, tx_id=1, committed=True)
        assert cache.fill(0x40, {0x40: 3}, tx_id=2, committed=False) == 1
        assert cache.drains == 1
        assert cache.lookup(0x40).words == {0x40: 3, 0x48: 2}
        assert cache.invalidate(0x40, tx_id=2)
        assert cache.lookup(0x40) is None
        assert (nvm.load(0x40), nvm.load(0x48)) == (1, 2)

    def test_committed_refill_does_not_write_back(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 1}, tx_id=1, committed=True)
        assert cache.fill(0x40, {0x40: 2}, tx_id=2, committed=True) == 0
        assert cache.drains == 0
        assert nvm.load(0x40) == 0

    def test_invalidated_line_never_drains(self, nvm):
        cache = make_cache(nvm, lines=2)
        cache.fill(0x00, {0x00: 1}, 1, committed=False)
        cache.invalidate(0x00, 1)
        cache.fill(0x40, {0x40: 2}, 2, committed=True)
        cache.fill(0x80, {0x80: 3}, 2, committed=True)
        cache.drain_all()
        assert nvm.load(0x00) == 0

    def test_mark_committed(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, tx_id=5, committed=False)
        assert cache.mark_committed(0x40, 5)
        entry = cache.lookup(0x40)
        assert entry.committed

    def test_mark_committed_wrong_tx(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, tx_id=5, committed=False)
        assert not cache.mark_committed(0x40, 7)


class TestVolatility:
    def test_wipe_loses_everything(self, nvm):
        cache = make_cache(nvm)
        cache.fill(0x40, {0x40: 9}, 1, committed=True)
        cache.wipe()
        assert cache.lookup(0x40) is None
        assert nvm.load(0x40) == 0  # never drained → lost (redo log recovers)
