"""The controller's functional word accesses against the backing stores.

``load_word``/``store_word`` read and write the backing-store dicts
directly instead of calling :meth:`BackingStore.load`/``store`` per word.
These tests run each case on two identical controllers — one through the
controller entry point, one through a reference built from the
``BackingStore`` methods and the DRAM-cache lookup — and require the same
values, the same memory contents, the same DRAM-cache state and the same
hook calls.
"""

from __future__ import annotations

import pytest

from repro.errors import AddressError
from repro.mem.address import DRAM_BASE, line_of
from repro.mem.controller import MemoryController
from repro.mem.wear import WearTracker
from repro.params import LatencyConfig, MemoryConfig


def make():
    controller = MemoryController(MemoryConfig(), LatencyConfig())
    stored = []
    controller.on_nontx_nvm_store = stored.append
    return controller, stored


def reference_load(controller, addr):
    if controller.address_space.is_nvm(addr):
        entry = controller.dram_cache.lookup(line_of(addr))
        if entry is not None and addr in entry.words:
            return entry.words[addr]
        return controller.nvm.load(addr)
    if controller.address_space.is_dram(addr):
        return controller.dram.load(addr)
    return controller.nvm.load(addr)


def reference_store(controller, addr, value):
    if controller.address_space.is_nvm(addr):
        if controller.on_nontx_nvm_store is not None:
            controller.on_nontx_nvm_store(addr)
        entry = controller.dram_cache.lookup(line_of(addr))
        if entry is not None:
            entry.words[addr] = value
            return
        controller.nvm.store(addr, value)
        return
    if controller.address_space.is_dram(addr):
        controller.dram.store(addr, value)
        return
    controller.nvm.store(addr, value)


def state(controller, stored):
    cache = controller.dram_cache
    entries = {
        line: (dict(entry.words), entry.lru_seq)
        for line, entry in cache._entries.items()
    }
    return (
        controller.dram.clone_contents(),
        controller.nvm.clone_contents(),
        list(cache._entries),
        entries,
        cache.hits,
        list(stored),
    )


def nvm_base(controller):
    return controller.address_space.nvm_heap.base


def dram_base(controller):
    return controller.address_space.dram_heap.base


def resident(controller, word_present):
    """An NVM address whose line sits in the DRAM cache, with or without
    the word itself in the cached entry."""
    line = nvm_base(controller) + 4096
    other = line + 8
    controller.nvm.store(line, 5)
    controller.dram_cache.fill(line, {other: 9}, tx_id=1, committed=True)
    # A second, older entry so an LRU refresh is visible in the order.
    controller.dram_cache.fill(line + 64, {line + 64: 3}, tx_id=1, committed=True)
    return other if word_present else line


CASES = {
    "dram": lambda c: dram_base(c) + 128,
    "dram_unaligned": lambda c: dram_base(c) + 131,
    "nvm_resident_word_present": lambda c: resident(c, True),
    "nvm_resident_word_absent": lambda c: resident(c, False),
    "nvm_not_resident": lambda c: nvm_base(c) + 256,
    "out_of_range_low": lambda c: DRAM_BASE - 64,
    "out_of_range_high": lambda c: c.address_space.nvm_end + 64,
}


@pytest.mark.parametrize("case", sorted(CASES))
class TestEquivalence:
    def test_load_word(self, case):
        (fast, fast_stored), (ref, ref_stored) = make(), make()
        addr_fast, addr_ref = CASES[case](fast), CASES[case](ref)
        assert addr_fast == addr_ref
        fast.store_word(addr_fast, 77)
        reference_store(ref, addr_ref, 77)
        assert fast.load_word(addr_fast) == reference_load(ref, addr_ref) == 77
        # Unwritten neighbour words read as zero through both paths.
        assert fast.load_word(addr_fast + 512) == reference_load(ref, addr_ref + 512)
        assert state(fast, fast_stored) == state(ref, ref_stored)

    def test_store_word(self, case):
        (fast, fast_stored), (ref, ref_stored) = make(), make()
        addr = CASES[case](fast)
        CASES[case](ref)
        fast.store_word(addr, 41)
        reference_store(ref, addr, 41)
        fast.store_word(addr, 42)
        reference_store(ref, addr, 42)
        assert state(fast, fast_stored) == state(ref, ref_stored)


class TestSideEffects:
    def test_nvm_load_refreshes_dram_cache_lru(self):
        controller, _ = make()
        addr = resident(controller, True)
        cache = controller.dram_cache
        entry = cache._entries[line_of(addr)]
        before_seq, before_hits = entry.lru_seq, cache.hits
        assert list(cache._entries)[-1] != line_of(addr)
        assert controller.load_word(addr) == 9
        assert entry.lru_seq > before_seq
        assert cache.hits == before_hits + 1
        assert list(cache._entries)[-1] == line_of(addr)

    def test_nontx_nvm_store_hook_fires(self):
        controller, stored = make()
        resident_addr = resident(controller, True)
        plain = nvm_base(controller) + 256
        controller.store_word(resident_addr, 1)
        controller.store_word(plain, 2)
        controller.store_word(dram_base(controller), 3)
        assert stored == [resident_addr, plain]

    def test_dram_store_rejects_non_int(self):
        controller, _ = make()
        with pytest.raises(AddressError):
            controller.store_word(dram_base(controller), "x")
        with pytest.raises(AddressError):
            controller.dram.store(dram_base(controller), "x")

    def test_in_place_nvm_store_is_seen_by_wear_tracker(self):
        controller, _ = make()
        tracker = WearTracker().attach(controller)
        controller.store_word(nvm_base(controller) + 256, 1)
        controller.store_word(dram_base(controller), 1)
        assert tracker.total_line_writes == 1
        tracker.detach()
