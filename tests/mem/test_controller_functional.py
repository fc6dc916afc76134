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


# -- bulk store --------------------------------------------------------------


def make_tracked():
    controller, stored = make()
    # Words already in both stores, so the bulk store must keep their
    # positions in the backing dicts exactly as per-word stores do.
    controller.dram.store(dram_base(controller) + 8, 1)
    controller.nvm.store(nvm_base(controller) + 264, 1)
    return controller, stored, WearTracker().attach(controller)


def ordered_state(controller, stored, tracker):
    return (
        list(controller.dram.words()),
        list(controller.nvm.words()),
        state(controller, stored),
        dict(tracker.line_writes),
        tracker.payload_bytes,
    )


def words_resident(c):
    addr = resident(c, True)
    return {addr: 10, line_of(addr): 11, nvm_base(c) + 256: 12}


def words_dram_and_nvm(c):
    return {
        nvm_base(c) + 256: 20,
        dram_base(c) + 16: 21,
        nvm_base(c) + 264: 22,
        dram_base(c) + 8: 23,
        nvm_base(c) + 128: 24,
    }


def words_out_of_range(c):
    return {
        DRAM_BASE - 64: 30,
        nvm_base(c) + 256: 31,
        c.address_space.nvm_end + 64: 32,
    }


BULK_CASES = {
    "nvm_resident": words_resident,
    "dram_and_nvm": words_dram_and_nvm,
    "out_of_range": words_out_of_range,
}


class TestStoreWords:
    @pytest.mark.parametrize("case", sorted(BULK_CASES))
    def test_matches_store_word_per_item(self, case):
        bulk, bulk_stored, bulk_tracker = make_tracked()
        each, each_stored, each_tracker = make_tracked()
        words = BULK_CASES[case](bulk)
        assert words == BULK_CASES[case](each)
        bulk.store_words(words)
        for addr, value in words.items():
            each.store_word(addr, value)
        assert ordered_state(bulk, bulk_stored, bulk_tracker) == ordered_state(
            each, each_stored, each_tracker
        )

    def test_in_place_nvm_words_land_in_one_store_line(self):
        controller, _, tracker = make_tracked()
        calls = []
        store_line = controller.nvm.store_line

        def recording_store_line(words):
            calls.append(list(words))
            store_line(words)

        controller.nvm.store_line = recording_store_line
        words = words_dram_and_nvm(controller)
        controller.store_words(words)
        nvm_addrs = [a for a in words if controller.address_space.is_nvm(a)]
        assert calls == [nvm_addrs]
        assert tracker.payload_bytes == 8 * len(nvm_addrs)

    @pytest.mark.parametrize("where", ["dram", "nvm"])
    def test_rejects_non_int_value_naming_the_address(self, where):
        controller, _ = make()
        addr = dram_base(controller) if where == "dram" else nvm_base(controller)
        with pytest.raises(AddressError, match=f"{addr:#x}"):
            controller.store_words({addr: "x"})

    @pytest.mark.parametrize("where", ["dram", "nvm"])
    def test_rejects_unaligned_address_naming_it(self, where):
        controller, _ = make()
        addr = (dram_base(controller) if where == "dram" else nvm_base(controller)) + 3
        with pytest.raises(AddressError, match=f"{addr:#x}"):
            controller.store_words({addr: 1})

    def test_items_before_a_bad_one_are_stored(self):
        bulk, bulk_stored, bulk_tracker = make_tracked()
        each, each_stored, each_tracker = make_tracked()
        good = words_dram_and_nvm(bulk)
        bad_addr = dram_base(bulk) + 5
        words = {**good, bad_addr: 1, nvm_base(bulk) + 512: 2}
        with pytest.raises(AddressError, match=f"{bad_addr:#x}"):
            bulk.store_words(words)
        for addr, value in good.items():
            each.store_word(addr, value)
        assert ordered_state(bulk, bulk_stored, bulk_tracker) == ordered_state(
            each, each_stored, each_tracker
        )
