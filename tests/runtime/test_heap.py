"""Tests for the transactional heap."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.mem.address import MemoryKind
from repro.mem.controller import MemoryController
from repro.params import LINE_SIZE, LatencyConfig, MemoryConfig
from repro.runtime.heap import TxHeap


@pytest.fixture
def heap():
    return TxHeap(MemoryController(MemoryConfig(), LatencyConfig()))


class TestTxHeap:
    def test_alloc_in_correct_region(self, heap):
        dram = heap.alloc(64, MemoryKind.DRAM)
        nvm = heap.alloc(64, MemoryKind.NVM)
        space = heap.controller.address_space
        assert space.is_dram(dram)
        assert space.is_nvm(nvm)
        assert not space.is_log(dram)
        assert not space.is_log(nvm)

    def test_alloc_words(self, heap):
        addr = heap.alloc_words(3, MemoryKind.DRAM)
        assert addr % LINE_SIZE == 0

    def test_alloc_words_rejects_nonpositive(self, heap):
        with pytest.raises(ConfigError):
            heap.alloc_words(0, MemoryKind.DRAM)

    def test_free_and_reuse(self, heap):
        addr = heap.alloc_words(8, MemoryKind.NVM)
        heap.free_words(addr, 8, MemoryKind.NVM)
        assert heap.alloc_words(8, MemoryKind.NVM) == addr

    def test_allocator_accessor(self, heap):
        assert heap.allocator(MemoryKind.DRAM) is not heap.allocator(
            MemoryKind.NVM
        )
