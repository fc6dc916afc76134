"""A word-addressable heap over the DRAM and NVM heap regions.

Workload data structures allocate nodes and payload blocks here and then
access them *only* through a memory context (transactional or not), so every
touched word produces the cache/HTM events the simulator measures.

Allocation itself is modelled as non-transactional runtime bookkeeping (the
PMDK pool allocator's metadata traffic is out of scope): an aborted
transaction's fresh allocations are simply re-allocated on retry.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..mem.address import MemoryKind
from ..mem.allocator import RegionAllocator
from ..mem.controller import MemoryController
from ..params import WORD_SIZE


class TxHeap:
    """Region allocators for both memory kinds."""

    def __init__(self, controller: MemoryController) -> None:
        space = controller.address_space
        self._allocators = {
            MemoryKind.DRAM: RegionAllocator(space.dram_heap),
            MemoryKind.NVM: RegionAllocator(space.nvm_heap),
        }
        self.controller = controller

    def allocator(self, kind: MemoryKind) -> RegionAllocator:
        return self._allocators[kind]

    def alloc(self, nbytes: int, kind: MemoryKind) -> int:
        """Allocate ``nbytes`` (line-aligned) in the given medium."""
        return self._allocators[kind].alloc(nbytes)

    def alloc_words(self, nwords: int, kind: MemoryKind) -> int:
        if nwords <= 0:
            raise ConfigError(f"nwords must be positive, got {nwords}")
        return self.alloc(nwords * WORD_SIZE, kind)

    def free(self, addr: int, nbytes: int, kind: MemoryKind) -> None:
        self._allocators[kind].free(addr, nbytes)

    def free_words(self, addr: int, nwords: int, kind: MemoryKind) -> None:
        self.free(addr, nwords * WORD_SIZE, kind)
