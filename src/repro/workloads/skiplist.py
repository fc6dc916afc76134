"""A transactional skip list (PMDK ``skiplist_map`` equivalent).

Probabilistic towers with deterministic per-structure level selection.  The
long horizontal traversals at low levels are why the paper observes many
signature false positives on SkipList ("UHTM ends up with many
false-positives while SkipList traverse the list").
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Set, Tuple, TYPE_CHECKING

from ..errors import CorruptStructureError
from ..mem.address import MemoryKind
from ..params import WORD_SIZE
from ..runtime.txapi import MemoryContext
from ..sim.rng import RngStreams
from .base import PayloadPool, Workload, WorkloadParams, write_payload

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.heap import TxHeap

_MAX_LEVEL = 8

# Node layout (words): key, value, level, next[0.._MAX_LEVEL).  Field
# constants are byte offsets from the node's base; the level-``l`` next
# pointer is at ``_N_NEXT + l * WORD_SIZE``.
_N_KEY = 0 * WORD_SIZE
_N_VALUE = 1 * WORD_SIZE
_N_LEVEL = 2 * WORD_SIZE
_N_NEXT = 3 * WORD_SIZE
_NODE_WORDS = _N_NEXT // WORD_SIZE + _MAX_LEVEL

#: Sentinel key of the head tower (smaller than every real key).
_HEAD_KEY = -(2**62)


class TxSkipList:
    """A skip list over the transactional heap."""

    def __init__(
        self, heap: "TxHeap", base: int, kind: MemoryKind, seed: int = 1
    ) -> None:
        self.heap = heap
        self.base = base  # address of the head tower
        self.kind = kind
        self._levels = RngStreams(seed).stream("skiplist.levels")

    @classmethod
    def create(
        cls, heap: "TxHeap", ctx: MemoryContext, kind: MemoryKind, seed: int = 1
    ) -> "TxSkipList":
        head = heap.alloc_words(_NODE_WORDS, kind)
        ctx.write_word(head + _N_KEY, _HEAD_KEY)
        ctx.write_word(head + _N_VALUE, 0)
        ctx.write_word(head + _N_LEVEL, _MAX_LEVEL)
        for level in range(_MAX_LEVEL):
            ctx.write_word(head + _N_NEXT + level * WORD_SIZE, 0)
        return cls(heap, head, kind, seed)

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._levels.random() < 0.5:
            level += 1
        return level

    def _descend(self, ctx: MemoryContext, key: int) -> List[int]:
        """Per level, the last node whose key is below ``key``."""
        read = ctx.read_word
        update = [self.base] * _MAX_LEVEL
        node = self.base
        for level in range(_MAX_LEVEL - 1, -1, -1):
            offset = _N_NEXT + level * WORD_SIZE
            while True:
                nxt = read(node + offset)
                if nxt == 0 or read(nxt + _N_KEY) >= key:
                    break
                node = nxt
            update[level] = node
        return update

    # -- operations ---------------------------------------------------------------

    def get(self, ctx: MemoryContext, key: int) -> Optional[int]:
        read = ctx.read_word
        node = self.base
        for level in range(_MAX_LEVEL - 1, -1, -1):
            offset = _N_NEXT + level * WORD_SIZE
            while True:
                nxt = read(node + offset)
                if nxt == 0 or read(nxt + _N_KEY) > key:
                    break
                node = nxt
        if node != self.base and read(node + _N_KEY) == key:
            return read(node + _N_VALUE)
        return None

    def insert(self, ctx: MemoryContext, key: int, value: int) -> bool:
        read = ctx.read_word
        write = ctx.write_word
        update = self._descend(ctx, key)
        candidate = read(update[0] + _N_NEXT)
        if candidate != 0 and read(candidate + _N_KEY) == key:
            write(candidate + _N_VALUE, value)
            return False
        level = self._random_level()
        fresh = self.heap.alloc_words(_NODE_WORDS, self.kind)
        write(fresh + _N_KEY, key)
        write(fresh + _N_VALUE, value)
        write(fresh + _N_LEVEL, level)
        for l in range(level):
            offset = _N_NEXT + l * WORD_SIZE
            prev = update[l]
            write(fresh + offset, read(prev + offset))
            write(prev + offset, fresh)
        for l in range(level, _MAX_LEVEL):
            write(fresh + _N_NEXT + l * WORD_SIZE, 0)
        return True

    def delete(self, ctx: MemoryContext, key: int) -> bool:
        """Unlink ``key`` from every level it appears on."""
        read = ctx.read_word
        update = self._descend(ctx, key)
        victim = read(update[0] + _N_NEXT)
        if victim == 0 or read(victim + _N_KEY) != key:
            return False
        level = read(victim + _N_LEVEL)
        for l in range(level):
            offset = _N_NEXT + l * WORD_SIZE
            prev = update[l]
            if read(prev + offset) == victim:
                ctx.write_word(prev + offset, read(victim + offset))
        self.heap.free_words(victim, _NODE_WORDS, self.kind)
        return True

    # -- verification ----------------------------------------------------------------

    def items(self, ctx: MemoryContext) -> List[Tuple[int, int]]:
        """Every ``(key, value)`` pair, in level-0 order.

        Raises :class:`CorruptStructureError` on revisiting a node, so a
        level-0 cycle ends the walk instead of growing it without bound.
        """
        read = ctx.read_word
        out: List[Tuple[int, int]] = []
        seen: Set[int] = set()
        node = read(self.base + _N_NEXT)
        while node != 0:
            if node in seen:
                raise CorruptStructureError(f"skip-list cycle at {node:#x}")
            seen.add(node)
            out.append((read(node + _N_KEY), read(node + _N_VALUE)))
            node = read(node + _N_NEXT)
        return out

    def keys(self, ctx: MemoryContext) -> List[int]:
        return [key for key, _ in self.items(ctx)]

    def check_integrity(self, ctx: MemoryContext) -> bool:
        """Level-0 order is strict; every level is a subsequence of level 0."""
        try:
            keys = self.keys(ctx)
        except CorruptStructureError:
            return False
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return False
        read = ctx.read_word
        base_set = set(keys)
        for level in range(1, _MAX_LEVEL):
            offset = _N_NEXT + level * WORD_SIZE
            node = read(self.base + offset)
            previous = _HEAD_KEY
            # Keys must rise strictly along a level, so a cycle here fails
            # the order check instead of looping.
            while node != 0:
                key = read(node + _N_KEY)
                if key <= previous or key not in base_set:
                    return False
                if read(node + _N_LEVEL) <= level:
                    return False
                previous = key
                node = read(node + offset)
        return True


class SkipListWorkload(Workload):
    """Insert/update entries in a skip list (Table IV, SkipList [25])."""

    name = "skiplist"

    def __init__(self, system, process, params: WorkloadParams) -> None:
        super().__init__(system, process, params)
        self.list: Optional[TxSkipList] = None
        self.pool: Optional[PayloadPool] = None

    def setup(self) -> None:
        self.list = TxSkipList.create(
            self.system.heap, self.raw, self.params.kind,
            seed=self.system.rng.seed + self.process.pid,
        )
        self.pool = PayloadPool(
            self.system, self.params.keys, self.value_bytes, self.params.kind
        )
        for key in range(self.params.initial_fill):
            self.list.insert(self.raw, key, self.pool.block_for(key))

    def thread_bodies(self) -> List[Callable]:
        return [self._make_body(i) for i in range(self.params.threads)]

    def _make_body(self, thread_index: int) -> Callable:
        def body(api) -> Generator[None, None, None]:
            keys = self.key_stream(thread_index)
            for tx_index in range(self.params.txs_per_thread):
                batch = [next(keys) for _ in range(self.params.ops_per_tx)]

                def work(tx, batch=batch, tag=tx_index + 1):
                    for key in batch:
                        payload = self.pool.block_for(key)
                        yield from write_payload(
                            tx, payload, self.value_bytes, tag
                        )
                        self.list.insert(tx, key, payload)
                        yield

                yield from api.run_transaction(work, ops=len(batch))

        return body

    def verify(self) -> bool:
        return self.list.check_integrity(self.raw)
