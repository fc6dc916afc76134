"""A transactional chained hash map (PMDK ``hashmap_tx`` equivalent)."""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Tuple, TYPE_CHECKING

from ..errors import CorruptStructureError
from ..mem.address import MemoryKind
from ..params import WORD_SIZE
from ..runtime.txapi import MemoryContext
from .base import PayloadPool, Workload, WorkloadParams, write_payload

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.heap import TxHeap

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# Field constants are byte offsets from an object's base address.
# Header layout (words): bucket-array pointer, bucket count, element count.
_H_BUCKETS = 0 * WORD_SIZE
_H_NBUCKETS = 1 * WORD_SIZE
_H_SIZE = 2 * WORD_SIZE
# Node layout (words): key, value, next pointer.
_N_KEY = 0 * WORD_SIZE
_N_VALUE = 1 * WORD_SIZE
_N_NEXT = 2 * WORD_SIZE
_NODE_WORDS = 3


class TxHashMap:
    """A fixed-bucket chained hash table over the transactional heap."""

    def __init__(self, heap: "TxHeap", base: int, kind: MemoryKind) -> None:
        self.heap = heap
        self.base = base
        self.kind = kind

    @classmethod
    def create(
        cls, heap: "TxHeap", ctx: MemoryContext, kind: MemoryKind, nbuckets: int = 64
    ) -> "TxHashMap":
        base = heap.alloc_words(4, kind)
        buckets = heap.alloc_words(nbuckets, kind)
        ctx.write_word(base + _H_BUCKETS, buckets)
        ctx.write_word(base + _H_NBUCKETS, nbuckets)
        ctx.write_word(base + _H_SIZE, 0)
        for i in range(nbuckets):
            ctx.write_word(buckets + i * WORD_SIZE, 0)
        return cls(heap, base, kind)

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _hash(key: int) -> int:
        return ((key * _GOLDEN) & _MASK64) >> 32

    def _bucket_slot(self, ctx: MemoryContext, key: int) -> int:
        buckets = ctx.read_word(self.base + _H_BUCKETS)
        nbuckets = ctx.read_word(self.base + _H_NBUCKETS)
        return buckets + (self._hash(key) % nbuckets) * WORD_SIZE

    # -- operations ------------------------------------------------------------

    def insert(self, ctx: MemoryContext, key: int, value: int) -> bool:
        """Insert or update; returns True if the key was new."""
        read = ctx.read_word
        write = ctx.write_word
        slot = self._bucket_slot(ctx, key)
        node = read(slot)
        while node != 0:
            if read(node + _N_KEY) == key:
                write(node + _N_VALUE, value)
                return False
            node = read(node + _N_NEXT)
        fresh = self.heap.alloc_words(_NODE_WORDS, self.kind)
        write(fresh + _N_KEY, key)
        write(fresh + _N_VALUE, value)
        write(fresh + _N_NEXT, read(slot))
        write(slot, fresh)
        return True

    def get(self, ctx: MemoryContext, key: int) -> Optional[int]:
        read = ctx.read_word
        node = read(self._bucket_slot(ctx, key))
        while node != 0:
            if read(node + _N_KEY) == key:
                return read(node + _N_VALUE)
            node = read(node + _N_NEXT)
        return None

    def delete(self, ctx: MemoryContext, key: int) -> bool:
        read = ctx.read_word
        slot = self._bucket_slot(ctx, key)
        node = read(slot)
        prev_slot = slot
        while node != 0:
            next_node = read(node + _N_NEXT)
            if read(node + _N_KEY) == key:
                ctx.write_word(prev_slot, next_node)
                self.heap.free_words(node, _NODE_WORDS, self.kind)
                return True
            prev_slot = node + _N_NEXT
            node = next_node
        return False

    # -- verification ----------------------------------------------------------

    def items(self, ctx: MemoryContext) -> List[Tuple[int, int]]:
        """Every ``(key, value)`` pair, bucket by bucket.

        Raises :class:`CorruptStructureError` on revisiting a node (a chain
        cycle, which would otherwise never end the walk) or on a key outside
        the bucket its hash selects (which :meth:`get` could never find).
        """
        read = ctx.read_word
        buckets = read(self.base + _H_BUCKETS)
        nbuckets = read(self.base + _H_NBUCKETS)
        hash_ = self._hash
        seen = set()
        out: List[Tuple[int, int]] = []
        for bucket in range(nbuckets):
            node = read(buckets + bucket * WORD_SIZE)
            while node != 0:
                if node in seen:
                    raise CorruptStructureError(f"hash chain cycle at {node:#x}")
                seen.add(node)
                key = read(node + _N_KEY)
                if hash_(key) % nbuckets != bucket:
                    raise CorruptStructureError(
                        f"key {key} chained in bucket {bucket}"
                    )
                out.append((key, read(node + _N_VALUE)))
                node = read(node + _N_NEXT)
        return out

    def keys(self, ctx: MemoryContext) -> List[int]:
        """All keys (test/verification helper), bucket by bucket."""
        return [key for key, _ in self.items(ctx)]

    def size(self, ctx: MemoryContext) -> int:
        """Element count, by walking (a transactional global counter would
        be a write hotspot serialising every insert)."""
        return len(self.items(ctx))

    def verified_items(self, ctx: MemoryContext) -> Optional[List[Tuple[int, int]]]:
        """:meth:`items` if the map is intact, else ``None`` — one walk.

        Intact means: chains are acyclic, every key sits in the bucket its
        hash selects (so :meth:`get` finds every stored key), and keys are
        unique.
        """
        try:
            items = self.items(ctx)
        except CorruptStructureError:
            return None
        if len(items) != len(dict(items)):
            return None
        return items

    def check_integrity(self, ctx: MemoryContext) -> bool:
        return self.verified_items(ctx) is not None


class HashMapWorkload(Workload):
    """Insert/update entries in a hash table (Table IV, HashMap [25])."""

    name = "hashmap"

    def __init__(self, system, process, params: WorkloadParams) -> None:
        super().__init__(system, process, params)
        self.map: Optional[TxHashMap] = None
        self.pool: Optional[PayloadPool] = None

    def setup(self) -> None:
        self.map = TxHashMap.create(
            self.system.heap,
            self.raw,
            self.params.kind,
            nbuckets=max(64, self.params.keys // 4),
        )
        self.pool = PayloadPool(
            self.system, self.params.keys, self.value_bytes, self.params.kind
        )
        for key in range(self.params.initial_fill):
            self.map.insert(self.raw, key, self.pool.block_for(key))

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
                        self.map.insert(tx, key, payload)
                        yield

                yield from api.run_transaction(work, ops=len(batch))

        return body

    def verify(self) -> bool:
        return self.map.check_integrity(self.raw)
