"""The Hybrid-Index key-value store (HiKV style, Table IV).

"The Hybrid-Index key-value store maintains two separate indexes, one for
DRAM (e.g., B-Tree) and another for NVM (e.g., HashMap) while data are only
stored in NVM."  A put updates the NVM record payload, the NVM hash index,
and the DRAM B-tree index in one transaction — the canonical hybrid
transaction whose DRAM and NVM sides must stay mutually consistent (the
paper's Figure 1).  Scans use the DRAM B-tree; gets use the NVM hash table.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from ..mem.address import MemoryKind
from .base import PayloadPool, Workload, WorkloadParams, write_payload
from .btree import TxBTree
from .hashmap import TxHashMap


class HybridIndexWorkload(Workload):
    """Insert/update in a KV-store with DRAM + NVM indexes [63]."""

    name = "hybrid_index"

    def __init__(self, system, process, params: WorkloadParams) -> None:
        super().__init__(system, process, params)
        self.btree_index: Optional[TxBTree] = None  # DRAM: accelerates scans
        self.hash_index: Optional[TxHashMap] = None  # NVM: put/get/update
        self.pool: Optional[PayloadPool] = None  # NVM record payloads
        #: Fraction of transactions that are B-tree range scans.
        self.scan_ratio = 0.1

    def setup(self) -> None:
        heap = self.system.heap
        self.btree_index = TxBTree.create(heap, self.raw, MemoryKind.DRAM)
        self.hash_index = TxHashMap.create(
            heap,
            self.raw,
            MemoryKind.NVM,
            nbuckets=max(64, self.params.keys // 4),
        )
        self.pool = PayloadPool(
            self.system, self.params.keys, self.value_bytes, MemoryKind.NVM
        )
        for key in range(self.params.initial_fill):
            record = self.pool.block_for(key)
            self.hash_index.insert(self.raw, key, record)
            self.btree_index.insert(self.raw, key, record)

    def thread_bodies(self) -> List[Callable]:
        return [self._make_body(i) for i in range(self.params.threads)]

    def _make_body(self, thread_index: int) -> Callable:
        rng = self.system.rng.fork(
            self.process.pid * 977 + thread_index
        ).stream("hybrid_ops")

        def body(api) -> Generator[None, None, None]:
            keys = self.key_stream(thread_index)
            for tx_index in range(self.params.txs_per_thread):
                if rng.random() < self.scan_ratio:
                    lo = rng.randrange(max(1, self.params.initial_fill))

                    def scan_work(tx, lo=lo):
                        # Scans go through the DRAM B-tree (the whole point
                        # of keeping it); touch each record header too.
                        for _, record in self.btree_index.scan(tx, lo, lo + 16):
                            tx.read_word(record)
                            yield

                    yield from api.run_transaction(scan_work, ops=1)
                    continue
                batch = [next(keys) for _ in range(self.params.ops_per_tx)]

                def put_work(tx, batch=batch, tag=tx_index + 1):
                    for key in batch:
                        record = self.pool.block_for(key)
                        yield from write_payload(
                            tx, record, self.value_bytes, tag
                        )
                        self.hash_index.insert(tx, key, record)
                        self.btree_index.insert(tx, key, record)
                        yield

                yield from api.run_transaction(put_work, ops=len(batch))

        return body

    def verify(self) -> bool:
        """Both indexes are intact and agree key for key, value for value.

        One walk per index: each integrity check makes its keys unique (and
        every key reachable by its ``get``), so comparing the two as dicts
        loses nothing.
        """
        hash_items = self.hash_index.verified_items(self.raw)
        if hash_items is None:
            return False
        btree_items = self.btree_index.verified_items(self.raw)
        if btree_items is None:
            return False
        return dict(hash_items) == dict(btree_items)
