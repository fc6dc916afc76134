"""The Dual key-value store (cross-referencing-log style, Table IV).

"[It] maintains two identical data structures (e.g., HashMap) and stores one
in DRAM and another in NVM.  The foreground threads handle user requests and
deal with the DRAM data structure.  The foreground and background threads
communicate through cross-referencing logs that operate similar to a
producer-consumer model.  The backend threads keep data structures in DRAM
and NVM consistent."

Foreground transactions touch only DRAM; background transactions only NVM;
the cross-referencing log itself is out-of-transactions (modelled as a
Python deque whose traffic is charged a nominal per-record cost), which is
why the paper observes low *aggregate* transactional footprints and low
overflow rates for this benchmark.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generator, List, Optional, Tuple

from ..mem.address import MemoryKind
from .base import PayloadPool, Workload, WorkloadParams, write_payload
from .hashmap import TxHashMap

#: Nominal cost of one cross-referencing-log append/pop (a couple of
#: uncontended DRAM accesses, out of any transaction).
_CRL_RECORD_NS = 200.0


class DualKVWorkload(Workload):
    """Insert/update in a KV-store with mirrored DRAM and NVM stores [23]."""

    name = "dual_kv"

    def __init__(self, system, process, params: WorkloadParams) -> None:
        super().__init__(system, process, params)
        self.dram_map: Optional[TxHashMap] = None
        self.nvm_map: Optional[TxHashMap] = None
        self.dram_pool: Optional[PayloadPool] = None
        self.nvm_pool: Optional[PayloadPool] = None
        #: The cross-referencing log: (key, tag) records awaiting replay.
        self.crl: Deque[Tuple[int, int]] = deque()
        self._foreground_done = 0
        self._foreground_total = 0

    def setup(self) -> None:
        heap = self.system.heap
        nbuckets = max(64, self.params.keys // 4)
        self.dram_map = TxHashMap.create(
            heap, self.raw, MemoryKind.DRAM, nbuckets=nbuckets
        )
        self.nvm_map = TxHashMap.create(
            heap, self.raw, MemoryKind.NVM, nbuckets=nbuckets
        )
        self.dram_pool = PayloadPool(
            self.system, self.params.keys, self.value_bytes, MemoryKind.DRAM
        )
        self.nvm_pool = PayloadPool(
            self.system, self.params.keys, self.value_bytes, MemoryKind.NVM
        )
        for key in range(self.params.initial_fill):
            self.dram_map.insert(self.raw, key, self.dram_pool.block_for(key))
            self.nvm_map.insert(self.raw, key, self.nvm_pool.block_for(key))

    def thread_bodies(self) -> List[Callable]:
        """Half the threads are foreground, half background (min one each)."""
        foreground = max(1, self.params.threads // 2)
        background = max(1, self.params.threads - foreground)
        self._foreground_total = foreground
        bodies = [
            self._make_foreground(i) for i in range(foreground)
        ]
        bodies.extend(self._make_background(i) for i in range(background))
        return bodies

    def _make_foreground(self, thread_index: int) -> Callable:
        def body(api) -> Generator[None, None, None]:
            keys = self.key_stream(thread_index)
            for tx_index in range(self.params.txs_per_thread):
                # Foreground transactions are individual user requests
                # (one put each); only the background replay batches.  This
                # is why the paper sees "low aggregated footprints of
                # active transactions" for this store.
                batch = [next(keys) for _ in range(self.params.ops_per_tx)]
                for key in batch:
                    def work(tx, key=key, tag=tx_index + 1):
                        payload = self.dram_pool.block_for(key)
                        yield from write_payload(
                            tx, payload, self.value_bytes, tag
                        )
                        self.dram_map.insert(tx, key, payload)

                    yield from api.run_transaction(work, ops=1)
                    # Publish to the cross-referencing log, out-of-tx.
                    self.crl.append((key, tx_index + 1))
                    api.charge(_CRL_RECORD_NS)
            self._foreground_done += 1

        return body

    def _make_background(self, thread_index: int) -> Callable:
        def body(api) -> Generator[None, None, None]:
            idle_spins = 0
            while True:
                if not self.crl:
                    if self._foreground_done >= self._foreground_total:
                        return
                    idle_spins += 1
                    api.charge(_CRL_RECORD_NS)
                    yield
                    continue
                idle_spins = 0
                batch: List[Tuple[int, int]] = []
                while self.crl and len(batch) < self.params.ops_per_tx:
                    batch.append(self.crl.popleft())
                    api.charge(_CRL_RECORD_NS)

                def work(tx, batch=batch):
                    for key, tag in batch:
                        payload = self.nvm_pool.block_for(key)
                        yield from write_payload(
                            tx, payload, self.value_bytes, tag
                        )
                        self.nvm_map.insert(tx, key, payload)
                        yield

                yield from api.run_transaction(work, ops=len(batch))

        return body

    def verify(self) -> bool:
        """Both maps intact, the NVM map caught up with the DRAM map.

        The maps hold different payload blocks (one pool per medium), so
        they must agree on keys only.  One walk per map: each integrity
        check makes its keys unique, so comparing key sets loses nothing.
        """
        if self.crl:
            return False  # background threads must drain the log
        dram_items = self.dram_map.verified_items(self.raw)
        if dram_items is None:
            return False
        nvm_items = self.nvm_map.verified_items(self.raw)
        if nvm_items is None:
            return False
        return dict(dram_items).keys() == dict(nvm_items).keys()
