"""Verification power of the hybrid KV stores' ``verify()``.

Each test starts from a freshly pre-filled store whose ``verify()`` holds,
applies one mutation through the raw context, and requires ``verify()`` to
catch it.  Together they pin what the check promises: both structures
intact, keys unique, and the two indexes agreeing key for key (and, for
Hybrid-Index, value for value).
"""

from __future__ import annotations

import pytest

from repro import HTMConfig, MachineConfig, System
from repro.params import WORD_SIZE
from repro.workloads import DualKVWorkload, HybridIndexWorkload, WorkloadParams
from repro.workloads import hashmap
from repro.workloads.hashmap import TxHashMap

FILL = 32


def prefilled(workload_cls):
    system = System(MachineConfig.scaled(1 / 64, cores=4), HTMConfig(), seed=3)
    params = WorkloadParams(
        threads=4, txs_per_thread=4, value_bytes=16 << 10,
        keys=128, initial_fill=FILL,
    )
    workload = workload_cls(system, system.process("kv"), params)
    workload.setup()
    assert workload.verify()
    return workload


def splice_duplicate(table: TxHashMap, ctx, key: int, value: int) -> None:
    """Push a second node for ``key`` onto the head of its own chain."""
    slot = table._bucket_slot(ctx, key)
    node = table.heap.alloc_words(hashmap._NODE_WORDS, table.kind)
    ctx.write_word(node + hashmap._N_KEY, key)
    ctx.write_word(node + hashmap._N_VALUE, value)
    ctx.write_word(node + hashmap._N_NEXT, ctx.read_word(slot))
    ctx.write_word(slot, node)


class TestHybridIndexVerify:
    def test_btree_value_differs_from_hash_value(self):
        workload = prefilled(HybridIndexWorkload)
        key = FILL // 2
        workload.btree_index.insert(workload.raw, key, workload.pool.block_for(key + 1))
        assert not workload.verify()

    def test_hash_value_differs_from_btree_value(self):
        workload = prefilled(HybridIndexWorkload)
        workload.hash_index.insert(workload.raw, 0, workload.pool.block_for(1))
        assert not workload.verify()

    def test_key_only_in_hash_index(self):
        workload = prefilled(HybridIndexWorkload)
        workload.hash_index.insert(workload.raw, FILL, workload.pool.block_for(FILL))
        assert not workload.verify()

    def test_key_only_in_btree_index(self):
        workload = prefilled(HybridIndexWorkload)
        workload.btree_index.insert(workload.raw, FILL, workload.pool.block_for(FILL))
        assert not workload.verify()

    def test_key_missing_from_hash_index(self):
        workload = prefilled(HybridIndexWorkload)
        assert workload.hash_index.delete(workload.raw, 3)
        assert not workload.verify()

    @pytest.mark.parametrize("same_value", [True, False])
    def test_duplicate_key_in_hash_chain(self, same_value):
        workload = prefilled(HybridIndexWorkload)
        key = 5
        record = workload.pool.block_for(key)
        value = record if same_value else record + WORD_SIZE
        splice_duplicate(workload.hash_index, workload.raw, key, value)
        assert not workload.verify()


class TestDualKVVerify:
    def test_nvm_map_lagging_dram_map(self):
        workload = prefilled(DualKVWorkload)
        key = FILL
        workload.dram_map.insert(
            workload.raw, key, workload.dram_pool.block_for(key)
        )
        assert not workload.verify()

    def test_nvm_map_missing_a_key(self):
        workload = prefilled(DualKVWorkload)
        assert workload.nvm_map.delete(workload.raw, 7)
        assert not workload.verify()

    def test_non_empty_cross_referencing_log(self):
        workload = prefilled(DualKVWorkload)
        workload.crl.append((0, 1))
        assert not workload.verify()

    @pytest.mark.parametrize("side", ["dram_map", "nvm_map"])
    def test_duplicate_key_in_either_map(self, side):
        workload = prefilled(DualKVWorkload)
        splice_duplicate(getattr(workload, side), workload.raw, 2, 0)
        assert not workload.verify()
