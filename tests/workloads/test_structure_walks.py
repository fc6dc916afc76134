"""Structure walks stay finite on corrupted pointers.

A corrupted pointer used to make ``keys()``/``check_integrity()`` of the
heap data structures loop until the host ran out of memory.  Every walk
now remembers the nodes it has visited: ``items()`` raises
:class:`CorruptStructureError` on a revisit, and ``check_integrity()``
returns ``False``.  Each test splices a cycle (or another corruption the
walk can see) into an intact structure through the raw context.
"""

from __future__ import annotations

import pytest

from repro import HTMConfig, MachineConfig, System
from repro.errors import CorruptStructureError
from repro.mem.address import MemoryKind
from repro.params import WORD_SIZE
from repro.runtime.txapi import RawContext
from repro.workloads import btree, hashmap, rbtree, skiplist
from repro.workloads.btree import TxBTree
from repro.workloads.hashmap import TxHashMap
from repro.workloads.rbtree import TxRBTree
from repro.workloads.skiplist import TxSkipList

KEYS = 64


@pytest.fixture
def env():
    system = System(MachineConfig.scaled(1 / 64, cores=2), HTMConfig())
    return system.heap, RawContext(system.controller)


def filled(structure, ctx):
    for key in range(KEYS):
        structure.insert(ctx, key, 1000 + key)
    assert structure.check_integrity(ctx)
    return structure


def assert_corrupt(structure, ctx):
    with pytest.raises(CorruptStructureError):
        structure.items(ctx)
    with pytest.raises(CorruptStructureError):
        structure.keys(ctx)
    assert structure.check_integrity(ctx) is False


def hash_chain(table, ctx):
    """Nodes of the longest chain of ``table``, head first."""
    buckets = ctx.read_word(table.base + hashmap._H_BUCKETS)
    nbuckets = ctx.read_word(table.base + hashmap._H_NBUCKETS)
    best = []
    for bucket in range(nbuckets):
        chain = []
        node = ctx.read_word(buckets + bucket * WORD_SIZE)
        while node != 0:
            chain.append(node)
            node = ctx.read_word(node + hashmap._N_NEXT)
        best = max(best, chain, key=len)
    return best


@pytest.mark.parametrize("kind", [MemoryKind.DRAM, MemoryKind.NVM])
class TestCycles:
    def test_hashmap_chain_cycle(self, env, kind):
        heap, ctx = env
        table = filled(TxHashMap.create(heap, ctx, kind, nbuckets=4), ctx)
        chain = hash_chain(table, ctx)
        assert len(chain) >= 2
        ctx.write_word(chain[-1] + hashmap._N_NEXT, chain[0])
        assert_corrupt(table, ctx)

    def test_btree_child_cycle(self, env, kind):
        heap, ctx = env
        tree = filled(TxBTree.create(heap, ctx, kind), ctx)
        root = ctx.read_word(tree.base + btree._H_ROOT)
        assert ctx.read_word(root + btree._N_LEAF) == 0
        child = ctx.read_word(root + btree._N_CHILDREN)
        # Point the child's first slot back at the root; make it internal
        # so the walk follows the pointer.
        ctx.write_word(child + btree._N_LEAF, 0)
        ctx.write_word(child + btree._N_CHILDREN, root)
        assert_corrupt(tree, ctx)

    def test_btree_self_loop(self, env, kind):
        heap, ctx = env
        tree = filled(TxBTree.create(heap, ctx, kind), ctx)
        root = ctx.read_word(tree.base + btree._H_ROOT)
        ctx.write_word(root + btree._N_CHILDREN, root)
        assert_corrupt(tree, ctx)

    def test_rbtree_child_cycle(self, env, kind):
        heap, ctx = env
        tree = filled(TxRBTree.create(heap, ctx, kind), ctx)
        root = ctx.read_word(tree.base + rbtree._H_ROOT)
        node = root
        while ctx.read_word(node + rbtree._N_LEFT) != 0:
            node = ctx.read_word(node + rbtree._N_LEFT)
        ctx.write_word(node + rbtree._N_LEFT, root)
        assert_corrupt(tree, ctx)

    def test_skiplist_level0_cycle(self, env, kind):
        heap, ctx = env
        slist = filled(TxSkipList.create(heap, ctx, kind), ctx)
        first = ctx.read_word(slist.base + skiplist._N_NEXT)
        node = first
        while ctx.read_word(node + skiplist._N_NEXT) != 0:
            node = ctx.read_word(node + skiplist._N_NEXT)
        ctx.write_word(node + skiplist._N_NEXT, first)
        assert_corrupt(slist, ctx)

    def test_skiplist_upper_level_cycle(self, env, kind):
        """Upper levels are checked by key order, which a cycle breaks."""
        heap, ctx = env
        slist = filled(TxSkipList.create(heap, ctx, kind), ctx)
        level1 = skiplist._N_NEXT + WORD_SIZE
        first = ctx.read_word(slist.base + level1)
        node = first
        while ctx.read_word(node + level1) != 0:
            node = ctx.read_word(node + level1)
        assert node != first
        ctx.write_word(node + level1, first)
        assert slist.check_integrity(ctx) is False


class TestOtherCorruption:
    def test_hashmap_key_in_wrong_bucket(self, env):
        heap, ctx = env
        table = filled(TxHashMap.create(heap, ctx, MemoryKind.NVM, nbuckets=8), ctx)
        node = hash_chain(table, ctx)[0]
        key = ctx.read_word(node + hashmap._N_KEY)
        # A fresh key that hashes elsewhere: get() could never find it.
        stray = next(
            k for k in range(KEYS, 10 * KEYS)
            if TxHashMap._hash(k) % 8 != TxHashMap._hash(key) % 8
        )
        ctx.write_word(node + hashmap._N_KEY, stray)
        assert table.get(ctx, stray) is None
        assert_corrupt(table, ctx)

    def test_btree_key_count_out_of_range(self, env):
        heap, ctx = env
        tree = filled(TxBTree.create(heap, ctx, MemoryKind.DRAM), ctx)
        root = ctx.read_word(tree.base + btree._H_ROOT)
        ctx.write_word(root + btree._N_NKEYS, 1 << 40)
        assert_corrupt(tree, ctx)

    def test_btree_order_violation(self, env):
        """A key outside its subtree's range is unreachable by get()."""
        heap, ctx = env
        tree = filled(TxBTree.create(heap, ctx, MemoryKind.DRAM), ctx)
        root = ctx.read_word(tree.base + btree._H_ROOT)
        leaf = ctx.read_word(root + btree._N_CHILDREN)
        while ctx.read_word(leaf + btree._N_LEAF) != 1:
            leaf = ctx.read_word(leaf + btree._N_CHILDREN)
        ctx.write_word(leaf + btree._N_KEYS, 10 * KEYS)
        assert tree.get(ctx, 10 * KEYS) is None
        assert tree.check_integrity(ctx) is False

    @pytest.mark.parametrize("cls", [TxBTree, TxRBTree, TxSkipList])
    def test_ordered_walks_return_key_order(self, env, cls):
        heap, ctx = env
        structure = cls.create(heap, ctx, MemoryKind.DRAM)
        for key in (5, 1, 9, 3, 7):
            structure.insert(ctx, key, key * 10)
        assert structure.items(ctx) == [(k, k * 10) for k in (1, 3, 5, 7, 9)]
