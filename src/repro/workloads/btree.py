"""A transactional B-Tree (PMDK ``btree_map`` equivalent).

CLRS-style B-tree with minimum degree ``t = 4`` (up to 7 keys per node) and
proactive splitting on descent, so an insert is a single root-to-leaf pass —
the access pattern that makes B-tree transactions footprint-heavy (every
split dirties three nodes).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Set, Tuple, TYPE_CHECKING

from ..errors import CorruptStructureError
from ..mem.address import MemoryKind
from ..params import WORD_SIZE
from ..runtime.txapi import MemoryContext
from .base import PayloadPool, Workload, WorkloadParams, write_payload

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.heap import TxHeap

#: Minimum degree: nodes hold t-1 .. 2t-1 keys.
_T = 4
_MAX_KEYS = 2 * _T - 1
_MAX_CHILDREN = 2 * _T

# Node layout (words): leaf flag, key count, keys, values parallel to the
# keys, children.  Field constants are byte offsets from the node's base;
# slot ``i`` of an array field is at ``+ i * WORD_SIZE``.
_N_LEAF = 0 * WORD_SIZE
_N_NKEYS = 1 * WORD_SIZE
_N_KEYS = 2 * WORD_SIZE
_N_VALUES = _N_KEYS + _MAX_KEYS * WORD_SIZE
_N_CHILDREN = _N_VALUES + _MAX_KEYS * WORD_SIZE
_NODE_WORDS = _N_CHILDREN // WORD_SIZE + _MAX_CHILDREN

# Header layout (words): root pointer, element count.
_H_ROOT = 0 * WORD_SIZE
_H_SIZE = 1 * WORD_SIZE


class TxBTree:
    """A B-tree over the transactional heap; keys and values are words."""

    def __init__(self, heap: "TxHeap", base: int, kind: MemoryKind) -> None:
        self.heap = heap
        self.base = base
        self.kind = kind

    @classmethod
    def create(
        cls, heap: "TxHeap", ctx: MemoryContext, kind: MemoryKind
    ) -> "TxBTree":
        base = heap.alloc_words(2, kind)
        tree = cls(heap, base, kind)
        root = tree._new_node(ctx, leaf=True)
        ctx.write_word(base + _H_ROOT, root)
        ctx.write_word(base + _H_SIZE, 0)
        return tree

    # -- node helpers ------------------------------------------------------------

    def _new_node(self, ctx: MemoryContext, leaf: bool) -> int:
        node = self.heap.alloc_words(_NODE_WORDS, self.kind)
        ctx.write_word(node + _N_LEAF, 1 if leaf else 0)
        ctx.write_word(node + _N_NKEYS, 0)
        return node

    def _key(self, ctx, node, i) -> int:
        return ctx.read_word(node + _N_KEYS + i * WORD_SIZE)

    def _value(self, ctx, node, i) -> int:
        return ctx.read_word(node + _N_VALUES + i * WORD_SIZE)

    def _child(self, ctx, node, i) -> int:
        return ctx.read_word(node + _N_CHILDREN + i * WORD_SIZE)

    def _set_key(self, ctx, node, i, v) -> None:
        ctx.write_word(node + _N_KEYS + i * WORD_SIZE, v)

    def _set_value(self, ctx, node, i, v) -> None:
        ctx.write_word(node + _N_VALUES + i * WORD_SIZE, v)

    def _set_child(self, ctx, node, i, v) -> None:
        ctx.write_word(node + _N_CHILDREN + i * WORD_SIZE, v)

    def _nkeys(self, ctx, node) -> int:
        return ctx.read_word(node + _N_NKEYS)

    def _set_nkeys(self, ctx, node, n) -> None:
        ctx.write_word(node + _N_NKEYS, n)

    def _is_leaf(self, ctx, node) -> bool:
        return ctx.read_word(node + _N_LEAF) == 1

    # -- search ---------------------------------------------------------------------

    def get(self, ctx: MemoryContext, key: int) -> Optional[int]:
        read = ctx.read_word
        node = read(self.base + _H_ROOT)
        while True:
            n = read(node + _N_NKEYS)
            keys = node + _N_KEYS
            i = 0
            while i < n and key > read(keys + i * WORD_SIZE):
                i += 1
            if i < n and key == read(keys + i * WORD_SIZE):
                return read(node + _N_VALUES + i * WORD_SIZE)
            if read(node + _N_LEAF) == 1:
                return None
            node = read(node + _N_CHILDREN + i * WORD_SIZE)

    def scan(
        self, ctx: MemoryContext, lo: int, hi: int
    ) -> List[Tuple[int, int]]:
        """In-order (key, value) pairs with lo <= key <= hi.

        Descends only subtrees whose key range can intersect [lo, hi], so a
        narrow scan touches O(depth + matches) nodes — both a performance
        and a *footprint* property: an unpruned walk would put the entire
        tree in the transaction's read set.
        """
        read = ctx.read_word
        out: List[Tuple[int, int]] = []
        stack = [read(self.base + _H_ROOT)]
        while stack:
            node = stack.pop()
            n = read(node + _N_NKEYS)
            key_slots = node + _N_KEYS
            keys = [read(key_slots + i * WORD_SIZE) for i in range(n)]
            values = node + _N_VALUES
            for i, key in enumerate(keys):
                if lo <= key <= hi:
                    out.append((key, read(values + i * WORD_SIZE)))
            if read(node + _N_LEAF) == 1:
                continue
            children = node + _N_CHILDREN
            for i in range(n + 1):
                # Child i holds keys in (keys[i-1], keys[i]).
                child_lo = keys[i - 1] if i > 0 else None
                child_hi = keys[i] if i < n else None
                if child_lo is not None and child_lo > hi:
                    continue
                if child_hi is not None and child_hi < lo:
                    continue
                stack.append(read(children + i * WORD_SIZE))
        return sorted(out)

    # -- insert -----------------------------------------------------------------------

    def insert(self, ctx: MemoryContext, key: int, value: int) -> bool:
        """Insert or update; returns True if the key was new."""
        header_root = self.base + _H_ROOT
        root = ctx.read_word(header_root)
        if ctx.read_word(root + _N_NKEYS) == _MAX_KEYS:
            new_root = self._new_node(ctx, leaf=False)
            ctx.write_word(new_root + _N_CHILDREN, root)
            self._split_child(ctx, new_root, 0)
            ctx.write_word(header_root, new_root)
            root = new_root
        return self._insert_nonfull(ctx, root, key, value)

    def _insert_nonfull(self, ctx, node, key, value) -> bool:
        read = ctx.read_word
        write = ctx.write_word
        while True:
            n = read(node + _N_NKEYS)
            keys = node + _N_KEYS
            i = 0
            while i < n and key > read(keys + i * WORD_SIZE):
                i += 1
            if i < n and key == read(keys + i * WORD_SIZE):
                write(node + _N_VALUES + i * WORD_SIZE, value)
                return False
            if read(node + _N_LEAF) == 1:
                values = node + _N_VALUES
                for j in range(n, i, -1):
                    slot = j * WORD_SIZE
                    write(keys + slot, read(keys + slot - WORD_SIZE))
                    write(values + slot, read(values + slot - WORD_SIZE))
                write(keys + i * WORD_SIZE, key)
                write(values + i * WORD_SIZE, value)
                write(node + _N_NKEYS, n + 1)
                return True
            child = read(node + _N_CHILDREN + i * WORD_SIZE)
            if read(child + _N_NKEYS) == _MAX_KEYS:
                self._split_child(ctx, node, i)
                pivot = read(keys + i * WORD_SIZE)
                if key == pivot:
                    write(node + _N_VALUES + i * WORD_SIZE, value)
                    return False
                if key > pivot:
                    i += 1
            node = read(node + _N_CHILDREN + i * WORD_SIZE)

    def _split_child(self, ctx, parent, index) -> None:
        read = ctx.read_word
        write = ctx.write_word
        keys = parent + _N_KEYS
        values = parent + _N_VALUES
        children = parent + _N_CHILDREN
        child = read(children + index * WORD_SIZE)
        sibling = self._new_node(ctx, leaf=read(child + _N_LEAF) == 1)
        # Move the top t-1 keys (and children) of `child` into `sibling`.
        upper = _T * WORD_SIZE
        for slot in range(0, (_T - 1) * WORD_SIZE, WORD_SIZE):
            write(sibling + _N_KEYS + slot, read(child + _N_KEYS + upper + slot))
            write(sibling + _N_VALUES + slot, read(child + _N_VALUES + upper + slot))
        if read(child + _N_LEAF) != 1:
            for slot in range(0, _T * WORD_SIZE, WORD_SIZE):
                write(
                    sibling + _N_CHILDREN + slot,
                    read(child + _N_CHILDREN + upper + slot),
                )
        write(sibling + _N_NKEYS, _T - 1)
        write(child + _N_NKEYS, _T - 1)
        # Shift the parent to make room for the median.
        n = read(parent + _N_NKEYS)
        for j in range(n, index, -1):
            slot = j * WORD_SIZE
            write(keys + slot, read(keys + slot - WORD_SIZE))
            write(values + slot, read(values + slot - WORD_SIZE))
            write(children + slot + WORD_SIZE, read(children + slot))
        median = (_T - 1) * WORD_SIZE
        slot = index * WORD_SIZE
        write(keys + slot, read(child + _N_KEYS + median))
        write(values + slot, read(child + _N_VALUES + median))
        write(children + slot + WORD_SIZE, sibling)
        write(parent + _N_NKEYS, n + 1)

    # -- delete -----------------------------------------------------------------------

    def delete(self, ctx: MemoryContext, key: int) -> bool:
        """CLRS B-tree deletion with proactive borrow/merge on descent."""
        header_root = self.base + _H_ROOT
        root = ctx.read_word(header_root)
        if self.get(ctx, key) is None:
            return False
        self._delete_from(ctx, root, key)
        # Shrink the tree if the root emptied out.
        root = ctx.read_word(header_root)
        if not self._is_leaf(ctx, root) and self._nkeys(ctx, root) == 0:
            ctx.write_word(header_root, self._child(ctx, root, 0))
            self.heap.free_words(root, _NODE_WORDS, self.kind)
        return True

    def _delete_from(self, ctx, node, key) -> None:
        while True:
            n = self._nkeys(ctx, node)
            i = 0
            while i < n and key > self._key(ctx, node, i):
                i += 1
            if self._is_leaf(ctx, node):
                # Present by precondition; shift left over it.
                for j in range(i, n - 1):
                    self._set_key(ctx, node, j, self._key(ctx, node, j + 1))
                    self._set_value(ctx, node, j, self._value(ctx, node, j + 1))
                self._set_nkeys(ctx, node, n - 1)
                return
            if i < n and key == self._key(ctx, node, i):
                self._delete_internal(ctx, node, i, key)
                return
            child = self._ensure_child_min(ctx, node, i, key)
            node = child

    def _delete_internal(self, ctx, node, i, key) -> None:
        """Delete key at internal position i via predecessor/successor."""
        left = self._child(ctx, node, i)
        right = self._child(ctx, node, i + 1)
        if self._nkeys(ctx, left) >= _T:
            pred_key, pred_value = self._max_entry(ctx, left)
            self._set_key(ctx, node, i, pred_key)
            self._set_value(ctx, node, i, pred_value)
            self._delete_from(ctx, self._ensure_child_min(ctx, node, i, pred_key), pred_key)
        elif self._nkeys(ctx, right) >= _T:
            succ_key, succ_value = self._min_entry(ctx, right)
            self._set_key(ctx, node, i, succ_key)
            self._set_value(ctx, node, i, succ_value)
            self._delete_from(
                ctx, self._ensure_child_min(ctx, node, i + 1, succ_key), succ_key
            )
        else:
            self._merge_children(ctx, node, i)
            self._delete_from(ctx, self._child(ctx, node, i), key)

    def _ensure_child_min(self, ctx, parent, i, key) -> int:
        """Guarantee child i has >= _T keys before descending (borrow/merge).

        Returns the child to descend into (indices can shift on merge).
        """
        child = self._child(ctx, parent, i)
        if self._nkeys(ctx, child) >= _T:
            return child
        n = self._nkeys(ctx, parent)
        if i > 0 and self._nkeys(ctx, self._child(ctx, parent, i - 1)) >= _T:
            self._borrow_from_left(ctx, parent, i)
            return self._child(ctx, parent, i)
        if i < n and self._nkeys(ctx, self._child(ctx, parent, i + 1)) >= _T:
            self._borrow_from_right(ctx, parent, i)
            return self._child(ctx, parent, i)
        if i == n:
            i -= 1
        self._merge_children(ctx, parent, i)
        return self._child(ctx, parent, i)

    def _borrow_from_left(self, ctx, parent, i) -> None:
        child = self._child(ctx, parent, i)
        left = self._child(ctx, parent, i - 1)
        n = self._nkeys(ctx, child)
        ln = self._nkeys(ctx, left)
        for j in range(n, 0, -1):
            self._set_key(ctx, child, j, self._key(ctx, child, j - 1))
            self._set_value(ctx, child, j, self._value(ctx, child, j - 1))
        if not self._is_leaf(ctx, child):
            for j in range(n + 1, 0, -1):
                self._set_child(ctx, child, j, self._child(ctx, child, j - 1))
            self._set_child(ctx, child, 0, self._child(ctx, left, ln))
        self._set_key(ctx, child, 0, self._key(ctx, parent, i - 1))
        self._set_value(ctx, child, 0, self._value(ctx, parent, i - 1))
        self._set_key(ctx, parent, i - 1, self._key(ctx, left, ln - 1))
        self._set_value(ctx, parent, i - 1, self._value(ctx, left, ln - 1))
        self._set_nkeys(ctx, child, n + 1)
        self._set_nkeys(ctx, left, ln - 1)

    def _borrow_from_right(self, ctx, parent, i) -> None:
        child = self._child(ctx, parent, i)
        right = self._child(ctx, parent, i + 1)
        n = self._nkeys(ctx, child)
        rn = self._nkeys(ctx, right)
        self._set_key(ctx, child, n, self._key(ctx, parent, i))
        self._set_value(ctx, child, n, self._value(ctx, parent, i))
        if not self._is_leaf(ctx, child):
            self._set_child(ctx, child, n + 1, self._child(ctx, right, 0))
        self._set_key(ctx, parent, i, self._key(ctx, right, 0))
        self._set_value(ctx, parent, i, self._value(ctx, right, 0))
        for j in range(rn - 1):
            self._set_key(ctx, right, j, self._key(ctx, right, j + 1))
            self._set_value(ctx, right, j, self._value(ctx, right, j + 1))
        if not self._is_leaf(ctx, right):
            for j in range(rn):
                self._set_child(ctx, right, j, self._child(ctx, right, j + 1))
        self._set_nkeys(ctx, child, n + 1)
        self._set_nkeys(ctx, right, rn - 1)

    def _merge_children(self, ctx, parent, i) -> None:
        """Fold parent's key i and child i+1 into child i; free the sibling."""
        child = self._child(ctx, parent, i)
        sibling = self._child(ctx, parent, i + 1)
        n = self._nkeys(ctx, child)
        sn = self._nkeys(ctx, sibling)
        self._set_key(ctx, child, n, self._key(ctx, parent, i))
        self._set_value(ctx, child, n, self._value(ctx, parent, i))
        for j in range(sn):
            self._set_key(ctx, child, n + 1 + j, self._key(ctx, sibling, j))
            self._set_value(ctx, child, n + 1 + j, self._value(ctx, sibling, j))
        if not self._is_leaf(ctx, child):
            for j in range(sn + 1):
                self._set_child(
                    ctx, child, n + 1 + j, self._child(ctx, sibling, j)
                )
        self._set_nkeys(ctx, child, n + 1 + sn)
        pn = self._nkeys(ctx, parent)
        for j in range(i, pn - 1):
            self._set_key(ctx, parent, j, self._key(ctx, parent, j + 1))
            self._set_value(ctx, parent, j, self._value(ctx, parent, j + 1))
            self._set_child(ctx, parent, j + 1, self._child(ctx, parent, j + 2))
        self._set_nkeys(ctx, parent, pn - 1)
        self.heap.free_words(sibling, _NODE_WORDS, self.kind)

    def _max_entry(self, ctx, node):
        while not self._is_leaf(ctx, node):
            node = self._child(ctx, node, self._nkeys(ctx, node))
        n = self._nkeys(ctx, node)
        return self._key(ctx, node, n - 1), self._value(ctx, node, n - 1)

    def _min_entry(self, ctx, node):
        while not self._is_leaf(ctx, node):
            node = self._child(ctx, node, 0)
        return self._key(ctx, node, 0), self._value(ctx, node, 0)

    # -- verification --------------------------------------------------------------------

    def _walk(self, ctx: MemoryContext) -> Tuple[List[Tuple[int, int]], Set[int]]:
        """In-order ``(key, value)`` pairs, and the depths of the leaves.

        The one walk behind :meth:`items` and :meth:`check_integrity`.  It
        raises :class:`CorruptStructureError` on revisiting a node (a child
        pointer cycle) or on a key count no node can hold, so a corrupted
        tree ends the walk instead of growing it without bound.
        """
        read = ctx.read_word
        items: List[Tuple[int, int]] = []
        leaf_depths: Set[int] = set()
        seen: Set[int] = set()
        # Frames (node, depth, i, n): i < 0 enters the node; i >= 1 resumes
        # it after child i-1, emitting key i-1 before descending child i.
        stack = [(read(self.base + _H_ROOT), 0, -1, 0)]
        while stack:
            node, depth, i, n = stack.pop()
            keys = node + _N_KEYS
            values = node + _N_VALUES
            if i < 0:
                if node in seen:
                    raise CorruptStructureError(f"B-tree cycle at {node:#x}")
                seen.add(node)
                n = read(node + _N_NKEYS)
                if not 0 <= n <= _MAX_KEYS:
                    raise CorruptStructureError(
                        f"B-tree node {node:#x} holds {n} keys"
                    )
                if read(node + _N_LEAF) == 1:
                    leaf_depths.add(depth)
                    for j in range(n):
                        slot = j * WORD_SIZE
                        items.append((read(keys + slot), read(values + slot)))
                    continue
                i = 0
            else:
                slot = (i - 1) * WORD_SIZE
                items.append((read(keys + slot), read(values + slot)))
            if i < n:
                stack.append((node, depth, i + 1, n))
            child = read(node + _N_CHILDREN + i * WORD_SIZE)
            stack.append((child, depth + 1, -1, 0))
        return items, leaf_depths

    def items(self, ctx: MemoryContext) -> List[Tuple[int, int]]:
        """Every ``(key, value)`` pair, in key order for an intact tree."""
        return self._walk(ctx)[0]

    def keys(self, ctx: MemoryContext) -> List[int]:
        return [key for key, _ in self._walk(ctx)[0]]

    def size(self, ctx: MemoryContext) -> int:
        """Element count, by walking (no transactional hot counter)."""
        return len(self._walk(ctx)[0])

    def verified_items(self, ctx: MemoryContext) -> Optional[List[Tuple[int, int]]]:
        """:meth:`items` if the tree is intact, else ``None`` — one walk.

        Intact means: acyclic; keys strictly ascending in order (so unique,
        and every key reachable by :meth:`get`); uniform leaf depth.
        """
        try:
            items, leaf_depths = self._walk(ctx)
        except CorruptStructureError:
            return None
        if len(leaf_depths) > 1:
            return None
        if any(a[0] >= b[0] for a, b in zip(items, items[1:])):
            return None
        return items

    def check_integrity(self, ctx: MemoryContext) -> bool:
        return self.verified_items(ctx) is not None


class BTreeWorkload(Workload):
    """Insert/update nodes in a B-tree (Table IV, B-Tree [25])."""

    name = "btree"

    def __init__(self, system, process, params: WorkloadParams) -> None:
        super().__init__(system, process, params)
        self.tree: Optional[TxBTree] = None
        self.pool: Optional[PayloadPool] = None

    def setup(self) -> None:
        self.tree = TxBTree.create(self.system.heap, self.raw, self.params.kind)
        self.pool = PayloadPool(
            self.system, self.params.keys, self.value_bytes, self.params.kind
        )
        for key in range(self.params.initial_fill):
            self.tree.insert(self.raw, key, self.pool.block_for(key))

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
                        self.tree.insert(tx, key, payload)
                        yield

                yield from api.run_transaction(work, ops=len(batch))

        return body

    def verify(self) -> bool:
        return self.tree.check_integrity(self.raw)
