"""A transactional red-black tree (PMDK ``rbtree_map`` equivalent).

Classic CLRS insert with recolouring and rotations.  Rotations dirty a chain
of parent pointers, which is what makes RB-tree transactions conflict-heavy
near the root — the behaviour behind its 2.7x capacity-overflow slowdown in
the paper's Figure 6.
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

_RED = 0
_BLACK = 1

# Field constants are byte offsets from an object's base address.
# Node layout (words): key, value, color, left, right, parent.
_N_KEY = 0 * WORD_SIZE
_N_VALUE = 1 * WORD_SIZE
_N_COLOR = 2 * WORD_SIZE
_N_LEFT = 3 * WORD_SIZE
_N_RIGHT = 4 * WORD_SIZE
_N_PARENT = 5 * WORD_SIZE
_NODE_WORDS = 6

# Header layout (words): root pointer, element count.
_H_ROOT = 0 * WORD_SIZE
_H_SIZE = 1 * WORD_SIZE


class TxRBTree:
    """A red-black tree over the transactional heap."""

    def __init__(self, heap: "TxHeap", base: int, kind: MemoryKind) -> None:
        self.heap = heap
        self.base = base
        self.kind = kind

    @classmethod
    def create(
        cls, heap: "TxHeap", ctx: MemoryContext, kind: MemoryKind
    ) -> "TxRBTree":
        base = heap.alloc_words(2, kind)
        ctx.write_word(base + _H_ROOT, 0)
        ctx.write_word(base + _H_SIZE, 0)
        return cls(heap, base, kind)

    # -- field helpers --------------------------------------------------------

    def _get(self, ctx, node, f) -> int:
        return ctx.read_word(node + f)

    def _set(self, ctx, node, f, v) -> None:
        ctx.write_word(node + f, v)

    def _root(self, ctx) -> int:
        return ctx.read_word(self.base + _H_ROOT)

    def _set_root(self, ctx, node) -> None:
        ctx.write_word(self.base + _H_ROOT, node)

    # -- operations ---------------------------------------------------------------

    def get(self, ctx: MemoryContext, key: int) -> Optional[int]:
        read = ctx.read_word
        node = read(self.base + _H_ROOT)
        while node != 0:
            node_key = read(node + _N_KEY)
            if key == node_key:
                return read(node + _N_VALUE)
            node = read(node + (_N_LEFT if key < node_key else _N_RIGHT))
        return None

    def insert(self, ctx: MemoryContext, key: int, value: int) -> bool:
        read = ctx.read_word
        parent = 0
        node = read(self.base + _H_ROOT)
        while node != 0:
            node_key = read(node + _N_KEY)
            if key == node_key:
                ctx.write_word(node + _N_VALUE, value)
                return False
            parent = node
            node = read(node + (_N_LEFT if key < node_key else _N_RIGHT))
        fresh = self.heap.alloc_words(_NODE_WORDS, self.kind)
        self._set(ctx, fresh, _N_KEY, key)
        self._set(ctx, fresh, _N_VALUE, value)
        self._set(ctx, fresh, _N_COLOR, _RED)
        self._set(ctx, fresh, _N_LEFT, 0)
        self._set(ctx, fresh, _N_RIGHT, 0)
        self._set(ctx, fresh, _N_PARENT, parent)
        if parent == 0:
            self._set_root(ctx, fresh)
        elif key < self._get(ctx, parent, _N_KEY):
            self._set(ctx, parent, _N_LEFT, fresh)
        else:
            self._set(ctx, parent, _N_RIGHT, fresh)
        self._fixup(ctx, fresh)
        return True

    def _rotate(self, ctx, node, left: bool) -> None:
        """Rotate ``node`` down to the ``left`` (or right)."""
        up_f, down_f = (_N_RIGHT, _N_LEFT) if left else (_N_LEFT, _N_RIGHT)
        pivot = self._get(ctx, node, up_f)
        inner = self._get(ctx, pivot, down_f)
        self._set(ctx, node, up_f, inner)
        if inner != 0:
            self._set(ctx, inner, _N_PARENT, node)
        parent = self._get(ctx, node, _N_PARENT)
        self._set(ctx, pivot, _N_PARENT, parent)
        if parent == 0:
            self._set_root(ctx, pivot)
        elif node == self._get(ctx, parent, _N_LEFT):
            self._set(ctx, parent, _N_LEFT, pivot)
        else:
            self._set(ctx, parent, _N_RIGHT, pivot)
        self._set(ctx, pivot, down_f, node)
        self._set(ctx, node, _N_PARENT, pivot)

    def _fixup(self, ctx, node) -> None:
        while True:
            parent = self._get(ctx, node, _N_PARENT)
            if parent == 0 or self._get(ctx, parent, _N_COLOR) == _BLACK:
                break
            grand = self._get(ctx, parent, _N_PARENT)
            parent_is_left = parent == self._get(ctx, grand, _N_LEFT)
            uncle = self._get(ctx, grand, _N_RIGHT if parent_is_left else _N_LEFT)
            if uncle != 0 and self._get(ctx, uncle, _N_COLOR) == _RED:
                self._set(ctx, parent, _N_COLOR, _BLACK)
                self._set(ctx, uncle, _N_COLOR, _BLACK)
                self._set(ctx, grand, _N_COLOR, _RED)
                node = grand
                continue
            inner_f = _N_RIGHT if parent_is_left else _N_LEFT
            if node == self._get(ctx, parent, inner_f):
                node = parent
                self._rotate(ctx, node, left=parent_is_left)
                parent = self._get(ctx, node, _N_PARENT)
                grand = self._get(ctx, parent, _N_PARENT)
            self._set(ctx, parent, _N_COLOR, _BLACK)
            self._set(ctx, grand, _N_COLOR, _RED)
            self._rotate(ctx, grand, left=not parent_is_left)
        root = self._root(ctx)
        self._set(ctx, root, _N_COLOR, _BLACK)

    # -- delete ---------------------------------------------------------------------

    def delete(self, ctx: MemoryContext, key: int) -> bool:
        """CLRS red-black deletion with double-black fixup.

        The classic algorithm uses a nil sentinel; here children are 0, so
        the fixup tracks (node, parent) pairs and treats 0 as black.
        """
        victim = self._root(ctx)
        while victim != 0:
            victim_key = self._get(ctx, victim, _N_KEY)
            if key == victim_key:
                break
            victim = self._get(
                ctx, victim, _N_LEFT if key < victim_key else _N_RIGHT
            )
        if victim == 0:
            return False

        removed_color = self._get(ctx, victim, _N_COLOR)
        if self._get(ctx, victim, _N_LEFT) == 0:
            fix_node = self._get(ctx, victim, _N_RIGHT)
            fix_parent = self._get(ctx, victim, _N_PARENT)
            self._transplant(ctx, victim, fix_node)
        elif self._get(ctx, victim, _N_RIGHT) == 0:
            fix_node = self._get(ctx, victim, _N_LEFT)
            fix_parent = self._get(ctx, victim, _N_PARENT)
            self._transplant(ctx, victim, fix_node)
        else:
            successor = self._get(ctx, victim, _N_RIGHT)
            while self._get(ctx, successor, _N_LEFT) != 0:
                successor = self._get(ctx, successor, _N_LEFT)
            removed_color = self._get(ctx, successor, _N_COLOR)
            fix_node = self._get(ctx, successor, _N_RIGHT)
            if self._get(ctx, successor, _N_PARENT) == victim:
                fix_parent = successor
            else:
                fix_parent = self._get(ctx, successor, _N_PARENT)
                self._transplant(ctx, successor, fix_node)
                right = self._get(ctx, victim, _N_RIGHT)
                self._set(ctx, successor, _N_RIGHT, right)
                self._set(ctx, right, _N_PARENT, successor)
            self._transplant(ctx, victim, successor)
            left = self._get(ctx, victim, _N_LEFT)
            self._set(ctx, successor, _N_LEFT, left)
            self._set(ctx, left, _N_PARENT, successor)
            self._set(
                ctx, successor, _N_COLOR, self._get(ctx, victim, _N_COLOR)
            )
        if removed_color == _BLACK:
            self._delete_fixup(ctx, fix_node, fix_parent)
        self.heap.free_words(victim, _NODE_WORDS, self.kind)
        return True

    def _transplant(self, ctx, old, new) -> None:
        parent = self._get(ctx, old, _N_PARENT)
        if parent == 0:
            self._set_root(ctx, new)
        elif old == self._get(ctx, parent, _N_LEFT):
            self._set(ctx, parent, _N_LEFT, new)
        else:
            self._set(ctx, parent, _N_RIGHT, new)
        if new != 0:
            self._set(ctx, new, _N_PARENT, parent)

    def _color_of(self, ctx, node) -> int:
        return _BLACK if node == 0 else self._get(ctx, node, _N_COLOR)

    def _delete_fixup(self, ctx, node, parent) -> None:
        while node != self._root(ctx) and self._color_of(ctx, node) == _BLACK:
            if parent == 0:
                break
            node_is_left = node == self._get(ctx, parent, _N_LEFT)
            sib_field = _N_RIGHT if node_is_left else _N_LEFT
            sibling = self._get(ctx, parent, sib_field)
            if self._color_of(ctx, sibling) == _RED:
                self._set(ctx, sibling, _N_COLOR, _BLACK)
                self._set(ctx, parent, _N_COLOR, _RED)
                self._rotate(ctx, parent, left=node_is_left)
                sibling = self._get(ctx, parent, sib_field)
            inner = self._get(
                ctx, sibling, _N_LEFT if node_is_left else _N_RIGHT
            )
            outer = self._get(
                ctx, sibling, _N_RIGHT if node_is_left else _N_LEFT
            )
            if (
                self._color_of(ctx, inner) == _BLACK
                and self._color_of(ctx, outer) == _BLACK
            ):
                self._set(ctx, sibling, _N_COLOR, _RED)
                node = parent
                parent = self._get(ctx, node, _N_PARENT)
                continue
            if self._color_of(ctx, outer) == _BLACK:
                if inner != 0:
                    self._set(ctx, inner, _N_COLOR, _BLACK)
                self._set(ctx, sibling, _N_COLOR, _RED)
                self._rotate(ctx, sibling, left=not node_is_left)
                sibling = self._get(ctx, parent, sib_field)
                outer = self._get(
                    ctx, sibling, _N_RIGHT if node_is_left else _N_LEFT
                )
            self._set(
                ctx, sibling, _N_COLOR, self._get(ctx, parent, _N_COLOR)
            )
            self._set(ctx, parent, _N_COLOR, _BLACK)
            if outer != 0:
                self._set(ctx, outer, _N_COLOR, _BLACK)
            self._rotate(ctx, parent, left=node_is_left)
            node = self._root(ctx)
            parent = 0
        if node != 0:
            self._set(ctx, node, _N_COLOR, _BLACK)

    # -- verification --------------------------------------------------------------

    def items(self, ctx: MemoryContext) -> List[Tuple[int, int]]:
        """Every ``(key, value)`` pair, in order.

        Raises :class:`CorruptStructureError` on revisiting a node, so a
        child-pointer cycle ends the walk instead of growing it without
        bound.
        """
        read = ctx.read_word
        out: List[Tuple[int, int]] = []
        seen: Set[int] = set()
        stack: List[int] = []
        node = read(self.base + _H_ROOT)
        while stack or node != 0:
            while node != 0:
                if node in seen:
                    raise CorruptStructureError(f"RB-tree cycle at {node:#x}")
                seen.add(node)
                stack.append(node)
                node = read(node + _N_LEFT)
            node = stack.pop()
            out.append((read(node + _N_KEY), read(node + _N_VALUE)))
            node = read(node + _N_RIGHT)
        return out

    def keys(self, ctx: MemoryContext) -> List[int]:
        return [key for key, _ in self.items(ctx)]

    def size(self, ctx: MemoryContext) -> int:
        """Element count, by walking (no transactional hot counter)."""
        return len(self.items(ctx))

    def check_integrity(self, ctx: MemoryContext) -> bool:
        """Acyclic, BST order, and the red-black invariants."""
        try:
            items = self.items(ctx)
        except CorruptStructureError:
            return False
        if any(a[0] >= b[0] for a, b in zip(items, items[1:])):
            return False
        root = self._root(ctx)
        if root == 0:
            return True
        if self._get(ctx, root, _N_COLOR) != _BLACK:
            return False
        # No red node has a red child; black-height is uniform.  The walk
        # above visited every reachable node once, so this one terminates.
        black_heights = set()
        stack = [(root, 0)]
        while stack:
            node, blacks = stack.pop()
            if node == 0:
                black_heights.add(blacks)
                continue
            color = self._get(ctx, node, _N_COLOR)
            if color == _RED:
                for f in (_N_LEFT, _N_RIGHT):
                    child = self._get(ctx, node, f)
                    if child != 0 and self._get(ctx, child, _N_COLOR) == _RED:
                        return False
            blacks += 1 if color == _BLACK else 0
            stack.append((self._get(ctx, node, _N_LEFT), blacks))
            stack.append((self._get(ctx, node, _N_RIGHT), blacks))
        return len(black_heights) == 1


class RBTreeWorkload(Workload):
    """Insert/update nodes in a red-black tree (Table IV, RB-Tree [25])."""

    name = "rbtree"

    def __init__(self, system, process, params: WorkloadParams) -> None:
        super().__init__(system, process, params)
        self.tree: Optional[TxRBTree] = None
        self.pool: Optional[PayloadPool] = None

    def setup(self) -> None:
        self.tree = TxRBTree.create(self.system.heap, self.raw, self.params.kind)
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
