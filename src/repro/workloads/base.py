"""Common workload machinery: parameters, payload helpers, the base class.

Footprint control follows the paper (Section V): "We evaluated our design
with different footprints of transactions ... which we controlled with the
number of operations in a single batch" — and, for the PMDK benchmarks,
with the value size of each insert/update.  ``WorkloadParams.value_bytes``
and ``ops_per_tx`` are the two knobs; both are specified at *paper scale*
and shrunk by the machine's scale factor automatically, keeping the
footprint-to-cache ratio faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Generator, List, TYPE_CHECKING

from ..errors import ConfigError
from ..mem.address import MemoryKind
from ..params import LINE_SIZE
from ..runtime.txapi import MemoryContext, PrefillContext, RawContext
from ..runtime.thread import ThreadApi

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.process import SimProcess
    from ..runtime.system import System

#: Lines written/read between scheduling yields inside a transaction body.
CHUNK_LINES = 16


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs shared by all benchmarks (paper-scale sizes)."""

    #: Threads this benchmark instance runs (the paper consolidates four
    #: benchmarks with four threads each).
    threads: int = 4
    #: Transactions each thread executes during the measured run.
    txs_per_thread: int = 8
    #: Value size per insert/update, bytes, at paper scale.
    value_bytes: int = 100 << 10
    #: Operations batched into one transaction.
    ops_per_tx: int = 1
    #: Key-space size.
    keys: int = 256
    #: Fraction of operations that are updates of existing keys (the rest
    #: insert fresh keys, cycling the space).
    update_ratio: float = 0.5
    #: Where the primary data structure lives.
    kind: MemoryKind = MemoryKind.NVM
    #: Keys pre-populated before measurement.
    initial_fill: int = 64

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.txs_per_thread < 1:
            raise ConfigError("txs_per_thread must be >= 1")
        if self.value_bytes < 8:
            raise ConfigError("value_bytes must be >= 8")
        if self.ops_per_tx < 1:
            raise ConfigError("ops_per_tx must be >= 1")
        if not 0 <= self.update_ratio <= 1:
            raise ConfigError("update_ratio must be in [0, 1]")
        if self.initial_fill > self.keys:
            raise ConfigError("initial_fill cannot exceed the key space")

    def with_(self, **changes) -> "WorkloadParams":
        return replace(self, **changes)

    def scaled_value_bytes(self, scale: float) -> int:
        """The value size after machine scaling, line-aligned, >= 1 line."""
        scaled = int(self.value_bytes * scale)
        return max(LINE_SIZE, scaled - scaled % LINE_SIZE or LINE_SIZE)


def write_payload(
    ctx: MemoryContext, addr: int, nbytes: int, tag: int
) -> Generator[None, None, None]:
    """Fill a payload block inside a transaction, yielding between chunks."""
    offset = 0
    while offset < nbytes:
        chunk = min(CHUNK_LINES * LINE_SIZE, nbytes - offset)
        ctx.write_block(addr + offset, chunk, tag)
        offset += chunk
        yield


def read_payload(
    ctx: MemoryContext, addr: int, nbytes: int
) -> Generator[None, None, int]:
    """Scan a payload block, yielding between chunks; returns first word."""
    first = 0
    offset = 0
    while offset < nbytes:
        chunk = min(CHUNK_LINES * LINE_SIZE, nbytes - offset)
        value = ctx.read_block(addr + offset, chunk)
        if offset == 0:
            first = value
        offset += chunk
        yield
    return first


class PayloadPool:
    """Pre-allocated per-key payload blocks (no allocator churn on retry)."""

    def __init__(
        self, system: "System", keys: int, nbytes: int, kind: MemoryKind
    ) -> None:
        self.nbytes = nbytes
        self._blocks = [system.heap.alloc(nbytes, kind) for _ in range(keys)]

    def block_for(self, key: int) -> int:
        return self._blocks[key % len(self._blocks)]


class Workload:
    """Base class: one benchmark instance bound to one simulated process."""

    #: Registry name (Table IV row).
    name = "abstract"

    def __init__(
        self,
        system: "System",
        process: "SimProcess",
        params: WorkloadParams,
    ) -> None:
        self.system = system
        self.process = process
        self.params = params
        self.value_bytes = params.scaled_value_bytes(system.machine.scale)
        self.raw = RawContext(system.controller)
        self._rng = system.rng.fork(process.pid).stream(f"workload:{self.name}")

    # -- lifecycle -------------------------------------------------------------

    def setup(self) -> None:
        """Pre-populate structures (untimed, through ``self.raw``).

        Under :meth:`spawn`, ``self.raw`` is a :class:`PrefillContext`
        whose image is published when ``setup`` returns; called directly,
        it is the plain :class:`RawContext`.
        """

    def thread_bodies(self) -> List[Callable[[ThreadApi], Generator]]:
        """One generator function per thread of this benchmark."""
        raise NotImplementedError

    def spawn(self) -> None:
        """Set up and launch all threads on this workload's process.

        ``setup`` runs against a :class:`PrefillContext`, whose staged image
        reaches the backing stores in one bulk store before any thread is
        created; ``self.raw`` is the :class:`RawContext` again afterwards.
        """
        raw = self.raw
        prefill = PrefillContext(self.system.controller)
        self.raw = prefill
        try:
            self.setup()
        finally:
            self.raw = raw
        prefill.publish()
        for index, body in enumerate(self.thread_bodies()):
            self.process.thread(body, name=f"{self.name}.t{index}")

    # -- verification hooks -------------------------------------------------------

    def verify(self) -> bool:
        """Post-run integrity check (override where meaningful)."""
        return True

    # -- key sequencing -------------------------------------------------------------

    def key_stream(self, thread_index: int) -> Generator[int, None, None]:
        """Deterministic per-thread mix of updates and fresh inserts.

        Keys are sharded per thread, as scalable KV benchmarks do: at the
        paper's key-space sizes (millions of pairs) two threads virtually
        never touch the same pair, and sharding reproduces that collision
        rate on the scaled-down space.  True conflicts still arise from
        shared index interior (B-tree splits, skip-list towers, bucket
        chains).
        """
        rng = self.system.rng.fork(
            self.process.pid * 1000 + thread_index
        ).stream("keys")
        threads = self.params.threads
        fill = max(1, min(self.params.initial_fill, self.params.keys))
        shard_lo = (fill * thread_index) // threads
        shard_hi = max(shard_lo + 1, (fill * (thread_index + 1)) // threads)
        fresh_space = max(threads, self.params.keys - self.params.initial_fill)
        fresh_lo = (fresh_space * thread_index) // threads
        fresh_width = max(
            1, (fresh_space * (thread_index + 1)) // threads - fresh_lo
        )
        fresh_count = 0
        while True:
            if rng.random() < self.params.update_ratio:
                yield rng.randrange(shard_lo, shard_hi)
            else:
                offset = fresh_lo + fresh_count % fresh_width
                yield min(
                    self.params.keys - 1, self.params.initial_fill + offset
                )
                fresh_count += 1
