"""The software runtime over the simulated hardware.

This package is what workload code programs against:

* :class:`TxHeap` — a word-addressable heap spanning the DRAM and NVM heap
  regions (objects are line-aligned arrays of 64-bit words).
* :class:`TxContext` / :class:`SlowPathContext` / :class:`DirectContext` —
  one memory-access interface with three implementations: speculative
  (inside a hardware transaction), serialised-but-durable (the Algorithm 1
  slow path), and plain non-transactional (co-runners).
* :class:`ThreadApi` — per-thread façade whose ``run_transaction``
  implements Algorithm 1's retry/fallback protocol.
* :class:`System` — assembles a whole machine: engine, memory controller,
  cache hierarchy, HTM design, processes, and threads.
"""

from .heap import TxHeap
from .process import SimProcess
from .system import System
from .thread import ThreadApi
from .txapi import (
    DirectContext,
    MemoryContext,
    PrefillContext,
    RawContext,
    SlowPathContext,
    TxContext,
)

__all__ = [
    "TxHeap",
    "SimProcess",
    "System",
    "ThreadApi",
    "DirectContext",
    "MemoryContext",
    "PrefillContext",
    "RawContext",
    "SlowPathContext",
    "TxContext",
]
