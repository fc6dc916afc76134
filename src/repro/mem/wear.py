"""NVM write-endurance accounting.

Phase-change and related NVM technologies wear out per-cell; systems work
on persistent memory routinely reports write amplification and hot-line
distributions.  :class:`WearTracker` counts in-place NVM line writes (the
drains out of the DRAM cache plus direct stores) and log-area appends
separately, giving the three quantities PM papers report:

* total in-place line writes,
* write amplification (log bytes written per payload byte),
* the hot-line tail (max and percentile write counts per line).

Attach with ``WearTracker.attach(controller)``; detach restores the
original methods.

Workload pre-fill is functional, not a stream of device writes:
``Workload.spawn()`` stages it and publishes the final image through
:meth:`MemoryController.store_words`, so each published NVM word counts
once, however often ``setup()`` rewrote it.  (Pre-fill used to count
every write; a ``setup()`` called directly with a ``RawContext`` still
does.)
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from .address import line_of
from .controller import MemoryController


class WearTracker:
    """Counts physical NVM writes at line granularity."""

    def __init__(self) -> None:
        self.line_writes: Counter = Counter()
        self.log_bytes = 0
        self.payload_bytes = 0
        self._controller: Optional[MemoryController] = None
        self._originals: Dict[str, object] = {}

    # -- attachment ----------------------------------------------------------

    def attach(self, controller: MemoryController) -> "WearTracker":
        if self._controller is not None:
            raise RuntimeError("tracker already attached")
        self._controller = controller
        nvm_store = controller.nvm.store
        nvm_store_line = controller.nvm.store_line
        log_append = controller.nvm_log.append_data

        def tracked_store(addr: int, value: int) -> None:
            self.line_writes[line_of(addr)] += 1
            self.payload_bytes += 8
            nvm_store(addr, value)

        def tracked_store_line(words) -> None:
            # The DRAM-cache drain path writes whole line images through
            # this bulk entry point; count each word like tracked_store.
            line_writes = self.line_writes
            for addr in words:
                line_writes[line_of(addr)] += 1
            self.payload_bytes += 8 * len(words)
            nvm_store_line(words)

        def tracked_append(kind, tx_id, line_addr, words):
            record = log_append(kind, tx_id, line_addr, words)
            self.log_bytes += record.size_bytes
            return record

        self._originals = {
            "store": nvm_store,
            "store_line": nvm_store_line,
            "append": log_append,
        }
        controller.nvm.store = tracked_store
        controller.nvm.store_line = tracked_store_line
        controller.nvm_log.append_data = tracked_append
        return self

    def detach(self) -> None:
        if self._controller is None:
            return
        self._controller.nvm.store = self._originals["store"]
        self._controller.nvm.store_line = self._originals["store_line"]
        self._controller.nvm_log.append_data = self._originals["append"]
        self._controller = None
        self._originals = {}

    # -- reporting -------------------------------------------------------------

    @property
    def total_line_writes(self) -> int:
        return sum(self.line_writes.values())

    @property
    def distinct_lines(self) -> int:
        return len(self.line_writes)

    @property
    def max_line_writes(self) -> int:
        if not self.line_writes:
            return 0
        return max(self.line_writes.values())

    def write_amplification(self) -> float:
        """Log bytes per payload byte durably written (>= 0)."""
        if self.payload_bytes == 0:
            return 0.0
        return self.log_bytes / self.payload_bytes

    def hottest_lines(self, count: int = 10) -> List[Tuple[int, int]]:
        return self.line_writes.most_common(count)

    def percentile_line_writes(self, fraction: float) -> int:
        """Write count at the given percentile over written lines."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if not self.line_writes:
            return 0
        ordered = sorted(self.line_writes.values())
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]
