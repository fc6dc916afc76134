"""Exception hierarchy for the UHTM reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.  Transaction
aborts are *control flow*, not failures: :class:`TransactionAborted` unwinds a
speculative execution back to the retry loop, exactly as a hardware abort
rolls the architectural state back to the ``xbegin`` checkpoint.
"""

from __future__ import annotations

import enum


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value."""


class AllocationError(ReproError):
    """The simulated allocator ran out of space in a memory region."""


class AddressError(ReproError):
    """An address fell outside any mapped memory region."""


class LogOverflowError(ReproError):
    """A hardware log area ran out of reserved space."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class RecoveryError(ReproError):
    """Post-crash recovery found a malformed or inconsistent log."""


class CorruptStructureError(ReproError):
    """A walk over a heap data structure revisited a node: its pointers
    form a cycle, so the walk would otherwise never end."""


class PowerFailure(ReproError):
    """A simulated power failure cut the machine mid-operation.

    Raised by an armed :class:`repro.faults.FaultInjector` at its crash
    point; it unwinds the entire simulation (through workload generators and
    the engine run loop) back to the fault-campaign driver, which then wipes
    volatile state and runs recovery.  Like :class:`TransactionAborted` it is
    control flow, not a failure of the library.
    """

    def __init__(self, description: str) -> None:
        super().__init__(f"power failure: {description}")
        self.description = description


class AbortReason(enum.Enum):
    """Why a transaction was aborted.

    The harness decomposes abort counts by these reasons to regenerate the
    paper's Figure 7 (true conflicts vs. false positives vs. capacity
    overflows).
    """

    #: A genuine data conflict detected through the coherence directory.
    CONFLICT_COHERENCE = "conflict_coherence"
    #: A genuine data conflict on an LLC-overflowed line (signature hit that
    #: corresponds to a real address overlap).
    CONFLICT_TRUE = "conflict_true"
    #: A signature hit with no real address overlap (Bloom-filter aliasing).
    FALSE_POSITIVE = "false_positive"
    #: The transaction exceeded the design's capacity bound (bounded HTMs).
    CAPACITY = "capacity"
    #: A non-transactional access (e.g. a co-running process) collided with
    #: the transaction's footprint.
    NON_TX_CONFLICT = "non_tx_conflict"
    #: The fallback lock was acquired by another thread, killing all
    #: speculative transactions in the conflict domain (Algorithm 1).
    LOCK_PREEMPTED = "lock_preempted"
    #: The user requested an explicit abort.
    EXPLICIT = "explicit"


class TransactionAborted(ReproError):
    """Unwinds a speculative execution back to its retry loop.

    Attributes:
        reason: why the hardware aborted the transaction.
        tx_id: the aborted transaction's identifier.
    """

    def __init__(self, reason: AbortReason, tx_id: int) -> None:
        super().__init__(f"transaction {tx_id} aborted: {reason.value}")
        self.reason = reason
        self.tx_id = tx_id


class TransactionStateError(ReproError):
    """A transactional operation was issued in an invalid state."""
