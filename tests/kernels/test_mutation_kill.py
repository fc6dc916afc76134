"""Mutation kill-tests: seeded kernel bugs must trip the harness.

Each mutant below plants one representative bug from a class the shipped
kernels could realistically have (a dropped mask bit, a toggled mask, an
off-by-one set index, an MRU victim, a shifted histogram bucket, a wrong
latency constant in the fused dispatcher).  The harness replays the *same*
recorded sequences the shipped classes pass in the differential tier — if a
mutant survives, the tier is not actually capable of detecting that
divergence and the test fails.
"""

import pytest

from kernel_harness import (
    DifferentialHarness,
    Divergence,
    GuardedArray,
    ModelBloom,
    ModelHistogram,
    ModelSetAssoc,
    bloom_ops,
    bloom_state,
    histogram_ops,
    histogram_state,
    setassoc_ops,
    setassoc_state,
)

from repro.cache.setassoc import CacheLineMeta, SetAssociativeArray
from repro.htm.batch import BatchDispatcher
from repro.mem.address import MemoryKind
from repro.params import LINE_SIZE, CacheGeometry, HTMConfig, MachineConfig
from repro.runtime.system import System
from repro.signatures.bloom import BloomFilter
from repro.signatures.hashing import shared_multiplicative
from repro.sim.stats import Histogram


def kill(reference, mutant, state_fn, ops):
    """The mutant must diverge from the reference somewhere in ``ops``."""
    harness = DifferentialHarness(reference, mutant, state_fn=state_fn)
    with pytest.raises(Divergence):
        harness.replay(ops)


# -- Bloom mutants -----------------------------------------------------------


class DroppedBitBloom(BloomFilter):
    """Sets k-1 of the k probe bits: a masked-out hash function."""

    def insert(self, value):
        for index in self._family.indices_for(value)[:-1]:
            self._array |= 1 << index
        self._inserted += 1


class FlippedMaskBloom(BloomFilter):
    """XORs the probe mask in where an OR belongs: overlaps clear bits."""

    def insert(self, value):
        self._array ^= self._family.or_mask(value)
        self._inserted += 1


def bloom_family():
    return shared_multiplicative(4, 1024, seed=0x5EED)


@pytest.mark.parametrize("mutant_cls", [DroppedBitBloom, FlippedMaskBloom])
def test_bloom_mutants_killed(mutant_cls):
    family = bloom_family()
    kill(
        ModelBloom(1024, 4, family),
        mutant_cls(1024, 4, family),
        bloom_state,
        bloom_ops(2020),
    )


def test_real_bloom_passes_same_sequence():
    family = bloom_family()
    harness = DifferentialHarness(
        ModelBloom(1024, 4, family),
        BloomFilter(1024, 4, family),
        state_fn=bloom_state,
    )
    harness.replay(bloom_ops(2020))


# -- Set-associative mutants -------------------------------------------------


class _RotatedSets(list):
    """Set storage whose index lands one slot over."""

    def __getitem__(self, index):
        return super().__getitem__((index + 1) % len(self))


class OffByOneSetIndex(SetAssociativeArray):
    """Maps every line one set over: the classic ``_set_mask`` bug class."""

    def __init__(self, geometry, name):
        super().__init__(geometry, name)
        self._sets = _RotatedSets(self._sets)


class MRUVictim(SetAssociativeArray):
    """Evicts the most-recently-used way instead of the least."""

    def fill(self, line_addr):
        bucket = self._set_of(line_addr)
        if len(bucket) < self._ways:
            return super().fill(line_addr)
        victim = bucket.pop(next(reversed(bucket)))
        self.evictions += 1
        meta = CacheLineMeta(line_addr)
        bucket[line_addr] = meta
        return meta, [victim]


def setassoc_pair(mutant_cls, num_sets=4, ways=2):
    geometry = CacheGeometry(size_bytes=num_sets * ways * LINE_SIZE, ways=ways)
    return (
        GuardedArray(ModelSetAssoc(geometry)),
        GuardedArray(mutant_cls(geometry, name="mut")),
    )


@pytest.mark.parametrize("mutant_cls", [OffByOneSetIndex, MRUVictim])
def test_setassoc_mutants_killed(mutant_cls):
    reference, mutant = setassoc_pair(mutant_cls)
    kill(reference, mutant, setassoc_state, setassoc_ops(2020, lines=32))


def test_real_setassoc_passes_same_sequence():
    reference, candidate = setassoc_pair(SetAssociativeArray)
    harness = DifferentialHarness(
        reference, candidate, state_fn=setassoc_state
    )
    harness.replay(setassoc_ops(2020, lines=32))


# -- Histogram mutant --------------------------------------------------------


class ShiftedBucketHistogram(Histogram):
    """Buckets every value one power of two low."""

    __slots__ = ()

    def record(self, value):
        super().record(value / 2 if value >= 2 else value)


def test_histogram_mutant_killed():
    kill(
        ModelHistogram(),
        ShiftedBucketHistogram(),
        histogram_state,
        histogram_ops(2020),
    )


def test_real_histogram_passes_same_sequence():
    harness = DifferentialHarness(
        ModelHistogram(), Histogram(), state_fn=histogram_state
    )
    harness.replay(histogram_ops(2020))


# -- Latency mutant ----------------------------------------------------------


class WrongL1Constant(BatchDispatcher):
    """Charges llc_ns for an L1 hit: the wrong level's latency."""

    def __init__(self, htm, epoch_stats):
        super().__init__(htm, epoch_stats)
        self._l1_hit_ns = htm.machine.latency.llc_ns


def sweep_run(mutant_cls=None):
    """Block sweeps over more lines than an L1 holds.

    Each read-modify-write pair misses the L1 on its read (an LLC hit or a
    memory access) and hits it on its write.
    """
    system = System(MachineConfig.scaled(1 / 64, cores=2), HTMConfig())
    if mutant_cls is None:
        system.htm.batch = None  # the per-op reference
    else:
        system.htm.batch = mutant_cls(system.htm, system.engine.epoch_stats)
    lines = 4 * system.machine.l1.size_bytes // LINE_SIZE
    base = system.heap.alloc(lines * LINE_SIZE, MemoryKind.DRAM)
    addrs = [base + i * LINE_SIZE for i in range(lines)]

    def worker(api):
        for _ in range(4):
            for start in range(0, lines, 16):
                api.nontx.rmw_add_block(addrs[start:start + 16], 1)
                yield

    system.process("sweep").thread(worker)
    system.run()
    return system.elapsed_ns, system.stats.snapshot()


def test_latency_mutant_killed():
    reference = sweep_run()
    assert sweep_run(BatchDispatcher) == reference
    assert sweep_run(WrongL1Constant) != reference
