"""Differential equivalence suite for the optimized hot-path modules.

Every module that was rewritten for speed is checked here against a
straightforward reference implementation on seeded random operation
streams: the optimized code must produce *exactly* the same observable
behaviour.  Two seeds per stream guard against a lucky sequence.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import asdict

import pytest

from repro.cache.setassoc import SetAssociativeArray
from repro.mem.dram_cache import DramCache
from repro.params import CacheGeometry, LINE_SIZE, MemoryConfig
from repro.signatures.bloom import BankedBloomFilter, BloomFilter
from repro.signatures.hashing import MultiplicativeHashFamily
from repro.sim.stats import Histogram

SEEDS = (2020, 7)


# ---------------------------------------------------------------- signatures


class ReferenceBloom:
    """A Bloom filter as a plain set of bit indices (no big-int tricks)."""

    def __init__(self, family: MultiplicativeHashFamily) -> None:
        self._family = family
        self._bits: set = set()

    def insert(self, value: int) -> None:
        self._bits.update(self._family.indices_for(value))

    def maybe_contains(self, value: int) -> bool:
        return all(i in self._bits for i in self._family.indices_for(value))

    @property
    def popcount(self) -> int:
        return len(self._bits)


@pytest.mark.parametrize("seed", SEEDS)
def test_bloom_filter_matches_reference(seed):
    rng = random.Random(seed)
    family = MultiplicativeHashFamily(4, 256)
    optimized = BloomFilter(256, 4, family=family)
    reference = ReferenceBloom(family)
    values = [rng.randrange(1 << 32) for _ in range(300)]
    for value in values[:150]:
        optimized.insert(value)
        reference.insert(value)
    assert optimized.popcount == reference.popcount
    for value in values:
        assert optimized.maybe_contains(value) == reference.maybe_contains(
            value
        ), f"membership diverged for {value:#x}"
        key = optimized.probe_key(value)
        assert optimized.contains_key(key) == reference.maybe_contains(value)


@pytest.mark.parametrize("seed", SEEDS)
def test_banked_bloom_matches_per_bank_reference(seed):
    rng = random.Random(seed)
    optimized = BankedBloomFilter(256, 4)
    family = optimized.family
    banks = [set() for _ in range(4)]
    values = [rng.randrange(1 << 32) for _ in range(300)]
    for value in values[:150]:
        optimized.insert(value)
        for bank, index in enumerate(family.indices_for(value)):
            banks[bank].add(index)
    assert optimized.popcount == sum(len(b) for b in banks)
    for value in values:
        expected = all(
            index in banks[bank]
            for bank, index in enumerate(family.indices_for(value))
        )
        assert optimized.maybe_contains(value) == expected


# ---------------------------------------------------------------- setassoc


class ReferenceArray:
    """LRU set-associative tags on OrderedDicts, written for clarity."""

    def __init__(self, sets: int, ways: int) -> None:
        self._sets = [OrderedDict() for _ in range(sets)]
        self._num_sets = sets
        self._ways = ways
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _bucket(self, line_addr: int) -> OrderedDict:
        return self._sets[(line_addr // LINE_SIZE) % self._num_sets]

    def lookup(self, line_addr: int):
        bucket = self._bucket(line_addr)
        if line_addr not in bucket:
            self.misses += 1
            return None
        bucket.move_to_end(line_addr)
        self.hits += 1
        return bucket[line_addr]

    def peek(self, line_addr: int):
        return self._bucket(line_addr).get(line_addr)

    def install(self, line_addr: int):
        bucket = self._bucket(line_addr)
        victims = []
        while len(bucket) >= self._ways:
            victim_addr, victim = bucket.popitem(last=False)
            victims.append(victim_addr)
            self.evictions += 1
        bucket[line_addr] = line_addr
        return victims

    def remove(self, line_addr: int):
        return self._bucket(line_addr).pop(line_addr, None)

    def resident_lines(self):
        lines = []
        for bucket in self._sets:
            lines.extend(bucket.keys())
        return lines


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("sets,ways", [(4, 2), (3, 2), (8, 1)])
def test_setassoc_matches_reference(seed, sets, ways):
    """Power-of-two (mask path) and non-power-of-two (modulo path) sets."""
    rng = random.Random(seed)
    geometry = CacheGeometry(size_bytes=sets * ways * LINE_SIZE, ways=ways)
    assert geometry.num_sets == sets
    optimized = SetAssociativeArray(geometry, "diff")
    reference = ReferenceArray(sets, ways)
    lines = [i * LINE_SIZE for i in range(4 * sets * ways)]
    for _ in range(600):
        line = rng.choice(lines)
        op = rng.randrange(4)
        if op == 0:
            assert (optimized.lookup(line) is None) == (
                reference.lookup(line) is None
            )
        elif op == 1:
            assert (optimized.peek(line) is None) == (
                reference.peek(line) is None
            )
        elif op == 2:
            if optimized.peek(line) is None:
                victims = [v.line_addr for v in optimized.install(line)]
                assert victims == reference.install(line)
        else:
            removed = optimized.remove(line)
            assert (removed is None) == (reference.remove(line) is None)
        assert optimized.hits == reference.hits
        assert optimized.misses == reference.misses
        assert optimized.evictions == reference.evictions
    assert optimized.resident_lines() == reference.resident_lines()


# ---------------------------------------------------------------- histogram


@pytest.mark.parametrize("seed", SEEDS)
def test_histogram_matches_eager_reference(seed):
    """The deferred-flush histogram must equal an eagerly computed one."""
    rng = random.Random(seed)
    histogram = Histogram()
    recorded = []
    for step in range(500):
        value = rng.choice(
            [0.0, 0.5, 1.0, float(rng.randrange(1, 1 << 20)), 3.25e6]
        )
        histogram.record(value)
        recorded.append(value)
        if step % 97 == 0:  # interleave reads to exercise partial flushes
            assert histogram.count == len(recorded)
    assert histogram.count == len(recorded)
    assert histogram.mean == pytest.approx(sum(recorded) / len(recorded))
    assert histogram.max == max(recorded)

    top = 39
    expected_counts = [0] * 40
    for value in recorded:
        index = 0 if value < 1 else min(top, int(value).bit_length() - 1)
        expected_counts[index] += 1
    assert histogram.nonzero_buckets() == [
        (i, c) for i, c in enumerate(expected_counts) if c
    ]


# ---------------------------------------------------------------- dram cache


class _RecordingNvm:
    """Stands in for the NVM backing store; records bulk line stores."""

    def __init__(self) -> None:
        self.stored = []

    def store_line(self, words) -> None:
        self.stored.append(dict(sorted(words.items())))


class ReferenceDramCache:
    """The DRAM cache with the original front-to-back victim scan."""

    def __init__(self, capacity_lines: int, nvm: _RecordingNvm) -> None:
        self._capacity = capacity_lines
        self._nvm = nvm
        self._entries: "OrderedDict[int, list]" = OrderedDict()
        # entry layout: [words, tx_id, committed, invalid]
        self.drains = 0
        self.overcommits = 0

    def lookup(self, line_addr: int):
        entry = self._entries.get(line_addr)
        if entry is None or entry[3]:
            return None
        self._entries.move_to_end(line_addr)
        return entry

    def fill(self, line_addr, words, tx_id, committed):
        entry = self._entries.get(line_addr)
        if entry is not None and not entry[3]:
            if entry[2] and not committed:
                # Committed data is written back before an uncommitted
                # owner shares its entry (an abort would invalidate it).
                self._nvm.store_line(entry[0])
                self.drains += 1
            entry[0].update(words)
            entry[1] = tx_id
            entry[2] = committed
            self._entries.move_to_end(line_addr)
            return
        self._entries[line_addr] = [dict(words), tx_id, committed, False]
        self._entries.move_to_end(line_addr)
        while len(self._entries) > self._capacity:
            victim = self._pick_victim()
            if victim is None:
                self.overcommits += 1
                break
            self._drain(victim)

    def mark_committed(self, line_addr, tx_id):
        entry = self._entries.get(line_addr)
        if entry is None or entry[3] or entry[1] != tx_id:
            return False
        entry[2] = True
        return True

    def invalidate(self, line_addr, tx_id):
        entry = self._entries.get(line_addr)
        if entry is None or entry[1] != tx_id or entry[2]:
            return False
        entry[3] = True
        return True

    def _pick_victim(self):
        for line_addr, entry in self._entries.items():  # LRU order
            if entry[3] or entry[2]:
                return line_addr
        return None

    def _drain(self, line_addr):
        entry = self._entries.pop(line_addr)
        if entry[3]:
            return
        self._nvm.store_line(entry[0])
        self.drains += 1

    def resident_lines(self):
        return [
            (addr, entry[2], entry[3])
            for addr, entry in self._entries.items()
        ]


@pytest.mark.parametrize("seed", SEEDS)
def test_dram_cache_heap_victim_matches_scan_reference(seed):
    """The lazy-heap victim picker must evict exactly what the scan did."""
    rng = random.Random(seed)
    capacity = 8
    config = MemoryConfig(dram_cache_bytes=capacity * LINE_SIZE)
    real_nvm = _RecordingNvm()
    ref_nvm = _RecordingNvm()
    optimized = DramCache(config, real_nvm)
    assert optimized.capacity_lines == capacity
    reference = ReferenceDramCache(capacity, ref_nvm)

    lines = [i * LINE_SIZE for i in range(32)]
    tx_ids = [1, 2, 3]
    for _ in range(800):
        line = rng.choice(lines)
        tx = rng.choice(tx_ids)
        op = rng.randrange(4)
        if op == 0:
            words = {line + 8 * k: rng.randrange(1 << 16) for k in range(2)}
            committed = rng.random() < 0.5
            optimized.fill(line, words, tx, committed)
            reference.fill(line, words, tx, committed)
        elif op == 1:
            assert optimized.mark_committed(line, tx) == reference.mark_committed(
                line, tx
            )
        elif op == 2:
            assert optimized.invalidate(line, tx) == reference.invalidate(
                line, tx
            )
        else:
            assert (optimized.lookup(line) is None) == (
                reference.lookup(line) is None
            )
        assert optimized.resident_lines() == reference.resident_lines()
        assert optimized.drains == reference.drains
        assert optimized.overcommits == reference.overcommits
        assert real_nvm.stored == ref_nvm.stored


# ---------------------------------------------------------------- end to end


@pytest.mark.parametrize("seed", SEEDS)
def test_end_to_end_metrics_are_deterministic(seed):
    """Two identical runs produce bit-identical metric dicts (per seed)."""
    from repro.harness.config import ExperimentSpec, consolidated
    from repro.harness.runner import run_experiment
    from repro.params import HTMConfig
    from repro.workloads import WorkloadParams

    spec = ExperimentSpec(
        name="diff-e2e",
        htm=HTMConfig(),
        benchmarks=consolidated(
            "hashmap",
            2,
            WorkloadParams(
                threads=2,
                txs_per_thread=2,
                value_bytes=16 << 10,
                keys=64,
                initial_fill=16,
            ),
        ),
        scale=1 / 64,
        seed=seed,
    )
    first = asdict(run_experiment(spec))
    second = asdict(run_experiment(spec))
    assert first == second
    assert first["commits"] > 0
