"""Staged pre-fill against the plain functional reference.

``Workload.spawn()`` runs ``setup()`` against a :class:`PrefillContext`
and publishes the staged image in one bulk store; calling ``setup()``
with a :class:`RawContext` stores every word as it is written.  Both must
leave byte-identical memory (insertion order included) and the same heap
footprint, for every registered workload.
"""

from __future__ import annotations

import pytest

from repro import HTMConfig, MachineConfig, System
from repro.errors import AddressError
from repro.mem.address import MemoryKind
from repro.runtime import PrefillContext, RawContext
from repro.workloads import WORKLOADS, Workload, WorkloadParams

SMOKE = WorkloadParams(
    threads=2, txs_per_thread=2, value_bytes=16 << 10, keys=64, initial_fill=16
)


def make_system():
    return System(MachineConfig.scaled(1 / 64, cores=4), HTMConfig(), seed=2020)


def build(names, staged):
    system = make_system()
    workloads = []
    for index, name in enumerate(names):
        process = system.process(f"{name}#{index}")
        workload = WORKLOADS[name](system, process, SMOKE)
        if staged:
            workload.spawn()
        else:
            workload.raw = RawContext(system.controller)
            workload.setup()
        workloads.append(workload)
    return system, workloads


def image(system):
    controller = system.controller
    return (
        list(controller.dram.words()),
        list(controller.nvm.words()),
        {
            kind: system.heap.allocator(kind).high_water_bytes
            for kind in (MemoryKind.DRAM, MemoryKind.NVM)
        },
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_staged_prefill_matches_raw_setup(name):
    staged, (workload,) = build([name], staged=True)
    raw, _ = build([name], staged=False)
    assert image(staged) == image(raw)
    assert isinstance(workload.raw, RawContext)


def test_second_workload_reads_the_first_ones_published_words():
    names = ["hashmap", "hybrid_index", "dual_kv"]
    staged, workloads = build(names, staged=True)
    raw, _ = build(names, staged=False)
    assert image(staged) == image(raw)
    assert all(workload.verify() for workload in workloads)


class _BadValue(Workload):
    name = "bad_value"

    def setup(self):
        addr = self.system.heap.alloc_words(1, MemoryKind.DRAM)
        self.raw.write_word(addr, "not an int")

    def thread_bodies(self):
        return []


def test_bad_prefill_value_raises_from_spawn():
    system = make_system()
    workload = _BadValue(system, system.process("bad"), SMOKE)
    with pytest.raises(AddressError, match="str"):
        workload.spawn()
    assert isinstance(workload.raw, RawContext)
    assert list(system.controller.dram.words()) == []


def test_prefill_reads_back_staged_words_and_falls_through():
    system = make_system()
    controller = system.controller
    dram = system.heap.alloc_words(2, MemoryKind.DRAM)
    nvm = system.heap.alloc_words(1, MemoryKind.NVM)
    controller.store_word(dram + 8, 5)
    prefill = PrefillContext(controller)
    prefill.write_word(dram, 7)
    prefill.write_word(nvm, 9)
    prefill.write_word(nvm, 10)
    assert prefill.read_word(dram) == 7
    assert prefill.read_word(dram + 8) == 5  # never staged: reads through
    assert prefill.read_word(nvm) == 10
    assert controller.load_word(dram) == 0  # nothing published yet
    with pytest.raises(AddressError, match=f"{dram + 3:#x}"):
        prefill.read_word(dram + 3)
    stored = []
    controller.on_nontx_nvm_store = stored.append
    prefill.publish()
    assert controller.load_word(dram) == 7
    assert controller.load_word(nvm) == 10
    assert stored == [nvm]  # one hook call per published word
    # After publish the context reads and writes memory directly.
    prefill.write_word(dram, 8)
    assert controller.load_word(dram) == prefill.read_word(dram) == 8
