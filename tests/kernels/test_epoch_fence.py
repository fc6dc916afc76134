"""Epoch-fence mutation kill-tests and fused/per-op interleaving properties.

Fused epoch dispatch's correctness story has two legs: the fused block
loops are bit-identical to the per-op walk when batching is legal — also
with a tracer attached or the bandwidth model on, because the L1 miss path,
the eviction handlers and conflict resolution are the shared code both
walks call — and the dependency fence drops every block back to per-op
dispatch whenever per-op ordering is observable from outside the loop
(trace capture, fault injector).  The reference for both is the same
System with ``htm.batch`` set to None, which makes every block operation
take the per-word walk.  Each mutant below weakens one leg and must be
*caught* by the same fingerprints the differential tier compares — if a
mutant survives, the tier cannot actually detect that bug class.

The Hypothesis suite at the bottom searches the interleaving space the
recorded scenarios only sample: random per-thread schedules of
transactional block writes/reads and non-transactional RMW sweeps over
shared DRAM and NVM chunks, with yield points inside transactions so they
genuinely overlap.  Per-op and fused runs of the same schedule must agree
on the full counter snapshot and the simulated end time, with and without
the bandwidth model.
"""

import dataclasses

import pytest

from repro.htm.batch import BatchDispatcher
from repro.mem.address import MemoryKind
from repro.obs import Tracer, attach_tracer
from repro.params import HTMConfig, LINE_SIZE, MachineConfig
from repro.runtime.system import System

SCALE = 1 / 64

#: Shared-array geometry for the conflict workload: two threads hammer the
#: same chunks, transactions yield mid-body, so conflicts and aborts occur.
CHUNK_LINES = 16


def fingerprint(system):
    """Everything a run observably produces: end time plus every counter."""
    return (system.elapsed_ns, system.stats.snapshot())


def conflict_worker(api, bases, rounds=12, width=8):
    nbytes = width * LINE_SIZE
    sweep = [bases[0] + i * LINE_SIZE for i in range(width)]
    for round_no in range(rounds):
        def body(tx, tag=round_no):
            tx.write_block(bases[0], nbytes, tag)
            yield  # scheduling boundary: transactions overlap => conflicts
            tx.read_block(bases[1], nbytes)

        yield from api.run_transaction(body)
        api.nontx.rmw_add_block(sweep, 1)
        yield


def build_system(fused, machine, seed, capture=False):
    """A System on the fused path, or its per-op reference."""
    system = System(machine, HTMConfig(), seed=seed, capture_trace=capture)
    if not fused:
        system.htm.batch = None
    return system


def make_machine(bandwidth=False):
    machine = MachineConfig.scaled(SCALE)
    if bandwidth:
        machine = dataclasses.replace(
            machine,
            memory=dataclasses.replace(machine.memory, model_bandwidth=True),
        )
    return machine


def overflow_worker(api, big, nbytes, probe, rounds=2):
    """One transaction per round writes more NVM lines than the LLC holds."""
    for round_no in range(rounds):
        def body(tx, tag=round_no):
            tx.write_block(big, nbytes, tag)
            yield
            tx.read_block(probe, 8 * LINE_SIZE)

        yield from api.run_transaction(body)
        yield


def run_conflict_workload(
    fused,
    mutant_cls=None,
    capture=False,
    bandwidth=False,
    seed=11,
    tracer=None,
    overflow=False,
):
    """Two conflicting workers; ``overflow`` adds a third whose
    transactions overflow the LLC, so their tracking moves to signatures."""
    system = build_system(
        fused, make_machine(bandwidth), seed, capture=capture
    )
    if tracer is not None:
        attach_tracer(system, tracer)
    if mutant_cls is not None:
        assert system.htm.batch is not None, "mutants replace the dispatcher"
        system.htm.batch = mutant_cls(system.htm, system.engine.epoch_stats)
    dram = system.heap.alloc(2 * CHUNK_LINES * LINE_SIZE, MemoryKind.DRAM)
    nvm = system.heap.alloc(CHUNK_LINES * LINE_SIZE, MemoryKind.NVM)
    bases = (dram, nvm)
    proc = system.process("fence")
    for _ in range(2):
        proc.thread(lambda api: conflict_worker(api, bases))
    if overflow:
        nbytes = system.machine.llc.size_bytes + 64 * LINE_SIZE
        big = system.heap.alloc(nbytes, MemoryKind.NVM)
        proc.thread(lambda api: overflow_worker(api, big, nbytes, dram))
    system.run()
    return system


# -- controls: the real dispatcher is exact and the fence holds --------------


def test_batched_matches_scalar_on_conflict_workload():
    reference = run_conflict_workload(False)
    fused = run_conflict_workload(True)
    assert reference.stats.counter("tx.aborts") > 0, "scenario must conflict"
    assert fingerprint(reference) == fingerprint(fused)
    assert fused.epoch_stats.epochs > 0, "blocks must actually batch"


def test_capture_fence_drops_to_scalar_and_stays_identical():
    reference = run_conflict_workload(False, capture=True)
    fused = run_conflict_workload(True, capture=True)
    assert fingerprint(reference) == fingerprint(fused)
    r_trace, f_trace = reference.captured_trace(), fused.captured_trace()
    assert (r_trace.total_txs(), r_trace.total_ops()) == (
        f_trace.total_txs(),
        f_trace.total_ops(),
    )
    assert f_trace.total_ops() > 0
    assert fused.epoch_stats.epochs == 0, "capture must fence every block"
    assert "capture" in fused.epoch_stats.fences


@pytest.mark.parametrize("seed", [11, 3, 7])
def test_bandwidth_model_batches_and_stays_identical(seed):
    # The fused loops' misses go through the shared miss path, which
    # queues each demand request on the channel at the thread's clock in
    # the per-op order — so the bandwidth model needs no fence.
    reference = run_conflict_workload(False, bandwidth=True, seed=seed)
    fused = run_conflict_workload(True, bandwidth=True, seed=seed)
    assert reference.controller.dram_channel is not None
    assert fingerprint(reference) == fingerprint(fused)
    assert fused.epoch_stats.epochs > 0, "blocks must batch under bandwidth"
    assert "bandwidth" not in fused.epoch_stats.fences


@pytest.mark.parametrize(
    "overflow, kinds",
    [
        (False, {"conflict.resolve", "tx.abort"}),
        (True, {"conflict.resolve", "llc.evict", "llc.overflow", "sig.check"}),
    ],
)
def test_traced_fused_run_matches_per_op_events(overflow, kinds):
    # Every event a fused block causes (llc.evict, llc.overflow,
    # conflict.resolve, tx.abort, sig.*, log.*) is emitted by shared code,
    # so a tracer fences nothing and both walks emit the same stream.
    reference_tracer, fused_tracer = Tracer(1 << 16), Tracer(1 << 16)
    reference = run_conflict_workload(
        False, tracer=reference_tracer, overflow=overflow
    )
    fused = run_conflict_workload(True, tracer=fused_tracer, overflow=overflow)
    assert fingerprint(reference) == fingerprint(fused)
    assert fused.epoch_stats.epochs > 0, "a tracer must not fence blocks"
    assert "tracer" not in fused.epoch_stats.fences
    assert reference_tracer.dropped == fused_tracer.dropped == 0
    reference_events = reference_tracer.events()
    assert kinds <= {event.kind for event in reference_events}
    assert fused_tracer.events() == reference_events


# -- mutants: each weakened fence / staging rule must be caught --------------


class FencelessDispatcher(BatchDispatcher):
    """Ignores every fence: batches even when ordering is observable."""

    def _fence_reason(self):
        return None


class SilentConflictDispatcher(BatchDispatcher):
    """Batches on a System whose conflict resolution does nothing.

    The fused loops share ``_onchip_resolution``/``_offchip_resolution``
    with the per-op walk, so the staging is skipped by patching them on
    this System's ``htm``: probes still report conflicts, nobody aborts.
    """

    def __init__(self, htm, epoch_stats):
        super().__init__(htm, epoch_stats)
        htm._onchip_resolution = lambda tx, line_addr, conflict: None
        htm._offchip_resolution = lambda requester, line_addr, hits: None


def test_fenceless_mutant_killed_by_capture_divergence():
    reference = run_conflict_workload(False, capture=True)
    mutant = run_conflict_workload(
        True, mutant_cls=FencelessDispatcher, capture=True
    )
    r_trace, m_trace = reference.captured_trace(), mutant.captured_trace()
    # The fused loops record nothing into the capture — batching past the
    # fence visibly loses trace operations.
    assert m_trace.total_ops() < r_trace.total_ops()


def test_silent_conflict_mutant_killed_by_counter_divergence():
    reference = run_conflict_workload(False)
    mutant = run_conflict_workload(
        True, mutant_cls=SilentConflictDispatcher
    )
    assert fingerprint(mutant) != fingerprint(reference)


# -- Hypothesis: random interleavings, fused == per-op -----------------------

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

op = st.tuples(
    st.sampled_from(["txw", "txr", "rmw"]),
    st.integers(min_value=0, max_value=3),  # which shared chunk
    st.sampled_from([1, 2, 4, 8, 16]),  # block width in lines
)
schedule = st.lists(op, min_size=1, max_size=10)


def run_schedule(fused, schedules, seed, bandwidth):
    system = build_system(fused, make_machine(bandwidth), seed)
    dram = system.heap.alloc(2 * CHUNK_LINES * LINE_SIZE, MemoryKind.DRAM)
    nvm = system.heap.alloc(2 * CHUNK_LINES * LINE_SIZE, MemoryKind.NVM)
    span = CHUNK_LINES * LINE_SIZE
    bases = (dram, dram + span, nvm, nvm + span)
    proc = system.process("prop")

    def worker(api, plan):
        for kind, chunk, width in plan:
            base = bases[chunk]
            nbytes = width * LINE_SIZE
            if kind == "rmw":
                api.nontx.rmw_add_block(
                    [base + i * LINE_SIZE for i in range(width)], 1
                )
            else:
                def body(tx, kind=kind, base=base, nbytes=nbytes):
                    if kind == "txw":
                        tx.write_block(base, nbytes, 0xB10C)
                    else:
                        tx.read_block(base, nbytes)
                    yield  # overlap with the other thread's transaction

                yield from api.run_transaction(body)
            yield

    for plan in schedules:
        proc.thread(lambda api, plan=plan: worker(api, plan))
    system.run()
    return fingerprint(system)


@settings(max_examples=20, deadline=None)
@given(
    schedules=st.lists(schedule, min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**16),
    bandwidth=st.booleans(),
)
def test_batched_matches_scalar_over_random_interleavings(
    schedules, seed, bandwidth
):
    assert run_schedule(False, schedules, seed, bandwidth) == run_schedule(
        True, schedules, seed, bandwidth
    )
