"""Fault-injection campaigns: sweep seeded crash points, verify every one.

A campaign builds a fresh simulated machine per plan (same workload, same
seed — the runs are deterministic, so two executions of one plan are
bit-identical), cuts the power where the plan says, recovers, and asks the
:class:`~repro.faults.oracle.CrashOracle` whether exactly the committed
prefix survived.  A probe run (no injection, final power cut only) first
measures the event space — how many NVM log appends, commit marks, engine
steps, replayable lines a run produces — so sampled crash points land where
something actually happens.

When a plan fails the oracle, the campaign hands it to the
:mod:`~repro.faults.minimize` shrinker, which returns the smallest plan that
still reproduces the inconsistency — the line to paste into a regression
test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import ConfigError, PowerFailure
from ..sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover
    import random
from ..harness.metrics import CampaignMetrics
from ..harness.report import FigureResult
from ..htm.recovery import RecoveryReport
from ..mem.address import MemoryKind
from ..params import HTMConfig, MachineConfig
from ..workloads import WORKLOADS, WorkloadParams
from .injector import FaultInjector
from .oracle import CrashOracle, OracleVerdict
from .plan import CrashPoint, FaultPlan, TriggerKind

#: Run-phase kinds a sampled plan may crash at, with sampling weights.
_SAMPLED_KINDS: Tuple[Tuple[TriggerKind, int], ...] = (
    (TriggerKind.NVM_LOG_APPEND, 4),
    (TriggerKind.PRE_COMMIT_MARK, 2),
    (TriggerKind.COMMIT_MARK, 2),
    (TriggerKind.MID_COMMIT, 2),
    (TriggerKind.ENGINE_STEP, 2),
    (TriggerKind.SIM_TIME, 1),
)

#: One sampled plan in this many gets a stacked crash-during-recovery step.
_RECOVERY_STACK_RATE = 4


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one campaign needs; small enough to sweep by hand."""

    workload: str = "hashmap"
    crashes: int = 50
    seed: int = 1
    design: str = "uhtm"
    threads: int = 2
    txs_per_thread: int = 3
    ops_per_tx: int = 1
    #: Paper-scale value size (shrunk by the 1/64 machine scale).
    value_bytes: int = 8 << 10
    keys: int = 32
    initial_fill: int = 8
    #: Seeded durability bug for oracle self-validation (``None`` = sound
    #: machine; ``"skip_commit_mark"`` = drop every durable commit mark).
    inject_bug: Optional[str] = None
    minimize_failures: bool = True

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {self.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        if self.crashes < 1:
            raise ConfigError("crashes must be >= 1")
        if self.inject_bug not in (None, "skip_commit_mark"):
            raise ConfigError(f"unknown injected bug {self.inject_bug!r}")


@dataclass
class EventCounts:
    """The event space measured by the probe run."""

    nvm_log_appends: int = 0
    commit_marks: int = 0
    mid_commits: int = 0
    engine_steps: int = 0
    recovery_replays: int = 0
    end_ns: float = 0.0

    def of(self, kind: TriggerKind) -> int:
        return {
            TriggerKind.NVM_LOG_APPEND: self.nvm_log_appends,
            TriggerKind.PRE_COMMIT_MARK: self.commit_marks,
            TriggerKind.COMMIT_MARK: self.commit_marks,
            TriggerKind.MID_COMMIT: self.mid_commits,
            TriggerKind.ENGINE_STEP: self.engine_steps,
            TriggerKind.SIM_TIME: 0,
            TriggerKind.RECOVERY_REPLAY: self.recovery_replays,
        }[kind]


@dataclass
class PlanOutcome:
    """One executed plan: where it crashed and what the oracle said."""

    plan: FaultPlan
    verdict: OracleVerdict
    report: RecoveryReport
    #: Descriptions of the crash points that actually fired (a run-phase
    #: point with an ordinal past the event space never fires — the run
    #: completes and the campaign cuts power at the end instead).
    fired: List[str] = field(default_factory=list)
    crashes: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict.ok


@dataclass
class CampaignResult:
    """A finished campaign, ready for reporting/export."""

    config: CampaignConfig
    counts: EventCounts
    outcomes: List[PlanOutcome]
    minimized: Optional[FaultPlan] = None
    minimizer_runs: int = 0

    @property
    def crash_points_tested(self) -> int:
        return len(self.outcomes)

    @property
    def recoveries_verified(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failures(self) -> List[PlanOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def replayed_lines(self) -> int:
        return sum(o.report.replayed_lines for o in self.outcomes)

    @property
    def discarded_records(self) -> int:
        return sum(o.report.discarded_records for o in self.outcomes)

    @property
    def ok(self) -> bool:
        return not self.failures

    def metrics(self) -> CampaignMetrics:
        return CampaignMetrics(
            workload=self.config.workload,
            crash_points_tested=self.crash_points_tested,
            recoveries_verified=self.recoveries_verified,
            failures=len(self.failures),
            replayed_lines=self.replayed_lines,
            discarded_records=self.discarded_records,
            minimized_plan_steps=(
                len(self.minimized) if self.minimized is not None else None
            ),
        )

    def to_figure(self) -> FigureResult:
        """Render per-trigger-kind coverage as a report/export table."""
        result = FigureResult(
            figure="faults",
            title=(
                f"Fault campaign: {self.config.workload} × "
                f"{self.crash_points_tested} crash points "
                f"(design={self.config.design}, seed={self.config.seed})"
            ),
            columns=["crash point", "plans", "fired", "verified", "failed"],
        )
        by_kind: Dict[str, List[PlanOutcome]] = {}
        for outcome in self.outcomes:
            key = (
                outcome.plan.steps[0].kind.value
                if outcome.plan.steps
                else "run_to_completion"
            )
            if len(outcome.plan) > 1:
                key += "+recovery"
            by_kind.setdefault(key, []).append(outcome)
        for key in sorted(by_kind):
            group = by_kind[key]
            result.add_row(
                key,
                len(group),
                sum(1 for o in group if o.fired),
                sum(1 for o in group if o.ok),
                sum(1 for o in group if not o.ok),
            )
        result.note(
            f"{self.recoveries_verified}/{self.crash_points_tested} recoveries "
            f"verified; {self.replayed_lines} lines replayed, "
            f"{self.discarded_records} uncommitted records discarded"
        )
        if self.failures:
            first = self.failures[0]
            result.note(f"first failure: plan [{first.plan.describe()}] — "
                        f"{first.verdict.describe()}")
        if self.minimized is not None:
            result.note(
                f"minimized reproducer ({len(self.minimized)} step(s), "
                f"{self.minimizer_runs} shrink runs): "
                f"[{self.minimized.describe()}]"
            )
        return result


# -- machine construction ----------------------------------------------------


def build_system(config: CampaignConfig):
    """A fresh machine + workload + armed oracle for one campaign run."""
    from ..runtime.system import System  # deferred: keeps import cycle out

    system = System(
        MachineConfig.scaled(1 / 64, cores=max(2, config.threads)),
        HTMConfig(design=config.design),
        seed=config.seed,
    )
    process = system.process(config.workload)
    params = WorkloadParams(
        threads=config.threads,
        txs_per_thread=config.txs_per_thread,
        ops_per_tx=config.ops_per_tx,
        value_bytes=config.value_bytes,
        keys=config.keys,
        initial_fill=config.initial_fill,
        kind=MemoryKind.NVM,
    )
    workload = WORKLOADS[config.workload](system, process, params)
    workload.spawn()  # runs setup, publishes its pre-fill, adds threads
    oracle = CrashOracle(system)
    oracle.arm()  # baseline = post-setup NVM contents
    return system, workload, oracle


# -- plan execution ----------------------------------------------------------


def execute_plan(config: CampaignConfig, plan: FaultPlan) -> PlanOutcome:
    """Run one plan on a fresh machine; crash, recover, ask the oracle."""
    system, _workload, oracle = build_system(config)
    injector = FaultInjector(
        suppress_commit_marks=(config.inject_bug == "skip_commit_mark")
    )
    system.install_fault_injector(injector)

    fired: List[str] = []
    crashes = 0
    run_step = plan.run_step
    if run_step is not None:
        injector.arm(run_step)
    try:
        system.run()
        injector.disarm()  # the armed point never fired; run completed
    except PowerFailure as failure:
        fired.append(failure.description)
    system.crash()  # power is cut either way: at the plan's point or the end
    crashes += 1

    report: Optional[RecoveryReport] = None
    for step in plan.recovery_steps:
        injector.arm(step)
        try:
            report = system.recover()
            injector.disarm()
            break  # recovery finished before the point fired
        except PowerFailure as failure:
            fired.append(failure.description)
            system.crash()
            crashes += 1
    else:
        report = None
    if report is None:
        report = system.recover()  # final, uninterrupted recovery
    verdict = oracle.verify()
    return PlanOutcome(
        plan=plan, verdict=verdict, report=report, fired=fired, crashes=crashes
    )


# -- the probe ---------------------------------------------------------------


def probe_events(config: CampaignConfig) -> Tuple[EventCounts, PlanOutcome]:
    """Measure the event space with an uninjected run + final power cut."""
    system, _workload, oracle = build_system(config)
    injector = FaultInjector(
        suppress_commit_marks=(config.inject_bug == "skip_commit_mark")
    )
    system.install_fault_injector(injector)  # counting mode: never armed
    system.run()
    end_ns = system.elapsed_ns
    system.crash()
    report = system.recover()
    counts = EventCounts(
        nvm_log_appends=injector.counts[TriggerKind.NVM_LOG_APPEND],
        commit_marks=injector.counts[TriggerKind.PRE_COMMIT_MARK],
        mid_commits=injector.counts[TriggerKind.MID_COMMIT],
        engine_steps=injector.counts[TriggerKind.ENGINE_STEP],
        recovery_replays=injector.counts[TriggerKind.RECOVERY_REPLAY],
        end_ns=end_ns,
    )
    outcome = PlanOutcome(
        plan=FaultPlan(), verdict=oracle.verify(), report=report, crashes=1
    )
    return counts, outcome


# -- sampling ----------------------------------------------------------------


def sample_plans(
    rng: "random.Random", counts: EventCounts, crashes: int
) -> List[FaultPlan]:
    """Seeded crash points spread over the measured event space.

    Ordinals run up to slightly past the event count, so run-to-completion
    power cuts stay in the mix; roughly one plan in four stacks a
    crash-during-recovery step on top.
    """
    population = [kind for kind, weight in _SAMPLED_KINDS for _ in range(weight)]
    plans: List[FaultPlan] = []
    for _ in range(crashes):
        kind = rng.choice(population)
        if kind is TriggerKind.SIM_TIME:
            step = CrashPoint(
                TriggerKind.SIM_TIME,
                at_ns=rng.uniform(0.0, max(1.0, counts.end_ns)),
            )
        else:
            ceiling = max(1, counts.of(kind)) + 2  # +2: include "never fires"
            step = CrashPoint(kind, ordinal=rng.randint(1, ceiling))
        steps = (step,)
        if (
            counts.recovery_replays > 0
            and rng.randrange(_RECOVERY_STACK_RATE) == 0
        ):
            replay_at = rng.randint(1, max(1, counts.recovery_replays))
            steps += (CrashPoint(TriggerKind.RECOVERY_REPLAY, replay_at),)
        plans.append(FaultPlan(steps))
    return plans


# -- the campaign ------------------------------------------------------------


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Probe, sample, execute every plan, and shrink the first failure."""
    from .minimize import minimize_plan  # deferred: minimize imports campaign

    counts, probe_outcome = probe_events(config)
    rng = RngStreams(config.seed).stream("faults.plan_sampling")
    plans = sample_plans(rng, counts, config.crashes - 1)
    outcomes = [probe_outcome]  # the uninjected final power cut counts too
    for plan in plans:
        outcomes.append(execute_plan(config, plan))
    result = CampaignResult(config=config, counts=counts, outcomes=outcomes)
    if config.minimize_failures and result.failures:
        minimized = minimize_plan(config, result.failures[0].plan)
        result.minimized = minimized.plan
        result.minimizer_runs = minimized.runs
    return result
