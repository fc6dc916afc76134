"""Workloads, point execution, failure accounting and metrics.

Nothing here imports ``repro`` at module level: the benchmark times that
import as part of ``setup_s``, so :mod:`run` imports it inside the timed
region and every function below imports lazily.
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from tracer import COARSE_ENTRY_POINTS, ENTRY_POINTS, Instrumentation, Tracer

#: The bench smoke tier's machine scale (``repro bench -m smoke``).
SCALE = 1 / 64

#: The figures' default seed; the simulated inputs of every workload.
DEFAULT_WORKLOAD_SEED = 2020


def _sig_overflow(seed: int) -> list:
    from repro.harness.figures import fig7_grid

    return fig7_grid(quick=True, scale=SCALE, seed=seed)


def _llc_bounded(seed: int) -> list:
    from repro.harness.figures import fig2_grid

    return fig2_grid(quick=True, scale=SCALE, seed=seed)


def _hybrid_kv(seed: int) -> list:
    from repro.harness.figures import fig9_grid

    # fig9 keys are (workload, footprint_kb, design label, run seed); keep
    # the paper's design and the bounded baseline, one seed per point.
    return [
        point
        for point in fig9_grid(quick=True, scale=SCALE, seed=seed)
        if point.key[2] in ("LLC-Bounded", "1k_opt") and point.key[3] == seed
    ]


#: Workload name -> grid builder taking the workload seed.
WORKLOADS: Dict[str, Callable[[int], list]] = {
    "sig-overflow": _sig_overflow,
    "llc-bounded": _llc_bounded,
    "hybrid-kv": _hybrid_kv,
}


class PointTimeout(Exception):
    """A point ran past the run's deadline."""


@dataclass
class Sample:
    """One execution of one grid point."""

    index: int
    total_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    begins: int = 0
    digest: Optional[str] = None
    failure: Optional[str] = None
    point_span: int = -1


def result_digest(result: Any) -> str:
    """SHA-256 of a :class:`RunResult`'s canonical JSON form."""
    from repro.harness.metrics import run_result_to_dict

    payload = json.dumps(run_result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def grid_digest(points: Sequence[Any], digests: Dict[int, str]) -> str:
    """One digest over every point's result digest, in grid order."""
    lines = [
        f"{point.key!r}|{point.label}|{digests.get(index)}"
        for index, point in enumerate(points)
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _on_alarm(_signum: int, _frame: Any) -> None:
    raise PointTimeout("point ran past the run's deadline")


def run_point(point: Any, index: int, tracer: Tracer,
              run_experiment: Callable, seconds_left: float) -> Sample:
    """Run one point under ``tracer``; never raises for a failing point.

    The point's span is the root; ``sim.run`` (always wrapped) splits it
    into set-up before the first simulated step, the run itself, and the
    verification and collection after it.
    """
    sample = Sample(index=index)
    gc.collect()
    first_span = len(tracer.spans)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds_left, 0.001))
    tracer.enter("point")
    try:
        result = run_experiment(point.spec, point.label)
    except Exception as exc:  # a failing point is counted, not fatal
        sample.failure = f"raised {type(exc).__name__}: {exc}"[:300]
        result = None
    finally:
        tracer.exit()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    spans = tracer.spans[first_span:]
    point_span = spans[0]
    sample.point_span = point_span["id"]
    sample.total_s = point_span["end"] - point_span["start"]
    runs = [s for s in spans if s["name"] == "sim.run"]
    if runs:
        sample.setup_s = runs[0]["start"] - point_span["start"]
        sample.run_s = sum(s["end"] - s["start"] for s in runs)
    if result is None:
        return sample
    sample.begins = result.begins
    sample.digest = result_digest(result)
    if not result.verified:
        sample.failure = "verify() returned False"
    elif result.begins != result.commits + result.aborts:
        sample.failure = (
            f"begins {result.begins} != commits {result.commits} "
            f"+ aborts {result.aborts}"
        )
    return sample


@dataclass
class Pass:
    """One walk over (part of) the grid, traced or not."""

    traced: bool
    tracer: Tracer
    samples: List[Sample] = field(default_factory=list)
    #: Entry points this pass could not find in the simulator.
    missing: List[str] = field(default_factory=list)


class Runner:
    """Runs passes over a grid and keeps every sample and failure."""

    def __init__(self, points: Sequence[Any], order: Sequence[int],
                 clock: Callable[[], float], deadline: float) -> None:
        from repro.harness.runner import run_experiment

        self.points = points
        self.order = list(order)
        self.clock = clock
        self.deadline = deadline
        self.passes: List[Pass] = []
        self.reference: Dict[int, str] = {}
        self._run_experiment = run_experiment

    def run_pass(self, traced: bool,
                 stop_at: Optional[float] = None) -> Pass:
        """Visit points in run order; stop early once ``stop_at`` passes."""
        tracer = Tracer(clock=self.clock)
        current = Pass(traced=traced, tracer=tracer)
        self.passes.append(current)
        entries = ENTRY_POINTS if traced else COARSE_ENTRY_POINTS
        with Instrumentation(tracer, entries) as instrumentation:
            current.missing = instrumentation.missing
            for index in self.order:
                if stop_at is not None and self.clock() >= stop_at:
                    break
                sample = run_point(
                    self.points[index], index, tracer,
                    self._run_experiment, self.deadline - self.clock(),
                )
                self._check_repeat(sample)
                current.samples.append(sample)
                if self.clock() >= self.deadline:
                    break
        return current

    def _check_repeat(self, sample: Sample) -> None:
        """A point must give the same result every time, traced or not."""
        if sample.digest is None:
            return
        first = self.reference.setdefault(sample.index, sample.digest)
        if sample.failure is None and first != sample.digest:
            sample.failure = "result differs from an earlier run of this point"

    def samples(self, traced: Optional[bool] = None) -> List[Sample]:
        return [
            sample
            for current in self.passes
            if traced is None or current.traced == traced
            for sample in current.samples
        ]

    def failures(self) -> List[Sample]:
        return [s for s in self.samples() if s.failure is not None]

    def out_of_time(self) -> bool:
        return self.clock() >= self.deadline


def _per_point_medians(samples: Sequence[Sample],
                       attribute: str) -> Dict[int, float]:
    by_point: Dict[int, List[float]] = {}
    for sample in samples:
        if sample.digest is not None:  # the point ran to completion
            by_point.setdefault(sample.index, []).append(
                getattr(sample, attribute)
            )
    return {index: statistics.median(v) for index, v in by_point.items()}


def grid_seconds(samples: Sequence[Sample], attribute: str) -> float:
    """Sum over points of each point's median ``attribute`` seconds."""
    return sum(_per_point_medians(samples, attribute).values())


def end_to_end(samples: Sequence[Sample], import_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced set of samples."""
    begins = {s.index: s.begins for s in samples if s.digest is not None}
    run_s = grid_seconds(samples, "run_s")
    return {
        "wall_s": grid_seconds(samples, "total_s"),
        "setup_s": import_s + grid_seconds(samples, "setup_s"),
        "tx_per_s": ratio(sum(begins.values()), run_s),
        "peak_rss_mb": peak_rss_mb,
    }


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    split = tracer.layer_split()
    names = tracer.names
    counts = tracer.counts

    def calls(name: str) -> int:
        stats = names.get(name)
        return stats.calls if stats is not None else 0

    true_hits = counts.get("signatures.true_hits", 0)
    false_hits = counts.get("signatures.false_hits", 0)
    sim = names.get("sim.run")
    return {
        "cache.self_s": split["cache"]["self_s"],
        "cache.calls": split["cache"]["calls"],
        "cache.llc_miss_ratio": ratio(
            counts.get("cache.llc_misses", 0), calls("cache.access")
        ),
        "signatures.self_s": split["signatures"]["self_s"],
        "signatures.probes": calls("signatures.probe"),
        "signatures.false_hit_ratio": ratio(false_hits, true_hits + false_hits),
        "htm.self_s": split["htm"]["self_s"],
        "htm.calls": split["htm"]["calls"],
        "htm.commit_ratio": ratio(
            counts.get("htm.commits", 0), calls("htm.begin")
        ),
        "htm.aborts": calls("htm.abort"),
        "mem.self_s": split["mem"]["self_s"],
        "mem.calls": split["mem"]["calls"],
        "mem.log_appends": calls("mem.log_append"),
        "workloads.fill_s": tracer.total_s("workloads.fill"),
        "workloads.verify_s": tracer.total_s("workloads.verify"),
        "sim.run_s": tracer.total_s("sim.run"),
        "sim.self_s": sim.self_s if sim is not None else 0.0,
        "runtime.build_s": tracer.total_s("runtime.build"),
        "harness.collect_s": tracer.total_s("harness.collect"),
    }


def median_metrics(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}
