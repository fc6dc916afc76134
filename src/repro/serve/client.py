"""The submit-and-watch client, and the figure drivers' service backend.

:class:`ServeClient` is the programmatic face of the spool: submit a grid
(or a figure by name), stream per-point progress, and assemble finished
campaigns back into ``RunResult`` lists in submission order — exactly
what :func:`~repro.harness.parallel.run_grid` returns, so downstream
consumers cannot tell the difference.

:class:`ServiceExecutor` packages that loop behind the harness's
:data:`~repro.harness.parallel.GridExecutor` contract.  Handing it to any
figure driver (``fig9(..., executor=ServiceExecutor(spool))`` or
``python -m repro fig9 --serve SPOOL``) reroutes the figure's grid
through the job service — same grid, same keys, same rows, byte-identical
exports — executed by whatever worker fleet is attached to the spool.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..harness.cache import ResultCache
from ..harness.metrics import RunResult
from ..harness.parallel import GridOutcome, GridPoint, PointRun
from ..harness.report import FigureResult
from .clock import sleep, wall_now
from .jobstore import CACHE_DIR, CampaignMeta, JobRecord, ServeError
from .queue import CampaignStatus, JobQueue

#: ``(status, newly_done)`` progress callback: ``newly_done`` lists the
#: ``(index, display_label)`` of points that completed since the last call.
WatchProgress = Callable[[CampaignStatus, List[Tuple[int, str]]], None]

DEFAULT_WATCH_POLL_S = 0.5


class ServeClient:
    """Submit campaigns to a spool and read their progress/results back."""

    def __init__(self, spool: Union[str, Path]) -> None:
        self.spool = Path(spool)
        self.queue = JobQueue(self.spool)

    # -- submission --------------------------------------------------------

    def submit_points(
        self,
        points: Sequence[GridPoint],
        title: str,
        campaign_id: Optional[str] = None,
        figure: Optional[str] = None,
        quick: bool = True,
        scale: float = 0.0,
        seed: int = 0,
    ) -> CampaignMeta:
        return self.queue.submit(
            points,
            title=title,
            campaign_id=campaign_id,
            figure=figure,
            quick=quick,
            scale=scale,
            seed=seed,
        )

    def submit_figure(
        self,
        figure: str,
        quick: bool = True,
        scale: Optional[float] = None,
        seed: int = 2020,
        campaign_id: Optional[str] = None,
    ) -> CampaignMeta:
        """Queue one figure's experiment grid as a campaign."""
        from ..harness.config import DEFAULT_SCALE
        from ..harness.figures import FIGURE_GRIDS

        if figure not in FIGURE_GRIDS:
            raise ServeError(
                f"unknown figure {figure!r}; submittable figures: "
                + ", ".join(sorted(FIGURE_GRIDS))
            )
        scale = DEFAULT_SCALE if scale is None else scale
        points = FIGURE_GRIDS[figure](quick=quick, scale=scale, seed=seed)
        return self.submit_points(
            points,
            title=figure,
            campaign_id=campaign_id,
            figure=figure,
            quick=quick,
            scale=scale,
            seed=seed,
        )

    # -- progress ----------------------------------------------------------

    def status(self, campaign_id: str) -> CampaignStatus:
        return self.queue.status(campaign_id)

    def statuses(self) -> List[CampaignStatus]:
        return [
            self.queue.status(meta.campaign_id)
            for meta in self.queue.campaigns()
        ]

    def watch(
        self,
        campaign_id: str,
        timeout_s: Optional[float] = None,
        poll_s: float = DEFAULT_WATCH_POLL_S,
        progress: Optional[WatchProgress] = None,
    ) -> CampaignStatus:
        """Block until the campaign completes, streaming per-point progress.

        Raises :class:`ServeError` on timeout, cancellation, or when the
        campaign settles with failed points (nothing left to wait for).
        """
        records = self.queue.records(campaign_id)
        done: Dict[int, bool] = {}
        deadline = None if timeout_s is None else wall_now() + timeout_s
        while True:
            # Status first: a point it counts as done is already in the
            # cache, so the scan below streams it before a complete status
            # returns (scanning first could miss a point that lands between).
            status = self.queue.status(campaign_id)
            newly: List[Tuple[int, str]] = []
            for record in records:
                if done.get(record.index):
                    continue
                if self.queue.cache.has_fingerprint(record.fingerprint):
                    done[record.index] = True
                    newly.append((record.index, record.display_label))
            if progress is not None and (newly or status.complete):
                progress(status, newly)
            if status.complete:
                return status
            if status.cancelled:
                raise ServeError(f"campaign {campaign_id!r} was cancelled")
            if status.settled:
                failures = self.queue.failures(campaign_id)
                detail = "; ".join(
                    f"[{index}] {message}"
                    for index, message in sorted(failures.items())
                )
                raise ServeError(
                    f"campaign {campaign_id!r} settled with "
                    f"{status.failed} failed point(s): {detail}"
                )
            if deadline is not None and wall_now() >= deadline:
                raise ServeError(
                    f"campaign {campaign_id!r} still has "
                    f"{status.pending} pending point(s) after "
                    f"{timeout_s:.0f}s (is a worker fleet attached?)"
                )
            sleep(poll_s)

    # -- results -----------------------------------------------------------

    def results(self, campaign_id: str) -> List[RunResult]:
        """The campaign's ``RunResult``s in submission order.

        Interchangeable with what ``run_grid`` over the same points
        returns.  Raises :class:`ServeError` if any point is missing
        (still pending, failed, or a corrupt cache entry).
        """
        return [run.result for run in self.point_runs(campaign_id)]

    def point_runs(self, campaign_id: str) -> List[PointRun]:
        runs = []
        for record in self.queue.records(campaign_id):
            result = self.queue.cache.get_fingerprint(record.fingerprint)
            if result is None:
                message = self.queue.failure(campaign_id, record.index)
                raise ServeError(
                    f"campaign {campaign_id!r} point [{record.index}] "
                    f"({record.display_label}) has no result"
                    + (f": failed with {message}" if message else
                       " yet (still pending?)")
                )
            runs.append(
                PointRun(
                    key=record.key,
                    label=record.display_label,
                    fingerprint=record.fingerprint,
                    cached=True,
                    elapsed_s=0.0,
                    result=result,
                )
            )
        return runs

    def keyed_results(self, campaign_id: str) -> Dict[Any, RunResult]:
        return {
            run.key: run.result for run in self.point_runs(campaign_id)
        }

    def figure_results(self, campaign_id: str) -> List[FigureResult]:
        """Re-assemble the figure a campaign was submitted from.

        Runs the original figure driver against the spool's warm cache —
        every point hits, zero simulations — so the output (and its JSON
        export) is byte-identical to ``python -m repro <figure>`` run
        directly with the same quick/scale/seed.
        """
        from ..harness.figures import ALL_FIGURES

        meta = self.queue.store.load_meta(campaign_id)
        if meta.figure is None:
            raise ServeError(
                f"campaign {campaign_id!r} was not submitted from a figure; "
                "use results() instead"
            )
        status = self.queue.status(campaign_id)
        if not status.complete:
            raise ServeError(
                f"campaign {campaign_id!r} is not complete "
                f"({status.done}/{status.total} done, {status.failed} failed)"
            )
        driver = ALL_FIGURES[meta.figure]
        results = driver(
            quick=meta.quick,
            scale=meta.scale,
            seed=meta.seed,
            jobs=1,
            cache=self.queue.cache,
        )
        if not isinstance(results, tuple):
            results = (results,)
        return list(results)


class ServiceExecutor:
    """A :data:`~repro.harness.parallel.GridExecutor` backed by the spool.

    Submits the grid as a campaign, waits for the attached worker fleet,
    and assembles a :class:`GridOutcome` in submission order.  The
    ``simulated`` count reflects fleet-side work (points not already in
    the shared cache at submit time); per-point ``elapsed_s`` is 0.0
    because simulation wall time was spent in other processes.
    """

    def __init__(
        self,
        spool: Union[str, Path],
        timeout_s: Optional[float] = None,
        poll_s: float = DEFAULT_WATCH_POLL_S,
        title: str = "grid",
        progress: Optional[WatchProgress] = None,
    ) -> None:
        self.spool = Path(spool)
        self.timeout_s = timeout_s
        self.poll_s = poll_s
        self.title = title
        self.progress = progress

    def __call__(
        self,
        points: Sequence[GridPoint],
        cache: Optional[ResultCache] = None,
    ) -> GridOutcome:
        client = ServeClient(self.spool)
        meta = client.submit_points(points, title=self.title)
        records = client.queue.records(meta.campaign_id)
        done_at_submit = {
            record.index
            for record in records
            if client.queue.cache.has_fingerprint(record.fingerprint)
        }
        client.watch(
            meta.campaign_id,
            timeout_s=self.timeout_s,
            poll_s=self.poll_s,
            progress=self.progress,
        )
        runs = client.point_runs(meta.campaign_id)
        for run, record in zip(runs, records):
            run.cached = record.index in done_at_submit
        self._mirror(cache, records, runs)
        return GridOutcome(
            runs=runs,
            simulated=len(records) - len(done_at_submit),
            cache_hits=len(done_at_submit),
        )

    def _mirror(
        self,
        cache: Optional[ResultCache],
        records: Sequence[JobRecord],
        runs: Sequence[PointRun],
    ) -> None:
        """Copy results into a caller-side cache rooted elsewhere.

        Keeps ``--cache-dir`` semantics intact when a figure runs through
        the service: the caller's cache ends up as warm as a local run
        would have left it.  (No simulations are counted — none ran here.)
        """
        if cache is None:
            return
        spool_root = Path(self.spool) / CACHE_DIR
        try:
            same = spool_root.resolve() == Path(cache.root).resolve()
        except OSError:
            same = False
        if same:
            return
        for record, run in zip(records, runs):
            if not cache.has_fingerprint(record.fingerprint):
                cache.put(record.spec, run.result, record.label)
