"""``python -m repro bench`` — grid runs with per-point timing and caching.

Runs the experiment grid behind one or more figures through the parallel
executor, measures every point with :class:`~repro.harness.timer.Stopwatch`,
and writes one ``BENCH_<figure>.json`` perf-trajectory artifact per figure::

    python -m repro bench fig6 --jobs 4 --cache-dir .repro-cache
    python -m repro bench --jobs 8 --verify          # all dynamic figures

The artifact records, for each point: its key, label, spec fingerprint,
whether it was served from the cache, and the simulation wall time.  A
warm-cache re-run reports ``simulated: 0`` — nothing is recomputed unless a
spec (or the cache version stamp) changed.

``--verify`` re-runs one pooled point serially and asserts the bit-identical
parallelism contract before any result is published to the cache.

``-m smoke`` is the perf-gate tier: the quick grids at scale 1/64, small
enough to run on every change.  ``--compare`` turns the run into a
regression gate — each simulated point is checked against the matching
point of a baseline ``BENCH_<figure>.json`` (the committed baselines by
default) and the run exits non-zero if any point got more than 15%
slower::

    python -m repro bench -m smoke --compare          # gate vs committed
    python -m repro bench fig7 --compare old/          # gate vs a directory

Baselines are machine-specific: reseed them (``-m smoke --out-dir .``) on
the machine that will run the gate.

Every artifact also records where it was measured — ``git_rev`` (the
source checkout's commit, or null outside a git checkout), ``python``,
``platform`` and ``nproc`` — for reading trajectories across machines.
``--compare`` never looks at these fields, and artifacts written before
they existed load and gate unchanged.

The special name ``epochs`` benches block dispatch through a real
System at several block widths, twice per width: through the fused epoch
dispatcher and through the per-op reference path (``htm.batch`` set to
None).  ``--speedup-floor R`` gates that family's aggregate: the fused
points must be at least R times faster than the reference points timed in
the same run, so the gate needs no baseline from another process::

    python -m repro bench epochs -m smoke --speedup-floor 2
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .cache import ResultCache
from .config import DEFAULT_SCALE
from .figures import FIGURE_GRIDS
from .parallel import GridOutcome, run_grid_detailed
from .report import format_table
from .timer import Stopwatch

#: The smoke tier's machine scale: quick grids shrunk far enough that the
#: whole dynamic-figure sweep runs in well under a minute.
SMOKE_SCALE = 1 / 64

#: Default allowed per-point slowdown before the ``--compare`` gate fails.
DEFAULT_TOLERANCE = 0.15

#: Baseline points faster than this are below the host timing noise floor
#: and never gate.
MIN_COMPARABLE_S = 0.05

#: Absolute slack added on top of the relative tolerance: host noise on a
#: 0.15 s point routinely exceeds 15%, so small points only gate on
#: slowdowns that are large in absolute terms too.
ABS_SLACK_S = 0.1


def comparable_points(
    artifact: dict, baseline: dict
) -> List[Tuple[dict, dict]]:
    """``(current, baseline)`` point pairs the gates may consider.

    A pair forms when the points match by ``(label, key)`` and both were
    simulated (not cache-served).  Every gate draws from this one pairing,
    and the CLI counts the pairs so a run where the gate compared *nothing*
    — a stale or mismatched baseline — fails loudly instead of passing
    vacuously.
    """

    def point_id(point: dict) -> tuple:
        return (point.get("label"), json.dumps(point.get("key")))

    base_points = {point_id(p): p for p in baseline.get("points", ())}
    pairs = []
    for point in artifact.get("points", ()):
        base = base_points.get(point_id(point))
        if base is None:
            continue
        if point.get("cached") or base.get("cached"):
            continue
        pairs.append((point, base))
    return pairs


def compare_to_baseline(
    artifact: dict, baseline: dict, tolerance: float = DEFAULT_TOLERANCE
) -> List[str]:
    """Per-point perf gate: current vs baseline elapsed seconds.

    Returns human-readable violation lines (empty means the gate passes).
    A point participates only when it pairs up under
    :func:`comparable_points` and the baseline time is above
    :data:`MIN_COMPARABLE_S`; it fails when it exceeds
    ``baseline * (1 + tolerance) + ABS_SLACK_S``.
    """
    violations = []
    for point, base in comparable_points(artifact, baseline):
        base_s = base.get("elapsed_s", 0.0)
        if base_s < MIN_COMPARABLE_S:
            continue
        elapsed_s = point["elapsed_s"]
        if elapsed_s > base_s * (1.0 + tolerance) + ABS_SLACK_S:
            violations.append(
                f"{artifact.get('figure', '?')}: {point['label']} "
                f"{point.get('key')} took {elapsed_s:.3f}s vs baseline "
                f"{base_s:.3f}s (more than {tolerance:.0%} slower)"
            )
    return violations


def aggregate_speedup(
    artifact: dict, baseline: dict
) -> Tuple[float, float, int]:
    """Aggregate wall time of matched simulated points: (base_s, cur_s, n).

    The ``--speedup-floor`` gate's measure, with the epochs family's
    per-op reference points as ``baseline``.  Points pair under
    :func:`comparable_points`.
    """
    base_total = current_total = 0.0
    matched = 0
    for point, base in comparable_points(artifact, baseline):
        base_total += base.get("elapsed_s", 0.0)
        current_total += point["elapsed_s"]
        matched += 1
    return base_total, current_total, matched


def _load_baseline(compare_arg: str, figure: str):
    """Resolve and load the baseline artifact for ``figure``.

    ``compare_arg`` may be a directory holding ``BENCH_<figure>.json``
    files or one artifact file; returns ``(artifact_or_None, path)``.
    """
    path = Path(compare_arg)
    if path.is_dir():
        path = path / f"BENCH_{figure}.json"
    if not path.is_file():
        return None, path
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("figure") != figure:
        return None, path
    return data, path


def _git_rev() -> Optional[str]:
    """The commit of the checkout this module runs from, if it is one."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _provenance() -> dict:
    """Where an artifact was measured; ``--compare`` ignores all of it."""
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def _artifact(
    figure: str,
    outcome: GridOutcome,
    args: argparse.Namespace,
    total_s: float,
) -> dict:
    return {
        "figure": figure,
        **_provenance(),
        "quick": not args.full,
        "scale": args.scale,
        "seed": args.seed,
        "jobs": args.jobs,
        "total_s": round(total_s, 3),
        "points_total": len(outcome.runs),
        "simulated": outcome.simulated,
        "cache_hits": outcome.cache_hits,
        "points": [
            {
                "key": list(run.key) if isinstance(run.key, tuple) else run.key,
                "label": run.label,
                "fingerprint": run.fingerprint,
                "cached": run.cached,
                "elapsed_s": round(run.elapsed_s, 4),
            }
            for run in outcome.runs
        ],
    }


#: Epoch widths benched by the ``epoch.w*`` family — the block sizes the
#: dispatcher sees, from fenced narrow blocks up to full sweeps.
EPOCH_WIDTHS = (1, 4, 16, 64)


def _epoch_point(width: int, full: bool, fused: bool) -> dict:
    """Time block dispatch end-to-end through a real System at one width.

    Each point issues the same number of *blocks* (epochs), so wider
    points carry proportionally more simulated work — the natural shape
    of a width sweep, and the one that weighs the aggregate toward the
    widths where epoch dispatch actually runs.  The swept array cycles
    four resident lines, so every access is an L1 hit and the point times
    the dispatch path itself rather than shared fill/eviction work.  At
    width 1 the dispatcher's fence drops every block to the per-op walk,
    pinning the fallback overhead; the wide points time the fused loops.
    With ``fused`` False the System runs with ``htm.batch`` set to None,
    the per-op reference path.
    """
    from ..mem.address import MemoryKind
    from ..params import HTMConfig, LINE_SIZE, MachineConfig
    from ..runtime.system import System

    blocks = 2_500 * (8 if full else 1)
    system = System(MachineConfig.scaled(SMOKE_SCALE), HTMConfig(), seed=0xE90C)
    if not fused:
        system.htm.batch = None

    def worker(api):
        base = api.heap.alloc(64 * LINE_SIZE, MemoryKind.DRAM)
        chunk = [base + (i % 4) * LINE_SIZE for i in range(width)]
        for _ in range(blocks):
            api.nontx.rmw_add_block(chunk, 1)
            yield

    system.process("epoch").thread(worker)
    stopwatch = Stopwatch()
    system.run()
    return {
        "key": ["kernel", f"epoch.w{width}"],
        "label": f"epoch.w{width}",
        "fingerprint": None,
        "cached": False,
        "elapsed_s": round(stopwatch.elapsed_s, 4),
    }


def _epoch_artifact(args: argparse.Namespace) -> Tuple[dict, float]:
    """The ``epochs`` bench figure: fused dispatch and its per-op reference.

    ``points`` are the fused runs and ``reference_points`` the same widths
    with ``htm.batch`` set to None, interleaved width by width in this
    process so the ``--speedup-floor`` gate compares like with like.
    """
    stopwatch = Stopwatch()
    reference: List[dict] = []
    points: List[dict] = []
    for width in EPOCH_WIDTHS:
        reference.append(_epoch_point(width, args.full, fused=False))
        points.append(_epoch_point(width, args.full, fused=True))
    total_s = stopwatch.elapsed_s
    return {
        "figure": "epochs",
        **_provenance(),
        "quick": not args.full,
        "scale": args.scale,
        "seed": args.seed,
        "jobs": args.jobs,
        "total_s": round(total_s, 3),
        "points_total": len(points),
        "simulated": len(points),
        "cache_hits": 0,
        "points": points,
        "reference_points": reference,
    }, total_s


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Time figure grids point-by-point, optionally in "
        "parallel and against a result cache.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help="dynamic figures to bench (default: all of "
        + ", ".join(sorted(FIGURE_GRIDS))
        + "); the special name 'epochs' benches block dispatch, fused "
        "and per-op",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="bench the paper's full sweep matrix instead of the quick one",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=DEFAULT_SCALE,
        help=f"machine scale factor (default {DEFAULT_SCALE:g})",
    )
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the grid (results are bit-identical "
        "for any value)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="result-cache directory; unchanged points are not re-simulated",
    )
    parser.add_argument(
        "--out-dir",
        metavar="PATH",
        default=".",
        help="where to write the BENCH_<figure>.json artifacts (default: .)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="re-run one pooled point serially and assert the bit-identical "
        "parallelism contract",
    )
    parser.add_argument(
        "-m",
        "--tier",
        choices=("smoke",),
        help="preset tier: 'smoke' benches the quick grids at scale "
        f"{SMOKE_SCALE:g} (overrides --full/--scale)",
    )
    parser.add_argument(
        "--compare",
        nargs="?",
        const=".",
        metavar="PATH",
        help="perf-regression gate: exit non-zero if any simulated point is "
        "slower than the matching point of a baseline BENCH_<figure>.json "
        "by more than the tolerance; PATH is a baseline file or a directory "
        "of them (default: the committed baselines in the current directory)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="FRACTION",
        help="allowed per-point slowdown for --compare "
        f"(default {DEFAULT_TOLERANCE:g})",
    )
    parser.add_argument(
        "--speedup-floor",
        type=float,
        metavar="RATIO",
        help="epochs only: require the fused points' aggregate wall time to "
        "be at least RATIO times faster than the per-op reference points "
        "timed in the same run",
    )
    args = parser.parse_args(argv)
    if args.tier == "smoke":
        args.full = False
        args.scale = SMOKE_SCALE

    names = args.figures or sorted(FIGURE_GRIDS)
    unknown = [
        name for name in names
        if name not in FIGURE_GRIDS and name != "epochs"
    ]
    if unknown:
        parser.error(
            f"unknown figure(s) {', '.join(unknown)}; benchable figures: "
            + ", ".join(sorted(FIGURE_GRIDS))
            + ", epochs"
        )
    if args.speedup_floor is not None and "epochs" not in names:
        parser.error("--speedup-floor gates the epochs family; bench epochs")
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary_rows = []
    violations: List[str] = []
    compared_total = 0
    baselines_loaded = 0
    for name in names:
        if name == "epochs":
            artifact, total_s = _epoch_artifact(args)
        else:
            points = FIGURE_GRIDS[name](
                quick=not args.full, scale=args.scale, seed=args.seed
            )
            stopwatch = Stopwatch()
            outcome = run_grid_detailed(
                points, jobs=args.jobs, cache=cache, verify_sample=args.verify
            )
            total_s = stopwatch.elapsed_s
            artifact = _artifact(name, outcome, args, total_s)
        if args.compare is not None:
            baseline, baseline_path = _load_baseline(args.compare, name)
            if baseline is None:
                print(f"[{name}] no baseline at {baseline_path}; not gated")
            else:
                baselines_loaded += 1
                compared_total += len(comparable_points(artifact, baseline))
                found = compare_to_baseline(artifact, baseline, args.tolerance)
                violations.extend(found)
                verdict = "ok" if not found else f"{len(found)} regression(s)"
                print(f"[{name}] compared against {baseline_path}: {verdict}")
        if args.speedup_floor is not None and "reference_points" in artifact:
            base_s, current_s, matched = aggregate_speedup(
                artifact, {"points": artifact["reference_points"]}
            )
            ratio = base_s / current_s if current_s > 0 else 0.0
            print(
                f"[{name}] aggregate speedup of fused dispatch over the "
                f"per-op reference: {ratio:.2f}x over {matched} points "
                f"({base_s:.2f}s -> {current_s:.2f}s)"
            )
            if matched == 0 or ratio < args.speedup_floor:
                violations.append(
                    f"{name}: aggregate speedup {ratio:.2f}x over {matched} "
                    f"points is below the required floor "
                    f"{args.speedup_floor:g}x"
                )
        artifact_path = out_dir / f"BENCH_{name}.json"
        artifact_path.write_text(
            json.dumps(artifact, indent=2) + "\n", encoding="utf-8"
        )
        slowest_s = max(
            (p["elapsed_s"] for p in artifact["points"]), default=None
        )
        summary_rows.append(
            [
                name,
                artifact["points_total"],
                artifact["simulated"],
                artifact["cache_hits"],
                f"{total_s:.1f}s",
                f"{slowest_s:.1f}s" if slowest_s is not None else "-",
            ]
        )
        print(f"[{name}] {artifact['points_total']} points in {total_s:.1f}s "
              f"({artifact['simulated']} simulated, "
              f"{artifact['cache_hits']} cached) "
              f"-> {artifact_path}")
    print()
    print(
        format_table(
            ["figure", "points", "simulated", "cached", "wall", "slowest point"],
            summary_rows,
            title=f"bench: jobs={args.jobs}"
            + (f", cache={args.cache_dir}" if args.cache_dir else ""),
        )
    )
    if cache is not None:
        stats = cache.stats
        print(
            f"\ncache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.stores} stores, {stats.simulations} simulations"
            + (f", {stats.corrupt} corrupt entries skipped" if stats.corrupt else "")
        )
    if (
        args.compare is not None
        and baselines_loaded > 0
        and compared_total == 0
    ):
        # Baselines were found, yet the gate paired zero points: a stale
        # baseline, renamed labels, or an all-cached run.  That must fail
        # loudly rather than report a vacuous pass.  (No baseline at all
        # stays non-fatal — that is the bootstrap path that seeds one.)
        violations.append(
            "--compare matched zero simulated points across "
            f"{baselines_loaded} baseline(s); the perf gate compared nothing"
        )
    if violations:
        print(f"\nperf gate FAILED ({len(violations)} regression(s)):")
        for line in violations:
            print(f"  {line}")
        return 1
    if args.compare is not None:
        print(f"\nperf gate passed ({compared_total} points compared)")
    return 0
