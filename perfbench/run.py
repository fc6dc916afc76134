"""The repository benchmark: host cost of simulating three figure grids.

Run from the repository root::

    python3 perfbench/run.py --workload sig-overflow --seed 1 --seconds 30 --trace 0

``--workload`` picks one of ``sig-overflow``, ``llc-bounded`` and
``hybrid-kv`` (see ``perfbench/README.md`` for why each exists).
``--workload-seed`` (default 2020) is the seed of the simulated workloads;
``--seed`` only permutes the order in which a run visits the grid's points,
so runs with different ``--seed`` values simulate the same work.

With ``--trace 0`` the run repeats the grid until ``--seconds`` have passed
(the first pass always completes) and prints the end-to-end metrics.  With
``--trace 1`` it alternates one untraced and one traced pass until
``--seconds`` have passed and prints the per-layer metrics of the traced
passes; the spans go to ``perfbench/out/<workload>.spans.json``.

Every point runs serially, in this process, through
``repro.harness.runner.run_experiment``: no process pool, no result cache,
no engine argument and no ``REPRO_ENGINE``, so each run simulates cold on
the default path.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import core  # noqa: E402  (the benchmark's own modules live beside this file)

#: Fresh-interpreter imports of the simulator timed per run for ``setup_s``.
IMPORT_SAMPLES = 5

#: A run stops measuring this long after it started, whatever ``--seconds``
#: says, so that it exits well within three minutes.
RUN_DEADLINE_S = 160.0

#: Address-space cap: a point whose memory runs away fails with
#: MemoryError instead of taking the machine's memory.
ADDRESS_SPACE_LIMIT = 2 << 30

#: Units the ``_s`` / ``_ratio`` / count naming rule does not give.
UNITS = {"tx_per_s": "1/s", "peak_rss_mb": "MB"}

_IMPORT_PROBE = """
import sys, time, json
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import repro.harness.figures, repro.harness.runner
elapsed = time.perf_counter() - start
try:
    import numpy  # noqa: F401
    numpy_imports = True
except ImportError:
    numpy_imports = False
print(json.dumps({"import_s": elapsed, "numpy_imports": numpy_imports}))
"""


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def sample_imports(count: int) -> List[Dict[str, Any]]:
    """Time ``import repro`` in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        completed = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return samples


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev() -> Optional[str]:
    """HEAD of the checkout's own ``.git``, or None outside a git checkout."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        completed = subprocess.run(
            ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def default_engine() -> str:
    """The kernel engine a ``System`` built with no engine argument uses."""
    from repro.runtime.system import System

    return str(getattr(System(), "engine_name", "single"))


def environment(numpy_imports: bool) -> Dict[str, Any]:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "numpy_imports": numpy_imports,
        "default_engine": default_engine(),
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(core.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the order points run in")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (the first pass always completes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int,
                        default=core.DEFAULT_WORKLOAD_SEED,
                        help="seed of the simulated workloads")
    parser.add_argument("--out-dir", type=Path, default=HERE / "out")
    return parser.parse_args(argv)


def measure(args: argparse.Namespace, runner: "core.Runner") -> None:
    stop_at = runner.clock() + args.seconds
    if args.trace:
        while True:
            runner.run_pass(traced=False)
            runner.run_pass(traced=True)
            if runner.clock() >= stop_at or runner.out_of_time():
                return
    runner.run_pass(traced=False)
    while runner.clock() < stop_at and not runner.out_of_time():
        runner.run_pass(traced=False, stop_at=stop_at)


def point_records(runner: "core.Runner") -> List[Dict[str, Any]]:
    records = []
    for index, point in enumerate(runner.points):
        records.append({
            "key": point.key,
            "label": point.label,
            "digest": runner.reference.get(index),
            "samples": [
                {"traced": current.traced, "total_s": s.total_s,
                 "setup_s": s.setup_s, "run_s": s.run_s, "failure": s.failure}
                for current in runner.passes
                for s in current.samples
                if s.index == index
            ],
        })
    return records


def span_records(runner: "core.Runner") -> Dict[str, Any]:
    passes = []
    for current in runner.passes:
        passes.append({
            "traced": current.traced,
            "points": [
                {"span": s.point_span, "key": runner.points[s.index].key,
                 "label": runner.points[s.index].label}
                for s in current.samples
            ],
            "spans": current.tracer.spans,
            "rollups": current.tracer.rollups(),
            "names": {name: vars(stats)
                      for name, stats in current.tracer.names.items()},
            "counts": current.tracer.counts,
        })
    return {"clock": "time.perf_counter seconds", "passes": passes}


def main(argv: Optional[List[str]] = None) -> int:
    launched = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    # Measure the default path, whatever the caller's shell selects.
    os.environ.pop("REPRO_ENGINE", None)

    probes = sample_imports(IMPORT_SAMPLES)
    import_s = statistics.median(p["import_s"] for p in probes)
    sys.path.insert(0, str(SRC))
    import repro.harness.figures  # noqa: F401
    import repro.harness.runner  # noqa: F401

    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    points = core.WORKLOADS[args.workload](args.workload_seed)
    order = list(range(len(points)))
    random.Random(args.seed).shuffle(order)
    runner = core.Runner(points, order, time.perf_counter,
                         deadline=launched + RUN_DEADLINE_S)
    measure(args, runner)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    untraced = runner.samples(traced=False)
    samples = runner.samples()
    failures = runner.failures()
    never_completed = [i for i in range(len(points)) if i not in runner.reference]
    if args.trace:
        traced = runner.samples(traced=True)
        metrics = core.median_metrics(
            [core.per_layer(p.tracer) for p in runner.passes if p.traced]
        )
        metrics["trace.overhead_ratio"] = core.ratio(
            core.grid_seconds(traced, "total_s"),
            core.grid_seconds(untraced, "total_s"),
        )
        # What set-up is made of, all parts but the import seen under tracing.
        traced_setup = core.grid_seconds(traced, "setup_s")
        setup_split = {
            "import_s": import_s,
            "runtime.build_s": metrics["runtime.build_s"],
            "workloads.fill_s": metrics["workloads.fill_s"],
            "rest_s": traced_setup - metrics["runtime.build_s"]
            - metrics["workloads.fill_s"],
        }
    else:
        metrics = core.end_to_end(untraced, import_s, peak_rss_mb)
        setup_split = None
    fail_share = len(failures) / len(samples)
    digest = core.grid_digest(points, runner.reference)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": args.workload_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(probes[0]["numpy_imports"]),
        "import_s_samples": [p["import_s"] for p in probes],
        "metrics": metrics,
        "attempted": len(samples),
        "failed": len(failures),
        "fail_share": fail_share,
        "failures": [
            {"key": points[s.index].key, "label": points[s.index].label,
             "failure": s.failure}
            for s in failures
        ],
        "points_never_completed": [points[i].key for i in never_completed],
        "digest": digest,
        "entry_points_missing": sorted(
            {name for current in runner.passes for name in current.missing}
        ),
        "setup_split": setup_split,
        "points": point_records(runner),
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    if args.trace:
        (args.out_dir / f"{args.workload}.spans.json").write_text(
            json.dumps(span_records(runner), default=str)
        )

    env = record["environment"]
    print(f"workload {args.workload}  workload-seed {args.workload_seed}  "
          f"order-seed {args.seed}  passes {len(runner.passes)}  "
          f"samples {len(samples)}")
    print(f"environment: git {env['git_rev']}  src {env['source_sha256'][:12]}  "
          f"python {env['python']}  nproc {env['nproc']}  "
          f"numpy {env['numpy_imports']}  engine {env['default_engine']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit_of(name)}")
    print(f"  {'fail_share':28s} {fail_share:14.6f} ratio")
    print(f"digest {digest}")
    if setup_split is not None:
        print("setup split: " + "  ".join(
            f"{name} {value:.4f}" for name, value in setup_split.items()))
    if record["entry_points_missing"]:
        print("entry points not found: "
              + ", ".join(record["entry_points_missing"]))
    for failure in record["failures"]:
        print(f"FAILED {failure['key']} {failure['label']}: {failure['failure']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
