"""Span tracer that wraps each simulator layer's public entry points.

The benchmark never edits the simulator.  It patches entry points at class
(or module) level for the duration of a run and restores them afterwards,
so a traced run executes the same code as an untraced one plus a thin
timing wrapper per call.

Spans
    A span is one call through a wrapped entry point: its name, start, end
    and parent span.  A grid point is a *point* span opened by the
    benchmark itself; its direct children (``runtime.build``,
    ``workloads.fill``, ``sim.run``, ``workloads.verify``,
    ``harness.collect``) are kept as individual spans.  Deeper spans — the
    millions of cache, htm, mem and signature calls of a run — are folded
    into one *rollup* span per (name, depth-1 ancestor) that carries the
    call count, the first start, the last end and the summed total and
    self seconds, which keeps memory bounded by the grid size instead of
    the call count.

Self time
    A span's self time is its duration minus the time its child spans
    cover.  In one thread, children are properly nested and never overlap,
    so that is the duration minus the sum of the direct children's
    durations; the tracer keeps one child-seconds accumulator per open
    span to compute it on exit.

Inclusive time
    ``total_s`` of a name counts only calls with no open ancestor of the
    same name, so a subclass ``setup`` that calls ``super().setup()`` is
    not counted twice.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every layer the per-layer split reports, in print order.
LAYERS = ("cache", "signatures", "htm", "mem", "workloads", "sim", "runtime",
          "harness")

# Depth of the spans kept individually: 0 is the benchmark's point span,
# 1 its direct children.  Deeper spans are folded into rollups.
_KEEP_DEPTH = 1


@dataclass
class NameStats:
    """Aggregates of one span name over a whole traced pass."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class _Frame:
    name: str
    start: float
    span_id: int
    rollup_parent: int
    child_s: float = 0.0


@dataclass
class Tracer:
    """Records spans and per-name aggregates; see the module docstring.

    ``clock`` is injectable so tests can build a span tree with known
    times.  Counters (``counts``) are bumped by the entry-point observers
    in :data:`ENTRY_POINTS` and by :meth:`count`.
    """

    clock: Callable[[], float] = perf_counter
    spans: List[Dict[str, Any]] = field(default_factory=list)
    names: Dict[str, NameStats] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    _stack: List[_Frame] = field(default_factory=list)
    _open_names: Dict[str, int] = field(default_factory=dict)
    _rollups: Dict[Tuple[int, str], Dict[str, Any]] = field(default_factory=dict)

    def enter(self, name: str) -> None:
        stack = self._stack
        depth = len(stack)
        if depth <= _KEEP_DEPTH:
            span_id = len(self.spans)
            self.spans.append(None)  # filled on exit, keeps parent-first order
        else:
            span_id = -1
        # Rollups hang off the nearest individually kept ancestor.
        rollup_parent = span_id if span_id >= 0 else stack[-1].rollup_parent
        self._open_names[name] = self._open_names.get(name, 0) + 1
        stack.append(_Frame(name, self.clock(), span_id, rollup_parent))

    def exit(self) -> float:
        """Close the innermost span; returns its duration in seconds."""
        end = self.clock()
        frame = self._stack.pop()
        duration = end - frame.start
        self_s = duration - frame.child_s
        name = frame.name
        open_count = self._open_names[name] - 1
        self._open_names[name] = open_count
        stats = self.names.get(name)
        if stats is None:
            stats = self.names[name] = NameStats()
        stats.calls += 1
        stats.self_s += self_s
        outermost = open_count == 0
        if outermost:
            stats.total_s += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += duration
        if frame.span_id >= 0:
            self.spans[frame.span_id] = {
                "id": frame.span_id,
                "parent": parent.span_id if parent is not None else None,
                "name": name,
                "start": frame.start,
                "end": end,
                "self_s": self_s,
            }
        else:
            key = (frame.rollup_parent, name)
            rollup = self._rollups.get(key)
            if rollup is None:
                rollup = self._rollups[key] = {
                    "parent": frame.rollup_parent,
                    "name": name,
                    "start": frame.start,
                    "end": end,
                    "calls": 0,
                    "total_s": 0.0,
                    "self_s": 0.0,
                }
            rollup["end"] = end
            rollup["calls"] += 1
            rollup["self_s"] += self_s
            if outermost:
                rollup["total_s"] += duration
        return duration

    def count(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def rollups(self) -> List[Dict[str, Any]]:
        """The folded deep spans, in first-seen order."""
        return list(self._rollups.values())

    def layer_split(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls`` and ``self_s`` (span names are ``layer.entry``)."""
        split = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, stats in self.names.items():
            layer = name.split(".", 1)[0]
            if layer in split:
                split[layer]["calls"] += stats.calls
                split[layer]["self_s"] += stats.self_s
        return split

    def total_s(self, name: str) -> float:
        stats = self.names.get(name)
        return stats.total_s if stats is not None else 0.0


# ----------------------------------------------------------- entry points


def _observe_access(tracer: Tracer, result: Any) -> None:
    if result.llc_miss:
        tracer.count("cache.llc_misses")


def _observe_probe(tracer: Tracer, hits: Any) -> None:
    # ``hits`` is a list of (tx_id, is_true_conflict) pairs.
    for _tx_id, is_true in hits:
        tracer.count("signatures.true_hits" if is_true else "signatures.false_hits")


def _observe_commit(tracer: Tracer, _result: Any) -> None:
    tracer.count("htm.commits")


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point.

    ``owner`` is ``module:Class`` for a method (patched on the class and on
    every loaded subclass that overrides it) or a bare module path for a
    module-level function (patched in every loaded ``repro`` module that
    holds the same function object, so a ``from x import f`` binding is
    caught too).  ``observe`` runs on normal return with the result.
    """

    span: str
    owner: str
    attribute: str
    observe: Optional[Callable[[Tracer, Any], None]] = None


def _methods(span_layer: str, owner: str, names: str) -> List[Entry]:
    return [Entry(f"{span_layer}.{n}", owner, n) for n in names.split()]


#: The per-run boundaries: a point's setup ends where ``sim.run`` starts.
COARSE_ENTRY_POINTS: Tuple[Entry, ...] = (
    Entry("sim.run", "repro.runtime.system:System", "run"),
)

#: Every layer boundary the traced run records.
ENTRY_POINTS: Tuple[Entry, ...] = COARSE_ENTRY_POINTS + (
    Entry("runtime.build", "repro.runtime.system:System", "__init__"),
    Entry("workloads.fill", "repro.workloads.base:Workload", "setup"),
    Entry("workloads.verify", "repro.workloads.base:Workload", "verify"),
    Entry("harness.collect", "repro.harness.metrics", "collect_metrics"),
    # htm: the transactional API the runtime calls.
    Entry("htm.begin", "repro.htm.base:HTMSystem", "begin"),
    Entry("htm.commit", "repro.htm.base:HTMSystem", "commit", _observe_commit),
    Entry("htm.abort", "repro.htm.base:HTMSystem", "acknowledge_abort"),
    *_methods("htm", "repro.htm.base:HTMSystem",
              "tx_read tx_write nontx_access explicit_abort "
              "abort_all_in_process context_switch"),
    # cache: the hierarchy and the directory, as htm calls them.
    Entry("cache.access", "repro.cache.hierarchy:CacheHierarchy", "access",
          _observe_access),
    *_methods("cache", "repro.cache.hierarchy:CacheHierarchy",
              "would_miss_llc fill_l1_after_miss handle_l1_eviction "
              "handle_llc_eviction invalidate_other_l1s flush_private_cache "
              "invalidate_written_lines clear_tx_markers"),
    *_methods("cache", "repro.cache.directory:Directory",
              "check_access record_access clear_transaction evict_line"),
    # signatures: every design funnels its Bloom-filter probes through
    # one helper that lives in htm.designs; the filters themselves are
    # inserted into through SignaturePair.
    Entry("signatures.probe", "repro.htm.designs", "_signature_hits",
          _observe_probe),
    *_methods("signatures", "repro.signatures.addresssig:SignaturePair",
              "add_read add_write"),
    # mem: the controller's public surface and the hardware logs.
    *_methods("mem", "repro.mem.controller:MemoryController",
              "load_word store_word rmw_word read_latency "
              "demand_access_latency log_undo_and_update rollback_undo "
              "commit_undo log_redo_dram redo_dram_lookup commit_redo_dram "
              "discard_redo_dram log_redo_nvm commit_nvm_transaction "
              "publish_dram_words commit_nvm buffer_early_evicted_nvm "
              "abort_nvm"),
    Entry("mem.log_append", "repro.mem.log:HardwareLog", "append_data"),
    Entry("mem.log_append", "repro.mem.log:HardwareLog", "append_mark"),
)


def _wrap(tracer: Tracer, span: str, original: Callable,
          observe: Optional[Callable[[Tracer, Any], None]]) -> Callable:
    enter = tracer.enter
    exit_ = tracer.exit
    if observe is None:
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(span)
            try:
                return original(*args, **kwargs)
            finally:
                exit_()
    else:
        def traced(*args: Any, **kwargs: Any) -> Any:
            enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_()
            observe(tracer, result)
            return result
    traced.__wrapped__ = original
    traced.__name__ = getattr(original, "__name__", span)
    return traced


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:  # a diamond reaches a class twice
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


class Instrumentation:
    """Patches a set of entry points onto a :class:`Tracer`; a context manager.

    Attach before any ``System`` is built: some layers hoist bound methods
    at construction time, and only a class-level patch that predates the
    hoist is seen by them.  An entry point the simulator no longer has is
    skipped and listed in ``missing``, so a renamed method shows up in the
    run's record instead of stopping the benchmark.
    """

    def __init__(self, tracer: Tracer, entries: Tuple[Entry, ...]) -> None:
        self.tracer = tracer
        self.entries = entries
        self.missing: List[str] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        for entry in self.entries:
            self._attach(entry)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched = []

    def _patch(self, owner: Any, attribute: str, original: Any,
               entry: Entry) -> None:
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute,
                _wrap(self.tracer, entry.span, original, entry.observe))

    def _attach(self, entry: Entry) -> None:
        module_name, _, class_name = entry.owner.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, entry.attribute)
        except (ImportError, AttributeError):
            self.missing.append(f"{entry.owner}.{entry.attribute}")
            return
        if class_name:
            for cls in _subclasses(owner):
                original = cls.__dict__.get(entry.attribute)
                if original is not None:
                    self._patch(cls, entry.attribute, original, entry)
            return
        for name, loaded in sorted(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                getattr(loaded, entry.attribute, None) is original
            ):
                self._patch(loaded, entry.attribute, original, entry)
