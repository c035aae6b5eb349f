"""In-memory spans around the public functions each fpselect layer exposes.

Each traced name is wrapped where its caller looks it up, so ``src/`` is
not edited: ``fpselect.cli`` holds its own references to the loaders,
attacker builders and search entry points, ``fpselect.selection`` to the
measures, and ``fpselect.sensitivity`` to ``build_dictionary`` and
``fp_match``. The package ``__init__`` re-exports functions under module
names (``fpselect.sensitivity`` is a function there), so modules are
fetched with ``importlib.import_module``.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    """One call: wall-clock interval, plus the CPU time of its thread.

    Under the GIL a pool worker's wall time also counts its wait for the
    lock; its ``cpu`` does not.
    """

    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str
    thread: int = 0
    cpu: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.span_id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "run": self.run_id,
                "thread": self.thread, "cpu": self.cpu}


def _add_rows(counts: Counter, dataset) -> None:
    counts["rows"] += len(dataset.observations)


def _add_support(counts: Counter, attacker) -> None:
    counts["attackers"] += 1
    counts["pmf_support"] += len(attacker.pmf.entries)


def _add_match(counts: Counter, matched: bool) -> None:
    counts["fp_match_true"] += matched


# (module, attribute, counter) per traced name; the span is "<module>.<attribute>"
# without the package prefix.
TRACED: tuple[tuple[str, str, Callable | None], ...] = (
    ("fpselect.cli", "load_catalog", None),
    ("fpselect.cli", "load_observations", _add_rows),
    ("fpselect.cli", "population_attacker", _add_support),
    ("fpselect.cli", "uniform_attacker", _add_support),
    ("fpselect.cli", "calibrate_thresholds", None),
    ("fpselect.cli", "select_greedy", None),
    ("fpselect.cli", "select_entropy_baseline", None),
    ("fpselect.cli", "select_cond_entropy_baseline", None),
    ("fpselect.cli", "select_exhaustive", None),
    ("fpselect.selection", "sensitivity", None),
    ("fpselect.selection", "total_cost", None),
    ("fpselect.selection", "joint_entropy_bits", None),
    ("fpselect.selection", "Evaluator.evaluate", None),
    ("fpselect.sensitivity", "build_dictionary", None),
    ("fpselect.sensitivity", "fp_match", _add_match),
)

SEARCHES = ("cli.select_greedy", "cli.select_entropy_baseline",
            "cli.select_cond_entropy_baseline", "cli.select_exhaustive")
ATTACKERS = ("cli.population_attacker", "cli.uniform_attacker")


class Tracer:
    """Collects spans and counts for one traced pass of a workload.

    Spans opened on a thread with no open span of its own (the prefetch
    pool's workers) take the innermost open span of the creating thread
    as their parent.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.owner = threading.get_ident()
        self._ids = itertools.count(1)
        self._owner_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._owner_stack[-1] if self._owner_stack else None
        )
        span_id = next(self._ids)
        stack.append(span_id)
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            yield
        finally:
            cpu, end = time.thread_time() - cpu, time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.run_id,
                                   threading.get_ident(), cpu))

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self._lock:
                    counter(self.counts, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every name in ``TRACED`` for the duration of the block."""
    originals: list[tuple[object, str, object]] = []
    try:
        for module_name, path, counter in TRACED:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            span_name = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            setattr(owner, attr, tracer.wrap(span_name, original, counter))
            originals.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: Iterable[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_time(span: Span, children: dict[int, list[Span]],
              only: Iterable[str] | None = None) -> float:
    """Duration minus the part of it that child spans cover.

    With ``only``, just the children of those names are taken out.
    """
    kids = children.get(span.span_id, ())
    if only is not None:
        names = set(only)
        kids = [c for c in kids if c.name in names]
    return span.duration - covered(((c.start, c.end) for c in kids),
                                   span.start, span.end)


def pool_wait(spans: Iterable[Span], owner: int) -> float:
    """Wall minus CPU time of the spans that pool workers open first.

    These spans run on a thread other than ``owner`` under a parent on
    ``owner``; the difference is time the worker waited, mostly for the GIL.
    """
    spans = list(spans)
    thread_of = {s.span_id: s.thread for s in spans}
    return sum(s.duration - s.cpu for s in spans
               if s.thread != owner and thread_of.get(s.parent) == owner)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "dataset.load_catalog_s": "s",
    "dataset.load_observations_s": "s",
    "dataset.rows": "count",
    "dataset.rows_per_s": "1/s",
    "sensitivity.attacker_s": "s",
    "sensitivity.pmf_support": "count",
    "sensitivity.build_dictionary_s": "s",
    "sensitivity.build_dictionary_calls": "count",
    "sensitivity.reach_self_s": "s",
    "sensitivity.reach_calls": "count",
    "matching.fp_match_s": "s",
    "matching.fp_match_calls": "count",
    "matching.fp_match_true_ratio": "ratio",
    "matching.calibrate_s": "s",
    "cost.total_cost_s": "s",
    "cost.total_cost_calls": "count",
    "selection.joint_entropy_s": "s",
    "selection.joint_entropy_calls": "count",
    "selection.measured_sets": "count",
    "selection.evaluate_calls": "count",
    "selection.cache_hit_ratio": "ratio",
    "selection.pruned_ratio": "ratio",
    "selection.measure_ms.p50": "ms",
    "selection.measure_ms.p90": "ms",
    "selection.search_self_s": "s",
    "selection.pool_wait_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, reports: Iterable[dict]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``, for one pass.

    ``reports`` are the parsed reports of the pass's set-measuring commands.
    Span times are summed over threads.
    """
    spans = tracer.spans
    children = children_of(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def busy(*names: str) -> float:
        return sum(s.duration for n in names for s in by_name[n])

    def calls(name: str) -> int:
        return len(by_name[name])

    reports = list(reports)
    expanded = pruned = 0
    for report in reports:
        trace = report.get("trace") or []
        expanded += sum(len(stage["expanded"]) for stage in trace)
        pruned += len(trace[-1]["pruned"]) if trace else 0

    measure_ms = sorted(
        s.duration * 1000
        for s in by_name["selection.Evaluator.evaluate"]
        if any(c.name == "selection.total_cost" for c in children.get(s.span_id, ()))
    )
    if len(measure_ms) >= 2:
        deciles = statistics.quantiles(measure_ms, n=10, method="inclusive")
        p50, p90 = statistics.median(measure_ms), deciles[8]
    else:
        p50 = p90 = measure_ms[0] if measure_ms else 0.0

    load_s = busy("cli.load_observations")
    evaluate_calls = calls("selection.Evaluator.evaluate")
    metrics = {
        "dataset.load_catalog_s": busy("cli.load_catalog"),
        "dataset.load_observations_s": load_s,
        "dataset.rows": tracer.counts["rows"],
        "dataset.rows_per_s": _ratio(tracer.counts["rows"], load_s),
        "sensitivity.attacker_s": busy(*ATTACKERS),
        "sensitivity.pmf_support": _ratio(
            tracer.counts["pmf_support"], tracer.counts["attackers"]
        ),
        "sensitivity.build_dictionary_s": busy("sensitivity.build_dictionary"),
        "sensitivity.build_dictionary_calls": calls("sensitivity.build_dictionary"),
        "sensitivity.reach_self_s": sum(
            self_time(s, children, ("sensitivity.build_dictionary",
                                    "sensitivity.fp_match"))
            for s in by_name["selection.sensitivity"]
        ),
        "sensitivity.reach_calls": calls("selection.sensitivity"),
        "matching.fp_match_s": busy("sensitivity.fp_match"),
        "matching.fp_match_calls": calls("sensitivity.fp_match"),
        "matching.fp_match_true_ratio": _ratio(
            tracer.counts["fp_match_true"], calls("sensitivity.fp_match")
        ),
        "matching.calibrate_s": busy("cli.calibrate_thresholds"),
        "cost.total_cost_s": busy("selection.total_cost"),
        "cost.total_cost_calls": calls("selection.total_cost"),
        "selection.joint_entropy_s": busy("selection.joint_entropy_bits"),
        "selection.joint_entropy_calls": calls("selection.joint_entropy_bits"),
        "selection.measured_sets": sum(r["explored_count"] for r in reports),
        "selection.evaluate_calls": evaluate_calls,
        "selection.cache_hit_ratio": (
            1 - _ratio(calls("selection.total_cost"), evaluate_calls)
            if evaluate_calls else 0.0
        ),
        "selection.pruned_ratio": _ratio(pruned, expanded),
        "selection.measure_ms.p50": p50,
        "selection.measure_ms.p90": p90,
        "selection.search_self_s": sum(
            self_time(s, children) for n in SEARCHES for s in by_name[n]
        ),
        "selection.pool_wait_s": pool_wait(spans, tracer.owner),
        "cli.self_s": sum(
            self_time(s, children) for s in spans if s.name.startswith("command.")
        ),
    }
    return metrics


def search_shares(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Share of each search's CPU time spent in each measuring layer.

    Keyed by command span name. The base is the search span's CPU time
    plus that of its children on pool workers. CPU time leaves out the
    workers' wait for the GIL, which wall time would charge to whichever
    layer happened to be open.
    """
    children = children_of(tracer.spans)
    by_id = {s.span_id: s for s in tracer.spans}

    def command_of(span: Span) -> str:
        while span.parent is not None and not span.name.startswith("command."):
            span = by_id[span.parent]
        return span.name

    layers = {
        "build_dictionary": "sensitivity.build_dictionary",
        "fp_match": "sensitivity.fp_match",
        "total_cost": "selection.total_cost",
        "joint_entropy": "selection.joint_entropy_bits",
    }
    busy: dict[str, Counter] = defaultdict(Counter)
    for s in tracer.spans:
        kids = children.get(s.span_id, ())
        command = command_of(s)
        if s.name in SEARCHES:
            busy[command]["search"] += s.cpu + sum(
                c.cpu for c in kids if c.thread != s.thread)
        elif s.name == "selection.sensitivity":
            busy[command]["reach_self"] += s.cpu - sum(
                c.cpu for c in kids if c.name in ("sensitivity.build_dictionary",
                                                  "sensitivity.fp_match"))
        for key, name in layers.items():
            if s.name == name:
                busy[command][key] += s.cpu
    return {
        command: {key: totals[key] / totals["search"]
                  for key in ("reach_self", *layers)}
        for command, totals in busy.items()
        if totals["search"]
    }
