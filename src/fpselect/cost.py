"""Usability cost of an attribute set: storage, collection time, instability.

The three dimensions are averaged over a fingerprint dataset and combined
with a strictly positive weight vector into a single point score. Memory
and instability are additive per attribute; collection time accounts for
asynchronous attributes running concurrently with the sequential chain.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .catalog import dump_json
from .dataset import Dataset
from .errors import ConfigError


@dataclass(frozen=True)
class CostWeights:
    """Points per byte, per millisecond, and per changing attribute."""

    memory_per_byte: float = 1.0
    time_per_ms: float = 10.0
    instability_per_change: float = 10_000.0

    def __post_init__(self) -> None:
        for label, value in asdict(self).items():
            if not 0 < value < math.inf:
                raise ConfigError(
                    f"cost weight {label} must be finite and strictly positive"
                )

    def combine(self, memory_bytes: float, time_ms: float, instability: float) -> float:
        return (
            self.memory_per_byte * memory_bytes
            + self.time_per_ms * time_ms
            + self.instability_per_change * instability
        )

    @classmethod
    def parse(cls, text: str) -> "CostWeights":
        """Parse the CLI form ``"1,10,10000"``."""
        parts = text.split(",")
        if len(parts) != 3:
            raise ConfigError("weights must be three comma-separated numbers")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"weights {text!r} are not numeric") from None
        return cls(*values)

    def as_tuple(self) -> tuple[float, float, float]:
        return astuple(self)


@dataclass(frozen=True)
class CostBreakdown:
    memory_bytes: float
    time_ms: float
    instability_changes: float
    total_points: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


def mem_cost(attrs: Iterable[str], dataset: Dataset) -> float:
    """Average fingerprint size in UTF-8 bytes over the dataset."""
    return _mem_cost(dataset.catalog.canonical(attrs), dataset)


def time_cost(attrs: Iterable[str], dataset: Dataset) -> float:
    """Average collection time in ms; asynchronous attributes overlap.

    Per observation the cost is the maximum of each asynchronous
    attribute's time and the sum of the sequential ones.
    """
    return _time_cost(dataset.catalog.canonical(attrs), dataset)


def ins_cost(attrs: Iterable[str], dataset: Dataset) -> float:
    """Average number of attributes changing between consecutive observations."""
    return _ins_cost(dataset.catalog.canonical(attrs), dataset)


def total_cost(
    attrs: Iterable[str], dataset: Dataset, weights: CostWeights
) -> CostBreakdown:
    canon = dataset.catalog.canonical(attrs)
    memory = _mem_cost(canon, dataset)
    time_ms = _time_cost(canon, dataset)
    instability = _ins_cost(canon, dataset)
    return CostBreakdown(
        memory_bytes=memory,
        time_ms=time_ms,
        instability_changes=instability,
        total_points=weights.combine(memory, time_ms, instability),
    )


# The bodies of the measures above, on a set already in canonical order.
def _mem_cost(canon: tuple[str, ...], dataset: Dataset) -> float:
    totals = dataset.attribute_byte_totals
    return sum(totals[a] for a in canon) / len(dataset)


def _time_cost(canon: tuple[str, ...], dataset: Dataset) -> float:
    times = dataset.attribute_times
    per_obs = np.zeros(len(dataset))
    for a in canon:
        if not dataset.catalog.spec(a).is_async:
            per_obs += times[a]
    for a in canon:
        if dataset.catalog.spec(a).is_async:
            np.maximum(per_obs, times[a], out=per_obs)
    return float(per_obs.sum() / len(per_obs))


def _ins_cost(canon: tuple[str, ...], dataset: Dataset) -> float:
    pairs = dataset.consecutive_pair_count
    if pairs == 0:
        raise ConfigError(
            "instability needs at least one pair of consecutive observations"
        )
    changes = dataset.attribute_change_counts
    return sum(changes[a] for a in canon) / pairs


def subset_costs(
    dataset: Dataset, weights: CostWeights
) -> dict[tuple[str, ...], CostBreakdown]:
    """``total_cost`` of every subset, bit for bit, in one depth-first pass
    over the sorted names, so the keys come in sorted tuple order. Each set
    extends its prefix by one attribute, so its byte total, change count and
    synchronous time sum are the prefix's plus one column: ``_time_cost``'s
    additions in its order. The maximum over the asynchronous columns is
    exact in any order; as there, the sum is its first argument. The walk
    carries at most n + 1 per-observation arrays."""
    _ins_cost((), dataset)  # refuses a dataset without a consecutive pair
    rows, pairs = len(dataset), dataset.consecutive_pair_count
    totals, changes = dataset.attribute_byte_totals, dataset.attribute_change_counts
    times, spec = dataset.attribute_times, dataset.catalog.spec
    columns = [(a, times[a], spec(a).is_async) for a in dataset.catalog.names]
    costs = {}

    def visit(start, prefix, memory, changed, sync, latest) -> None:
        total_ms = (sync if latest is None else np.maximum(sync, latest)).sum()
        m, t, i = memory / rows, float(total_ms / rows), changed / pairs
        costs[prefix] = CostBreakdown(m, t, i, weights.combine(m, t, i))
        for j, (a, column, is_async) in enumerate(columns[start:], start + 1):
            if is_async and latest is not None:
                column = np.maximum(latest, column)
            visit(j, (*prefix, a), memory + totals[a], changed + changes[a],
                  sync if is_async else sync + column, column if is_async else latest)

    visit(0, (), 0, 0, np.zeros(rows), None)
    return costs


@dataclass(frozen=True)
class AttributeCostStats:
    """Singleton costs per attribute plus dimension-wise aggregates."""

    per_attribute: dict[str, CostBreakdown]
    candidate_set: CostBreakdown
    minimum: CostBreakdown
    average: CostBreakdown
    maximum: CostBreakdown

    def to_json(self) -> dict:
        return asdict(self)

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(dump_json(self.to_json()), encoding="utf-8")

    def save_csv(self, path: str | Path) -> None:
        rows = [(name, self.per_attribute[name]) for name in sorted(self.per_attribute)]
        rows += [("<candidate set>", self.candidate_set), ("<minimum>", self.minimum),
                 ("<average>", self.average), ("<maximum>", self.maximum)]
        with Path(path).open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["attribute", *(f.name for f in fields(CostBreakdown))])
            writer.writerows([label, *astuple(b)] for label, b in rows)


def _dimension_wise(
    breakdowns: Sequence[CostBreakdown], reducer
) -> CostBreakdown:
    return CostBreakdown(**{
        f.name: reducer(getattr(b, f.name) for b in breakdowns)
        for f in fields(CostBreakdown)
    })


def attribute_cost_stats(dataset: Dataset, weights: CostWeights) -> AttributeCostStats:
    """Singleton cost of every catalog attribute, with min/avg/max aggregates."""
    per_attribute = {
        name: total_cost((name,), dataset, weights) for name in dataset.catalog.names
    }
    singles = list(per_attribute.values())
    count = len(singles)
    return AttributeCostStats(
        per_attribute=per_attribute,
        candidate_set=total_cost(dataset.catalog.names, dataset, weights),
        minimum=_dimension_wise(singles, min),
        average=_dimension_wise(singles, lambda xs: sum(xs) / count),
        maximum=_dimension_wise(singles, max),
    )
