"""Attribute-set selection: greedy lattice search, baselines, and an oracle.

Minimizing cost subject to a sensitivity ceiling is a knapsack-style
problem (and NP-hard: with uncorrelated attributes each one has a fixed
value and weight, which is exactly 0/1 knapsack), except that here the
cost saved and sensitivity added by an attribute depend on the attributes
already chosen. Exhaustive search over the 2^n subsets is the ground
truth but only feasible for small catalogs.

The greedy search therefore walks the power-set lattice bottom-up along a
bounded number of paths, expanding the most efficient partial solutions
until every path crosses the satisfiability frontier, pruning supersets
of already-satisfying or already-too-expensive sets. The entropy
baselines rank attributes by (conditional) Shannon entropy and accumulate
until the sensitivity threshold holds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .cost import CostBreakdown, CostWeights, subset_costs, total_cost
from .dataset import Dataset, joint_entropy_bits
from .errors import ConfigError
from .sensitivity import (AttackerInstance, impersonated_mask, impersonated_share,
                          non_monotone_reason)
from .sensitivity import sensitivity  # noqa: F401  (bench/tracer.py wraps it here)

AttrSet = tuple[str, ...]
MeasureFn = Callable[[AttrSet], tuple[float, float]]


@dataclass(frozen=True)
class SelectionConfig:
    """Verifier-side parameters of a selection run."""

    alpha: float
    k: int = 1
    weights: CostWeights = field(default_factory=CostWeights)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("sensitivity threshold alpha must be in (0, 1]")
        if self.k < 1:
            raise ConfigError("explored path count k must be >= 1")


@dataclass(frozen=True)
class SearchState:
    """Snapshot taken at the end of one expansion stage."""

    stage: int
    expanded: tuple[AttrSet, ...]
    satisfying: tuple[AttrSet, ...]
    frontier: tuple[AttrSet, ...]
    pruned: tuple[AttrSet, ...]
    best_satisfying_cost: float


@dataclass(frozen=True)
class LatticeSearchOutcome:
    chosen: AttrSet | None
    chosen_cost: float
    candidate_sensitivity: float
    explored_count: int
    trace: tuple[SearchState, ...]


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection method, or the explicit no-solution report."""

    method: str
    chosen: AttrSet | None
    breakdown: CostBreakdown | None
    sensitivity: float | None
    candidate_sensitivity: float
    explored_count: int
    trace: tuple[SearchState, ...] = ()

    @property
    def is_no_solution(self) -> bool:
        return self.chosen is None


def efficiency(
    attrs: Iterable[str],
    dataset: Dataset,
    weights: CostWeights,
    sensitivity_value: float,
) -> float:
    """Cost reduction relative to the full candidate set, per unit sensitivity.

    Zero sensitivity ranks as infinitely efficient: the set already resists
    the attacker completely while costing less than the full set.
    """
    saved = (
        total_cost(dataset.catalog.names, dataset, weights).total_points
        - total_cost(attrs, dataset, weights).total_points
    )
    return _gain(saved, sensitivity_value)


def _gain(saved: float, sensitivity_value: float) -> float:
    """Cost saved per unit sensitivity; zero sensitivity ranks as infinite."""
    return math.inf if sensitivity_value == 0 else saved / sensitivity_value


def greedy_lattice_search(
    attributes: Sequence[str],
    measure: MeasureFn,
    alpha: float,
    k: int,
    *,
    max_workers: int | None = 1,
) -> LatticeSearchOutcome:
    """Bounded-width bottom-up search for a cheap set below the threshold.

    ``attributes`` are distinct names, and each one-larger set is sorted.
    ``measure`` maps a canonical attribute tuple to ``(cost, sensitivity)``
    and must be pure; results are cached here, so each distinct set is
    measured once. Expansion, classification, and truncation run in
    deterministic canonical order. Sets are measured one at a time for
    any ``max_workers`` (``None`` included): measured against serial
    runs, a thread pool only made the search slower.
    """
    names = tuple(sorted(attributes))
    cache: dict[AttrSet, tuple[float, float]] = {}

    def measured(subset: AttrSet) -> tuple[float, float]:
        hit = cache.get(subset)
        if hit is None:
            hit = cache[subset] = measure(subset)
        return hit

    candidate_cost, candidate_sensitivity = measured(names)
    best_cost = math.inf
    # The empty set reaches every user, so it meets alpha exactly when alpha >= 1.
    satisfying: list[AttrSet] = [()] if alpha >= 1 else []
    pruned: list[AttrSet] = []
    frontier: list[AttrSet] = [()] if candidate_sensitivity <= alpha < 1 else []
    trace: list[SearchState] = []
    stage = 0

    while frontier:
        stage += 1
        blockers = satisfying + pruned
        expanded = sorted(
            {
                grown
                for base in frontier
                for grown in _one_larger(base, names)
                if not _has_subset(grown, blockers)
            }
        )

        survivors: list[AttrSet] = []
        for subset in expanded:
            cost, sens = measured(subset)
            if sens <= alpha:
                satisfying.append(subset)
                best_cost = min(best_cost, cost)
            elif cost < best_cost:
                survivors.append(subset)
            else:
                pruned.append(subset)

        def rank(subset: AttrSet) -> tuple[float, float, AttrSet]:
            cost, sens = measured(subset)
            return (-_gain(candidate_cost - cost, sens), cost, subset)

        frontier = sorted(survivors, key=rank)[:k]
        trace.append(
            SearchState(
                stage=stage,
                expanded=tuple(expanded),
                satisfying=tuple(sorted(satisfying)),
                frontier=tuple(frontier),
                pruned=tuple(sorted(pruned)),
                best_satisfying_cost=best_cost,
            )
        )

    chosen = min(satisfying, key=lambda s: (measured(s)[0], s), default=None)
    return LatticeSearchOutcome(
        chosen=chosen,
        chosen_cost=math.nan if chosen is None else measured(chosen)[0],
        candidate_sensitivity=candidate_sensitivity,
        explored_count=len(cache),
        trace=tuple(trace),
    )


def _one_larger(base: AttrSet, names: tuple[str, ...]) -> Iterable[AttrSet]:
    return (tuple(sorted((*base, name))) for name in names if name not in base)


def _has_subset(subset: AttrSet, pool: list[AttrSet]) -> bool:
    members = set(subset)
    return any(members.issuperset(other) for other in pool)


# ---------------------------------------------------------------------------
# Dataset-backed measurement with memoization
# ---------------------------------------------------------------------------


class Evaluator:
    """Records one run's measures once per set, each in its own table.

    ``costs`` maps every costed canonical set to its ``CostBreakdown``, so
    its size is ``explored_count``; the oracle costs sets it never measures.
    Both measures are pure given the dataset and attacker, so the tables
    never change results; they only keep repeated lattice visits cheap.
    """

    def __init__(
        self, dataset: Dataset, attacker: AttackerInstance, weights: CostWeights
    ) -> None:
        self.dataset = dataset
        self.attacker = attacker
        self.weights = weights
        self.costs: dict[AttrSet, CostBreakdown] = {}
        self._shares: dict[AttrSet, float] = {}  # sensitivity, the impersonated share

    def evaluate(self, attrs: Iterable[str]) -> tuple[CostBreakdown, float]:
        key = self.dataset.catalog.canonical(attrs)
        if key not in self.costs:
            self.costs[key] = total_cost(key, self.dataset, self.weights)
        if key not in self._shares:
            self._shares[key] = impersonated_share(key, self.attacker, self.dataset)
        return self.costs[key], self._shares[key]

    def totals(self, attrs: AttrSet) -> tuple[float, float]:
        breakdown, sens = self.evaluate(attrs)
        return breakdown.total_points, sens


# What a method's own search found: a canonical set, or None, and its trace.
Found = tuple[AttrSet | None, tuple[SearchState, ...]]


def _select(
    method: str,
    dataset: Dataset,
    attacker: AttackerInstance,
    config: SelectionConfig,
    search: Callable[[Evaluator], Found],
    gate: bool = True,
) -> SelectionResult:
    """Measure the full set, run ``search`` if it meets alpha or ``gate`` is
    off, and report."""
    evaluator = Evaluator(dataset, attacker, config.weights)
    _, candidate_sensitivity = evaluator.evaluate(dataset.catalog.names)
    chosen, trace = None, ()
    if candidate_sensitivity <= config.alpha or not gate:
        chosen, trace = search(evaluator)
    breakdown, sens = (None, None) if chosen is None else evaluator.evaluate(chosen)
    return SelectionResult(
        method=method,
        chosen=chosen,
        breakdown=breakdown,
        sensitivity=sens,
        candidate_sensitivity=candidate_sensitivity,
        explored_count=len(evaluator.costs),
        trace=trace,
    )


def select_greedy(
    dataset: Dataset,
    attacker: AttackerInstance,
    config: SelectionConfig,
    *,
    max_workers: int | None = 1,
) -> SelectionResult:
    """Run the bounded-width lattice search against a dataset."""

    def search(evaluator: Evaluator) -> Found:
        outcome = greedy_lattice_search(
            dataset.catalog.names,
            evaluator.totals,
            config.alpha,
            config.k,
            max_workers=max_workers,
        )
        return outcome.chosen, outcome.trace

    return _select("greedy", dataset, attacker, config, search)


# ---------------------------------------------------------------------------
# Entropy baselines
# ---------------------------------------------------------------------------


def _first_satisfying(
    evaluator: Evaluator, picks: Iterable[str], alpha: float
) -> AttrSet | None:
    """Add ``picks`` one at a time; the first prefix meeting alpha, canonical."""
    if alpha >= 1:  # the empty prefix reaches every user
        return ()
    chosen: list[str] = []
    for name in picks:
        chosen.append(name)
        _, sens = evaluator.evaluate(chosen)
        if sens <= alpha:
            return evaluator.dataset.catalog.canonical(chosen)
    return None


def select_entropy_baseline(
    dataset: Dataset, attacker: AttackerInstance, config: SelectionConfig
) -> SelectionResult:
    """Add attributes by descending entropy until the threshold holds."""

    def search(evaluator: Evaluator) -> Found:
        order = sorted(
            dataset.catalog.names,
            key=lambda a: (-joint_entropy_bits(dataset, (a,)), a),
        )
        return _first_satisfying(evaluator, order, config.alpha), ()

    return _select("entropy", dataset, attacker, config, search)


def select_cond_entropy_baseline(
    dataset: Dataset, attacker: AttackerInstance, config: SelectionConfig
) -> SelectionResult:
    """Greedily add the attribute with the highest conditional entropy.

    The gain of a candidate is the joint entropy of the chosen set plus the
    candidate minus the joint entropy of the chosen set, re-evaluated at
    every step, which skips attributes fully determined by earlier picks.
    """

    def picks() -> Iterator[str]:
        chosen: list[str] = []
        remaining = set(dataset.catalog.names)
        while remaining:
            base = joint_entropy_bits(dataset, chosen)
            best = min(
                remaining,
                key=lambda a: (-(joint_entropy_bits(dataset, [*chosen, a]) - base), a),
            )
            chosen.append(best)
            remaining.remove(best)
            yield best

    def search(evaluator: Evaluator) -> Found:
        return _first_satisfying(evaluator, picks(), config.alpha), ()

    return _select("cond-entropy", dataset, attacker, config, search)


# ---------------------------------------------------------------------------
# Exhaustive oracle and direct evaluation
# ---------------------------------------------------------------------------


def select_exhaustive(
    dataset: Dataset,
    attacker: AttackerInstance,
    config: SelectionConfig,
    max_attributes: int = 15,
) -> SelectionResult:
    """True optimum: adds all 2^n subsets, costed in one depth-first pass, to
    ``evaluator.costs`` (so 2^n is its ``explored_count``) and chooses the
    first by ``total_points`` that meets alpha; a stable sort keeps ties in
    the walk's order, which is ``set`` order. Unless sensitivity is
    monotone, it measures them in that order and a full set above alpha
    proves nothing. If it is, a set above alpha rules out its subsets:
    largest first, it measures only sets ranked before the best so far and
    inside no measured failure."""
    names = dataset.catalog.names
    if len(names) > max_attributes:
        raise ConfigError(
            f"{len(names)} attributes exceed the exhaustive limit of {max_attributes}"
        )
    monotone = non_monotone_reason(attacker, dataset) is None

    def search(evaluator: Evaluator) -> Found:
        walk = subset_costs(dataset, config.weights)
        evaluator.costs.update(walk)
        ranked = sorted(walk, key=lambda combo: walk[combo].total_points)
        order = range(len(ranked))
        if monotone:  # largest first; the sort is stable, so rank order within a size
            order = sorted(order, key=lambda r: -len(ranked[r]))
        best, failed = len(ranked), []
        for r in order:
            if r >= best or any(f.issuperset(ranked[r]) for f in failed):
                continue
            if evaluator.evaluate(ranked[r])[1] <= config.alpha:
                best = r
            elif monotone:
                failed.append(frozenset(ranked[r]))
        return (ranked[best] if best < len(ranked) else None), ()

    return _select("oracle", dataset, attacker, config, search, gate=monotone)


@dataclass(frozen=True)
class Evaluation:
    """Cost and attacker reach of one user-chosen attribute set."""

    breakdown: CostBreakdown
    sensitivity: float
    impersonated: frozenset[str]


def evaluate(
    attrs: Iterable[str],
    dataset: Dataset,
    attacker: AttackerInstance,
    weights: CostWeights,
) -> Evaluation:
    canon = dataset.catalog.canonical(attrs)
    breakdown = total_cost(canon, dataset, weights)
    reached = impersonated_mask(canon, attacker, dataset)
    impersonated = frozenset(itertools.compress(dataset.browser_ids, reached))
    return Evaluation(breakdown, len(impersonated) / len(reached), impersonated)
