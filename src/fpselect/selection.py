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
from typing import Callable, Iterable, Sequence

import numpy as np

from .cost import CostBreakdown, CostWeights, total_cost
from .dataset import Dataset, column_indices
from .errors import ConfigError
from .sensitivity import AttackerInstance, impersonated_mask
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
    chosen_sensitivity: float
    candidate_cost: float
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
    if sensitivity_value == 0:
        return math.inf
    return saved / sensitivity_value


def greedy_lattice_search(
    attributes: Sequence[str],
    measure: MeasureFn,
    alpha: float,
    k: int,
    *,
    max_workers: int | None = 1,
) -> LatticeSearchOutcome:
    """Bounded-width bottom-up search for a cheap set below the threshold.

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
    if candidate_sensitivity > alpha:
        return LatticeSearchOutcome(
            chosen=None,
            chosen_cost=math.nan,
            chosen_sensitivity=math.nan,
            candidate_cost=candidate_cost,
            candidate_sensitivity=candidate_sensitivity,
            explored_count=len(cache),
            trace=(),
        )

    best_cost = math.inf
    satisfying: list[AttrSet] = []
    pruned: list[AttrSet] = []
    frontier: list[AttrSet] = [() for _ in range(k)]
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
            gain = math.inf if sens == 0 else (candidate_cost - cost) / sens
            return (-gain, cost, subset)

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

    chosen = min(satisfying, key=lambda s: (measured(s)[0], s))
    chosen_cost, chosen_sensitivity = measured(chosen)
    return LatticeSearchOutcome(
        chosen=chosen,
        chosen_cost=chosen_cost,
        chosen_sensitivity=chosen_sensitivity,
        candidate_cost=candidate_cost,
        candidate_sensitivity=candidate_sensitivity,
        explored_count=len(cache),
        trace=tuple(trace),
    )


def _one_larger(base: AttrSet, names: tuple[str, ...]) -> Iterable[AttrSet]:
    present = set(base)
    for name in names:
        if name not in present:
            yield tuple(n for n in names if n in present or n == name)


def _has_subset(subset: AttrSet, pool: list[AttrSet]) -> bool:
    members = set(subset)
    return any(members.issuperset(other) for other in pool)


# ---------------------------------------------------------------------------
# Dataset-backed measurement with memoization
# ---------------------------------------------------------------------------


class Evaluator:
    """Caches (cost, sensitivity) per attribute set for one run.

    Both measures are pure given the dataset and attacker, so the cache
    never changes results; it only keeps repeated lattice visits cheap.
    The number of cache entries is the number of explored sets.
    """

    def __init__(
        self, dataset: Dataset, attacker: AttackerInstance, weights: CostWeights
    ) -> None:
        self.dataset = dataset
        self.attacker = attacker
        self.weights = weights
        self._cache: dict[AttrSet, tuple[CostBreakdown, float]] = {}

    def evaluate(self, attrs: Iterable[str]) -> tuple[CostBreakdown, float]:
        key = self.dataset.catalog.canonical(attrs)
        hit = self._cache.get(key)
        if hit is None:
            breakdown = total_cost(key, self.dataset, self.weights)
            reached = impersonated_mask(key, self.attacker, self.dataset)
            hit = self._cache[key] = (
                breakdown,
                int(np.count_nonzero(reached)) / len(reached),
            )
        return hit

    def totals(self, attrs: AttrSet) -> tuple[float, float]:
        breakdown, sens = self.evaluate(attrs)
        return breakdown.total_points, sens

    @property
    def measured_count(self) -> int:
        return len(self._cache)


def _no_solution(
    method: str, evaluator: Evaluator, explored: int | None = None
) -> SelectionResult:
    _, candidate_sensitivity = evaluator.evaluate(evaluator.dataset.catalog.names)
    return SelectionResult(
        method=method,
        chosen=None,
        breakdown=None,
        sensitivity=None,
        candidate_sensitivity=candidate_sensitivity,
        explored_count=evaluator.measured_count if explored is None else explored,
    )


def _result(
    method: str,
    evaluator: Evaluator,
    chosen: AttrSet,
    candidate_sensitivity: float,
    explored: int,
    trace: tuple[SearchState, ...] = (),
) -> SelectionResult:
    breakdown, sens = evaluator.evaluate(chosen)
    return SelectionResult(
        method=method,
        chosen=chosen,
        breakdown=breakdown,
        sensitivity=sens,
        candidate_sensitivity=candidate_sensitivity,
        explored_count=explored,
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
    evaluator = Evaluator(dataset, attacker, config.weights)
    outcome = greedy_lattice_search(
        dataset.catalog.names,
        evaluator.totals,
        config.alpha,
        config.k,
        max_workers=max_workers,
    )
    if outcome.chosen is None:
        return _no_solution("greedy", evaluator, explored=outcome.explored_count)
    return _result(
        "greedy",
        evaluator,
        outcome.chosen,
        outcome.candidate_sensitivity,
        outcome.explored_count,
        outcome.trace,
    )


# ---------------------------------------------------------------------------
# Entropy baselines
# ---------------------------------------------------------------------------


def joint_entropy_bits(dataset: Dataset, attrs: Iterable[str]) -> float:
    """Shannon entropy of the projected stored fingerprints, in bits."""
    canon = dataset.catalog.canonical(attrs)
    stored = dataset.stored_codes
    keys = stored.group_keys(column_indices(dataset.catalog.names, canon))
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    population = len(keys)
    # Terms in order of first appearance, through math.log2 and the builtin
    # sum: the baselines rank on these floats, and ties hinge on the last ulp.
    return -sum(
        (c / population) * math.log2(c / population)
        for c in counts[np.argsort(first)].tolist()
    )


def select_entropy_baseline(
    dataset: Dataset, attacker: AttackerInstance, config: SelectionConfig
) -> SelectionResult:
    """Add attributes by descending entropy until the threshold holds."""
    evaluator = Evaluator(dataset, attacker, config.weights)
    _, candidate_sensitivity = evaluator.evaluate(dataset.catalog.names)
    if candidate_sensitivity > config.alpha:
        return _no_solution("entropy", evaluator)

    order = sorted(
        dataset.catalog.names,
        key=lambda a: (-joint_entropy_bits(dataset, (a,)), a),
    )
    chosen: list[str] = []
    for name in order:
        chosen.append(name)
        _, sens = evaluator.evaluate(chosen)
        if sens <= config.alpha:
            return _result(
                "entropy",
                evaluator,
                dataset.catalog.canonical(chosen),
                candidate_sensitivity,
                evaluator.measured_count,
            )
    return _no_solution("entropy", evaluator)


def select_cond_entropy_baseline(
    dataset: Dataset, attacker: AttackerInstance, config: SelectionConfig
) -> SelectionResult:
    """Greedily add the attribute with the highest conditional entropy.

    The gain of a candidate is the joint entropy of the chosen set plus the
    candidate minus the joint entropy of the chosen set, re-evaluated at
    every step, which skips attributes fully determined by earlier picks.
    """
    evaluator = Evaluator(dataset, attacker, config.weights)
    _, candidate_sensitivity = evaluator.evaluate(dataset.catalog.names)
    if candidate_sensitivity > config.alpha:
        return _no_solution("cond-entropy", evaluator)

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
        _, sens = evaluator.evaluate(chosen)
        if sens <= config.alpha:
            return _result(
                "cond-entropy",
                evaluator,
                dataset.catalog.canonical(chosen),
                candidate_sensitivity,
                evaluator.measured_count,
            )
    return _no_solution("cond-entropy", evaluator)


# ---------------------------------------------------------------------------
# Exhaustive oracle and direct evaluation
# ---------------------------------------------------------------------------


def select_exhaustive(
    dataset: Dataset,
    attacker: AttackerInstance,
    config: SelectionConfig,
    max_attributes: int = 15,
) -> SelectionResult:
    """True optimum by enumerating every subset. Exponential; keep n small."""
    names = dataset.catalog.names
    if len(names) > max_attributes:
        raise ConfigError(
            f"{len(names)} attributes exceed the exhaustive limit of {max_attributes}"
        )
    evaluator = Evaluator(dataset, attacker, config.weights)
    _, candidate_sensitivity = evaluator.evaluate(names)
    if candidate_sensitivity > config.alpha:
        return _no_solution("oracle", evaluator)

    best: AttrSet | None = None
    best_key: tuple[float, AttrSet] | None = None
    for size in range(len(names) + 1):
        for combo in itertools.combinations(names, size):
            breakdown, sens = evaluator.evaluate(combo)
            if sens > config.alpha:
                continue
            key = (breakdown.total_points, combo)
            if best_key is None or key < best_key:
                best, best_key = combo, key
    assert best is not None  # the candidate set itself satisfies alpha
    return _result(
        "oracle", evaluator, best, candidate_sensitivity, evaluator.measured_count
    )


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
    return Evaluation(
        breakdown=breakdown,
        sensitivity=int(np.count_nonzero(reached)) / len(reached),
        impersonated=frozenset(itertools.compress(dataset.user_mapping, reached)),
    )
