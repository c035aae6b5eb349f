"""Pure-Python reference implementations of the integer-coded measures.

These are the projection-based bodies of ``build_dictionary``,
``impersonated_users`` and ``joint_entropy_bits`` from before the measures
moved to integer codes. They project every PMF entry or stored
fingerprint per call and hash the tuples. The row walks behind the cost
columns, ``Dataset.attribute_byte_totals``,
``Dataset.attribute_change_counts`` and the consecutive-pair walk, read
every ``Observation.values`` dict, as does ``calibrate_thresholds``, which
also computes a distance for every pair it draws. ``edit_distance`` is the
Levenshtein table from before the bit-parallel kernel, and calibration's
text distances go through it. Property tests pin the coded kernels to
them, float for float and count for count.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from typing import Iterable

from fpselect import (
    AttributeCatalog,
    AttributeSpec,
    CalibrationReport,
    ConfigError,
    Dataset,
    Observation,
    SchemaError,
    fp_match,
    project,
)
from fpselect.dataset import utf8_size
from fpselect.matching import (
    DistanceKind,
    _derived_rng,
    distance,
    distance_kind_for,
    max_margin_threshold,
)
from fpselect.sensitivity import AttackerInstance, Dictionary, UserMapping


def edit_distance(x: str, y: str) -> int:
    """Levenshtein distance by the O(|x|·|y|) table, one row at a time."""
    if x == y:
        return 0
    if len(x) < len(y):
        x, y = y, x
    previous = list(range(len(y) + 1))
    for i, cx in enumerate(x, start=1):
        current = [i]
        for j, cy in enumerate(y, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (cx != cy),
                )
            )
        previous = current
    return previous[-1]


def build_dictionary(attacker: AttackerInstance, attrs: Iterable[str]) -> Dictionary:
    """Project the attacker's PMF and keep the budgeted most probable tuples."""
    target = tuple(attrs)
    missing = set(target) - set(attacker.pmf.attrs)
    if missing:
        raise ConfigError(
            f"attribute {sorted(missing)[0]!r} is outside the attacker's knowledge"
        )
    collapsed: dict[tuple[str, ...], float] = {}
    for values, prob in attacker.pmf.entries:
        key = project(values, attacker.pmf.attrs, target)
        collapsed[key] = collapsed.get(key, 0.0) + prob
    ranked = sorted(collapsed.items(), key=lambda item: (-item[1], item[0]))
    top = ranked[: attacker.beta]
    return Dictionary(
        attrs=target,
        entries=tuple(values for values, _ in top),
        probabilities=tuple(prob for _, prob in top),
    )


def impersonated_users(
    attrs: Iterable[str],
    attacker: AttackerInstance,
    mapping: UserMapping,
    catalog: AttributeCatalog,
) -> set[str]:
    """Users whose stored fingerprint matches some dictionary submission."""
    if not mapping:
        raise ConfigError("empty user population")
    canon = catalog.canonical(attrs)
    dictionary = build_dictionary(attacker, canon)
    names = catalog.names

    if all(catalog.spec(a).matches_exactly for a in canon):
        submitted = set(dictionary.entries)
        return {
            user
            for user, stored in mapping.items()
            if project(stored, names, canon) in submitted
        }

    reached: set[str] = set()
    for user, stored in mapping.items():
        projected = project(stored, names, canon)
        if any(
            fp_match(canon, catalog, projected, guess)
            for guess in dictionary.entries
        ):
            reached.add(user)
    return reached


def joint_entropy_bits(dataset: Dataset, attrs: Iterable[str]) -> float:
    """Shannon entropy of the projected stored fingerprints, in bits."""
    canon = dataset.catalog.canonical(attrs)
    mapping = dataset.user_mapping
    counts = Counter(
        project(fp, dataset.catalog.names, canon) for fp in mapping.values()
    )
    population = len(mapping)
    return -sum(
        (c / population) * math.log2(c / population) for c in counts.values()
    )


def consecutive_observations(dataset: Dataset) -> list[tuple[Observation, Observation]]:
    """Consecutive observations of the same browser, browser by browser."""
    pairs = []
    for browser in dataset.browser_ids:
        obs = dataset.browser_observations(browser)
        pairs.extend(zip(obs, obs[1:]))
    return pairs


def attribute_byte_totals(dataset: Dataset) -> dict[str, int]:
    """Sum of UTF-8 value sizes per attribute over all observations."""
    totals = dict.fromkeys(dataset.catalog.names, 0)
    for obs in dataset.observations:
        for a in dataset.catalog.names:
            totals[a] += utf8_size(obs.values[a])
    return totals


def attribute_change_counts(dataset: Dataset) -> dict[str, int]:
    """How many consecutive same-browser pairs changed, per attribute."""
    counts = dict.fromkeys(dataset.catalog.names, 0)
    for earlier, later in consecutive_observations(dataset):
        for a in dataset.catalog.names:
            if earlier.values[a] != later.values[a]:
                counts[a] += 1
    return counts


def _window_split(dataset: Dataset, windows: int) -> list[list[str]]:
    groups: list[list[str]] = [[] for _ in range(windows)]
    for i, browser in enumerate(dataset.browser_ids):
        groups[i % windows].append(browser)
    return groups


def calibrate_thresholds(
    dataset: Dataset,
    windows: int,
    *,
    seed: int = 0,
    negative_cap: int = 1000,
) -> CalibrationReport:
    """Per-window max-margin thresholds from consecutive (positive) and
    randomly paired cross-browser (negative) observations, averaged."""
    if windows < 1:
        raise ConfigError("windows must be >= 1")
    catalog = dataset.catalog
    groups = _window_split(dataset, windows)
    window_of = {b: w for w, browsers in enumerate(groups) for b in browsers}
    window_pairs: list[list] = [[] for _ in groups]
    for earlier, later in consecutive_observations(dataset):
        window_pairs[window_of[earlier.browser_id]].append((earlier, later))

    window_thresholds: dict[str, list[float]] = {a: [] for a in catalog.names}
    for w, (browsers, pairs) in enumerate(zip(groups, window_pairs)):
        if not pairs:
            raise ConfigError(
                f"window {w}: no consecutive same-browser fingerprints"
            )
        if len(browsers) < 2:
            raise ConfigError(f"window {w}: needs at least two browsers")
        for attr in catalog.attributes:
            positives = [
                _value_distance(
                    attr, earlier.values[attr.name], later.values[attr.name]
                )
                for earlier, later in pairs
            ]
            rng = _derived_rng(seed, w, attr.name)
            negatives = _negative_distances(
                dataset, browsers, attr, min(len(positives), negative_cap), rng
            )
            if not negatives:
                raise ConfigError(
                    f"window {w}: no cross-browser pairs for {attr.name!r}"
                )
            window_thresholds[attr.name].append(
                max_margin_threshold(positives, negatives)
            )

    averages = {
        name: statistics.fmean(values)
        for name, values in window_thresholds.items()
    }
    return CalibrationReport(
        windows=windows,
        window_thresholds={
            name: tuple(values) for name, values in window_thresholds.items()
        },
        thresholds=averages,
    )


def _value_distance(attr: AttributeSpec, x: str, y: str) -> float:
    kind = distance_kind_for(attr)
    if kind is DistanceKind.EDIT_DISTANCE:
        return float(edit_distance(x, y))
    try:
        return distance(kind, x, y, attr.set_separator)
    except ValueError as exc:
        raise SchemaError(f"attribute {attr.name!r}: {exc}") from None


def _negative_distances(
    dataset: Dataset,
    browsers: list[str],
    attr: AttributeSpec,
    count: int,
    rng: random.Random,
) -> list[float]:
    out: list[float] = []
    for _ in range(count):
        first, second = rng.sample(browsers, 2)
        x = rng.choice(dataset.browser_observations(first)).values[attr.name]
        y = rng.choice(dataset.browser_observations(second)).values[attr.name]
        out.append(_value_distance(attr, x, y))
    return out
