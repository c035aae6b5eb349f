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
text distances go through it. ``max_margin_threshold`` is the index loop
over the candidate thresholds from before it became one ``min``, and
calibration's thresholds go through it.

``load_observations`` is the row loader from before the loader wrote code
columns: it checks each JSON line into an ``Observation`` and then checks
that every browser's seqs increase. Like the loader, it refuses a value or a
browser id that has no UTF-8 form, a lone surrogate. ``browser_groups``,
``user_mapping``, ``codes``, ``attribute_times``, ``pairs`` and ``pmf`` are
the views the ``Dataset`` built from those rows, and ``pmf`` counts projected
stored fingerprints with a ``Counter``. Property tests pin the coded kernels
and the column loader to them, float for float, count for count and error
message for error message.

``select_exhaustive`` is the oracle from before it ranked the subsets by
cost: it measures the cost and the sensitivity of every subset and keeps the
least ``(total_points, set)`` that meets alpha.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from fpselect import (
    AttributeCatalog,
    AttributeSpec,
    CalibrationReport,
    ConfigError,
    Dataset,
    Observation,
    Pmf,
    SchemaError,
    fp_match,
    project,
    total_cost,
)
from fpselect.catalog import as_int
from fpselect.dataset import CodedRows, ValueTuple, encode_rows, utf8_size
from fpselect.matching import (
    DistanceKind,
    _derived_rng,
    distance,
    distance_kind_for,
)
from fpselect.selection import SelectionConfig, SelectionResult
from fpselect.sensitivity import (
    AttackerInstance,
    Dictionary,
    UserMapping,
    impersonated_share,
    non_monotone_reason,
)


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


def load_observations(path: str | Path, catalog: AttributeCatalog) -> tuple[Observation, ...]:
    """Check every line of a JSON Lines dataset into an ``Observation``, then
    check that each browser's seqs increase."""
    path = Path(path)
    names = set(catalog.names)
    observations: list[Observation] = []
    with path.open(encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise SchemaError(f"{where}: row must be a JSON object")
            for required in ("browser_id", "seq", "values"):
                if required not in row:
                    raise SchemaError(f"{where}: missing field {required!r}")
            if not isinstance(row["browser_id"], str):
                raise SchemaError(f"{where}: 'browser_id' must be a string")
            values = row["values"]
            if not isinstance(values, dict):
                raise SchemaError(f"{where}: 'values' must be an object")
            collect = row.get("collect_ms", {})
            if not isinstance(collect, dict):
                raise SchemaError(f"{where}: 'collect_ms' must be an object")
            try:
                seq = as_int(row["seq"])
                collect_ms = {
                    a: float(t) for a, t in collect.items() if type(t) is not bool
                }
                if len(collect_ms) < len(collect):
                    raise ValueError("collect_ms must hold numbers, not booleans")
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"{where}: {exc}") from exc
            obs = Observation(
                browser_id=row["browser_id"],
                seq=seq,
                values=dict(values),
                collect_ms=collect_ms,
            )
            _validate_observation(obs, names, where)
            observations.append(obs)
    if not observations:
        raise SchemaError(f"{path}: empty dataset")
    browser_groups(observations)
    return tuple(observations)


def _validate_observation(obs: Observation, names: set[str], where: str) -> None:
    if obs.seq < 0:
        raise SchemaError(f"{where}: seq must be non-negative")
    got = set(obs.values)
    for unknown in sorted(got - names):
        raise SchemaError(f"{where}: unknown attribute {unknown!r}")
    for missing in sorted(names - got):
        raise SchemaError(f"{where}: missing value for attribute {missing!r}")
    for a, v in obs.values.items():
        if not isinstance(v, str):
            raise SchemaError(f"{where}: value for {a!r} must be a string")
        try:
            v.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{where}: value for {a!r} is not valid UTF-8") from None
    for a, t in obs.collect_ms.items():
        if a not in names:
            raise SchemaError(f"{where}: collect_ms for unknown attribute {a!r}")
        if not isinstance(t, (int, float)) or not 0 <= t < math.inf:
            raise SchemaError(
                f"{where}: collect_ms for {a!r} must be finite and non-negative"
            )
    try:
        obs.browser_id.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(f"{where}: 'browser_id' is not valid UTF-8") from None


def browser_groups(observations: Sequence[Observation]) -> dict[str, list[int]]:
    """Each browser's row indices, browsers in order of first appearance.

    Raises on the first seq that does not increase within its browser.
    """
    groups: dict[str, list[int]] = {}
    last_seq: dict[str, int] = {}
    for i, obs in enumerate(observations):
        prev = last_seq.get(obs.browser_id)
        if prev is not None and obs.seq <= prev:
            raise SchemaError(
                f"observation {i}: seq {obs.seq} for browser"
                f" {obs.browser_id!r} does not increase (previous {prev})"
            )
        last_seq[obs.browser_id] = obs.seq
        groups.setdefault(obs.browser_id, []).append(i)
    return groups


def _value_tuple(catalog: AttributeCatalog, obs: Observation) -> ValueTuple:
    return tuple(obs.values[a] for a in catalog.names)


def user_mapping(
    catalog: AttributeCatalog, observations: Sequence[Observation]
) -> dict[str, ValueTuple]:
    """Stored fingerprint per user: the browser's first observation."""
    return {
        b: _value_tuple(catalog, observations[ix[0]])
        for b, ix in browser_groups(observations).items()
    }


def codes(catalog: AttributeCatalog, observations: Sequence[Observation]) -> CodedRows:
    """Every observation's values as integer codes, in catalog order."""
    return encode_rows(
        [_value_tuple(catalog, obs) for obs in observations], len(catalog)
    )


def attribute_times(
    catalog: AttributeCatalog, observations: Sequence[Observation]
) -> dict[str, np.ndarray]:
    """Per-attribute collection times, one entry per observation."""
    columns = {a: np.empty(len(observations)) for a in catalog.names}
    for i, obs in enumerate(observations):
        for a in catalog.names:
            columns[a][i] = obs.collect_ms.get(a, 0.0)
    return columns


def pairs(observations: Sequence[Observation]) -> np.ndarray:
    """Rows: earlier and later index of every consecutive same-browser pair."""
    found = [
        p for ix in browser_groups(observations).values() for p in zip(ix, ix[1:])
    ]
    return np.array(found, dtype=np.intp).reshape(-1, 2).T


def pmf(
    catalog: AttributeCatalog, observations: Sequence[Observation], attrs: Iterable[str]
) -> Pmf:
    """Distribution of projected stored fingerprints across users."""
    canon = catalog.canonical(attrs)
    mapping = user_mapping(catalog, observations)
    counts = Counter(project(fp, catalog.names, canon) for fp in mapping.values())
    population = len(mapping)
    entries = tuple(
        (values, counts[values] / population) for values in sorted(counts)
    )
    return Pmf(canon, entries)


def joint_entropy_bits(dataset: Dataset, attrs: Iterable[str]) -> float:
    """Shannon entropy of the projected stored fingerprints, in bits."""
    canon = dataset.catalog.canonical(attrs)
    mapping = user_mapping(dataset.catalog, dataset.observations)
    counts = Counter(
        project(fp, dataset.catalog.names, canon) for fp in mapping.values()
    )
    population = len(mapping)
    return -sum(
        (c / population) * math.log2(c / population) for c in counts.values()
    )


def consecutive_observations(dataset: Dataset) -> list[tuple[Observation, Observation]]:
    """Consecutive observations of the same browser, browser by browser."""
    observations = dataset.observations
    return [(observations[a], observations[b]) for a, b in pairs(observations).T]


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


def max_margin_threshold(
    positives: Sequence[float], negatives: Sequence[float]
) -> float:
    """The threshold with the fewest misclassifications, then the widest
    margin, then the smallest value, found by walking the candidates."""
    if not positives or not negatives:
        raise ConfigError("both distance classes must be non-empty")
    pos = sorted(positives)
    neg = sorted(negatives)
    values = sorted(set(pos) | set(neg))

    best: tuple[float, float, float] | None = None  # (errors, -margin, t)
    for i in range(len(values) + 1):
        if i == 0:
            if values[0] <= 0:
                continue  # thresholds are non-negative
            t = values[0] / 2.0
            margin = t
        elif i == len(values):
            t = values[-1]
            margin = 0.0
        else:
            lo, hi = values[i - 1], values[i]
            t = (lo + hi) / 2.0
            margin = (hi - lo) / 2.0
        errors = (len(pos) - bisect_right(pos, t)) + bisect_right(neg, t)
        key = (float(errors), -margin, t)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2]


def _window_split(dataset: Dataset, windows: int) -> list[list[str]]:
    groups: list[list[str]] = [[] for _ in range(windows)]
    for i, browser in enumerate(browser_groups(dataset.observations)):
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
    if negative_cap < 1:
        raise ConfigError("negative_cap must be >= 1")
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
    observations = dataset.observations
    groups = browser_groups(observations)
    out: list[float] = []
    for _ in range(count):
        first, second = rng.sample(browsers, 2)
        x = observations[rng.choice(groups[first])].values[attr.name]
        y = observations[rng.choice(groups[second])].values[attr.name]
        out.append(_value_distance(attr, x, y))
    return out


def select_exhaustive(
    dataset: Dataset, attacker: AttackerInstance, config: SelectionConfig
) -> SelectionResult:
    """Measure the full set; unless it fails alpha under a monotone attacker,
    measure every subset and choose the least ``(total_points, set)`` that
    meets alpha."""
    names = dataset.catalog.names
    measured = {}

    def measure(combo):
        if combo not in measured:
            measured[combo] = (total_cost(combo, dataset, config.weights),
                               impersonated_share(combo, attacker, dataset))
        return measured[combo]

    _, candidate_sensitivity = measure(names)
    best = None
    if candidate_sensitivity <= config.alpha or non_monotone_reason(attacker, dataset):
        for size in range(len(names) + 1):
            for combo in itertools.combinations(names, size):
                breakdown, sens = measure(combo)
                key = (breakdown.total_points, combo)
                if sens <= config.alpha and (best is None or key < best):
                    best = key
    chosen = None if best is None else best[1]
    breakdown, sens = (None, None) if chosen is None else measure(chosen)
    return SelectionResult("oracle", chosen, breakdown, sens, candidate_sensitivity,
                           len(measured))
