"""Per-attribute distances, fingerprint matching, and threshold calibration.

Each value kind maps to one distance: edit distance for text, Jaccard
distance for sets, absolute difference for numbers, and the complement of
the Kronecker delta for categories and dynamic values. A fingerprint
matches when every attribute's distance stays within its threshold;
dynamic attributes must be identical.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
import statistics
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, pairwise
from typing import Callable, Iterable, Iterator, Sequence

from .catalog import AttributeCatalog, AttributeSpec
from .dataset import Dataset
from .errors import ConfigError, SchemaError


class DistanceKind(enum.Enum):
    EDIT_DISTANCE = "edit"
    JACCARD_ON_SETS = "jaccard"
    ABSOLUTE_DIFFERENCE = "absolute"
    KRONECKER_COMPLEMENT = "kronecker"


_KIND_DISTANCE = {
    "text": DistanceKind.EDIT_DISTANCE,
    "set": DistanceKind.JACCARD_ON_SETS,
    "number": DistanceKind.ABSOLUTE_DIFFERENCE,
    "category": DistanceKind.KRONECKER_COMPLEMENT,
    "dynamic": DistanceKind.KRONECKER_COMPLEMENT,
}


def distance_kind_for(spec: AttributeSpec) -> DistanceKind:
    return _KIND_DISTANCE[spec.kind]


def edit_distance(x: str, y: str) -> int:
    """Levenshtein distance (insertions, deletions, substitutions).

    Myers' bit-vector algorithm in Hyyrö's Levenshtein form: bit i of
    ``pv``/``mv`` says the table's column, down the shorter string, steps
    +1/-1 at row i. One pass over the longer string updates the whole
    column with a few int operations per character, and Python ints are
    as wide as the shorter string, so long strings need no blocking.

    A common prefix or suffix never changes the distance, so only the
    middles where the strings differ reach the loop. The suffix scan stops
    where the prefix scan did, so no character is trimmed twice.
    """
    if x == y:
        return 0
    shorter, head, tail = min(len(x), len(y)), 0, 0
    while head < shorter and x[head] == y[head]:
        head += 1
    while tail < shorter - head and x[~tail] == y[~tail]:
        tail += 1
    x, y = x[head : len(x) - tail], y[head : len(y) - tail]
    if len(x) < len(y):
        x, y = y, x
    if not y:
        return len(x)
    peq: dict[str, int] = {}
    for i, c in enumerate(y):
        peq[c] = peq.get(c, 0) | 1 << i
    mask = (1 << len(y)) - 1
    top = 1 << (len(y) - 1)
    pv, mv, score = mask, 0, len(y)
    for c in x:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # The carried-in 1: row 0 of the table steps +1 per character.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def _tokens(value: str, separator: str) -> frozenset[str]:
    return frozenset(t for t in value.split(separator) if t)


def jaccard_distance(x: str, y: str, separator: str = ";") -> float:
    """1 minus the Jaccard index of the two token sets; empty sets match."""
    xs, ys = _tokens(x, separator), _tokens(y, separator)
    if not xs and not ys:
        return 0.0
    return 1.0 - len(xs & ys) / len(xs | ys)


def _parse_number(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"value {value!r} is not numeric") from None
    if not math.isfinite(number):
        raise ValueError(f"value {value!r} is not finite")
    return number


def distance(kind: DistanceKind, x: str, y: str, separator: str = ";") -> float:
    if kind is DistanceKind.EDIT_DISTANCE:
        return float(edit_distance(x, y))
    if kind is DistanceKind.JACCARD_ON_SETS:
        return jaccard_distance(x, y, separator)
    if kind is DistanceKind.ABSOLUTE_DIFFERENCE:
        return abs(_parse_number(x) - _parse_number(y))
    return 0.0 if x == y else 1.0


def attr_match(spec: AttributeSpec, stored: str, submitted: str) -> bool:
    """Whether the submitted value is accepted as an evolution of the stored one."""
    try:
        d = distance(distance_kind_for(spec), stored, submitted, spec.set_separator)
    except ValueError:
        # A malformed numeric submission must not crash a verifier.
        return False
    return d <= spec.match_threshold


def fp_match(
    attrs: Sequence[str],
    catalog: AttributeCatalog,
    stored: Sequence[str],
    submitted: Sequence[str],
) -> bool:
    """Conjunction of per-attribute matches; vacuously true on no attributes."""
    if len(stored) != len(attrs) or len(submitted) != len(attrs):
        raise ValueError("value tuples do not cover the attribute set")
    return all(
        attr_match(catalog.spec(a), f, g)
        for a, f, g in zip(attrs, stored, submitted)
    )


# ---------------------------------------------------------------------------
# Threshold calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationReport:
    """Per-attribute distance thresholds learned from a dataset.

    ``window_thresholds`` holds one max-margin threshold per window;
    ``thresholds`` averages them per attribute.
    """

    windows: int
    window_thresholds: dict[str, tuple[float, ...]]
    thresholds: dict[str, float]

    def to_json(self) -> dict:
        return {
            "windows": self.windows,
            "attributes": {
                name: {
                    "window_thresholds": list(self.window_thresholds[name]),
                    "threshold": self.thresholds[name],
                }
                for name in sorted(self.thresholds)
            },
        }

    def apply(self, catalog: AttributeCatalog) -> AttributeCatalog:
        """Copy of the catalog with the averaged thresholds written in.

        Category and dynamic attributes only support exact matching, so
        their thresholds are clamped below 1 (a learned threshold of 1
        would mean "accept anything", which the catalog cannot express).
        """
        clamped = {}
        for name, value in self.thresholds.items():
            if catalog.spec(name).kind in ("category", "dynamic"):
                value = min(value, 0.5)
            clamped[name] = value
        return catalog.with_thresholds(clamped)


def max_margin_threshold(
    positives: Sequence[float], negatives: Sequence[float]
) -> float:
    """1D separator: accept distances <= t, reject above.

    Picks the threshold minimizing misclassifications, then maximizing the
    margin, then the smaller threshold. The positive class should match
    (distance within t), the negative class should not.
    """
    if not positives or not negatives:
        raise ConfigError("both distance classes must be non-empty")
    pos = sorted(positives)
    neg = sorted(negatives)
    values = sorted(set(pos) | set(neg))

    def key(t: float, margin: float) -> tuple[int, float, float]:
        errors = (len(pos) - bisect_right(pos, t)) + bisect_right(neg, t)
        return errors, -margin, t

    # Half the smallest distance (thresholds are non-negative), the midpoint
    # of each adjacent pair, and the largest distance with no margin.
    keys = [key(values[0] / 2.0, values[0] / 2.0)] if values[0] > 0 else []
    keys += [key((lo + hi) / 2.0, (hi - lo) / 2.0) for lo, hi in pairwise(values)]
    keys.append(key(values[-1], 0.0))
    return min(keys)[2]


def check_calibration_counts(windows: int, negative_cap: int) -> None:
    """Refuse a window count or a negative cap below 1, as ``calibrate`` does
    before it reads any input."""
    if windows < 1:
        raise ConfigError("windows must be >= 1")
    if negative_cap < 1:
        raise ConfigError("negative_cap must be >= 1")


def _derived_rng(seed: int, window: int, attribute: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{window}:{attribute}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def calibrate_thresholds(
    dataset: Dataset,
    windows: int,
    *,
    seed: int = 0,
    negative_cap: int = 1000,
) -> CalibrationReport:
    """Learn per-attribute thresholds from evolution vs. cross-browser distances.

    Browsers are split round-robin into ``windows`` samples. Within each
    window the positive class holds distances between consecutive
    fingerprints of the same browser, the negative class distances between
    randomly paired observations of different browsers (``_negative_rows``
    on an RNG seeded per (seed, window, attribute), capped at
    ``negative_cap`` >= 1 per window). Per-window thresholds are max-margin
    separators; the final threshold is their mean. Category and dynamic
    distances are 0 or 1: 0.0 with no 1, else 0.5 when no more positives
    than negatives are 1, else 1.0. Their draws stop once that is sure; each
    attribute has its own RNG, so reports stay byte-identical.
    """
    check_calibration_counts(windows, negative_cap)
    catalog, coded = dataset.catalog, dataset.codes
    members = dataset.browser_rows
    columns = coded.matrix.T.tolist()
    measures = [_pair_distances(attr, list(lookup))
                for attr, lookup in zip(catalog.attributes, coded.lookup)]

    window_thresholds: dict[str, list[float]] = {a: [] for a in catalog.names}
    for w in range(windows):
        browsers = range(w, len(members), windows)
        pairs = [pair for b in browsers for pair in pairwise(members[b])]
        if not pairs:
            raise ConfigError(
                f"window {w}: no consecutive same-browser fingerprints"
            )
        if len(browsers) < 2:
            raise ConfigError(f"window {w}: needs at least two browsers")
        table = _draw_table(members[b] for b in browsers)
        count = min(len(pairs), negative_cap)
        earlier, later = coded.matrix[list(zip(*pairs))]
        changes = (earlier != later).sum(axis=0).tolist()
        for j, (attr, measure) in enumerate(zip(catalog.attributes, measures)):
            column, rng = columns[j], _derived_rng(seed, w, attr.name)
            draws = islice(_negative_rows(rng, table), count)
            if measure is None:
                threshold = _kronecker_threshold(
                    changes[j], (column[x] != column[y] for x, y in draws))
            else:
                positives = [measure(column[x], column[y]) for x, y in pairs]
                negatives = [measure(column[x], column[y]) for x, y in draws]
                threshold = max_margin_threshold(positives, negatives)
            window_thresholds[attr.name].append(threshold)

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


def _kronecker_threshold(changed: int, differs: Iterable[bool]) -> float:
    """``max_margin_threshold`` of 0/1 distances, read until 0.5 is sure."""
    differ = sum(islice(filter(None, differs), max(changed, 1)))
    return 0.0 if changed == differ == 0 else 0.5 if changed <= differ else 1.0


def _draw_table(
    rows_of: Iterable[Sequence[int]],
) -> list[tuple[Sequence[int], int, int]]:
    """Each browser's rows, their count and that count's bit length: what
    ``_negative_rows`` reads for every pick of the browser."""
    return [(rows, len(rows), len(rows).bit_length()) for rows in rows_of]


def _negative_rows(
    rng: random.Random,
    table: Sequence[tuple[Sequence[int], int, int]],
) -> Iterator[tuple[int, int]]:
    """Rows of cross-browser pairs, without end: each pair is the draws of
    ``rng.sample(browsers, 2)`` and one ``rng.choice`` from each browser's
    rows, made straight from ``rng.getrandbits``; ``table`` is
    ``_draw_table`` of the browsers' rows.

    CPython's ``random`` draws an index below ``n`` as ``getrandbits`` of
    ``n.bit_length()`` bits, redrawn until below ``n``. For two picks,
    ``sample`` draws from a shrinking pool while ``n <= 21`` (a second
    index equal to the first stands for the pool's last) and above that
    redraws the second until it differs from the first. Each pair is yielded
    after its last draw, so any ``k`` pairs read draw what ``k`` rounds do.
    """
    getrandbits = rng.getrandbits
    n = len(table)
    bits, pool_bits = n.bit_length(), (n - 1).bit_length()
    while True:
        a = getrandbits(bits)
        while a >= n:
            a = getrandbits(bits)
        if n <= 21:
            b = getrandbits(pool_bits)
            while b >= n - 1:
                b = getrandbits(pool_bits)
            if b == a:
                b = n - 1
        else:
            b = getrandbits(bits)
            while b >= n or b == a:
                b = getrandbits(bits)
        rows, m, k = table[a]
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        first = rows[r]
        rows, m, k = table[b]
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        yield first, rows[r]


def _pair_distances(attr: AttributeSpec, values: Sequence[str]) -> Callable | None:
    """The memoised distance of two codes of ``attr``; None for category and
    dynamic attributes, whose codes are equal exactly when values are, so
    counting unequal codes until the threshold is sure gives the threshold
    their distances would (``_kronecker_threshold``). Every other distance
    is symmetric, so this calls ``distance`` once per distinct unordered
    pair of codes, in first-seen order with the values in the drawn order:
    the first malformed value fails as without a memo.
    """
    kind = distance_kind_for(attr)
    if kind is DistanceKind.KRONECKER_COMPLEMENT:
        return None
    memo: dict[tuple[int, int], float] = {}

    def pair(x: int, y: int) -> float:
        key = (x, y) if x <= y else (y, x)
        if key not in memo:
            try:
                memo[key] = distance(kind, values[x], values[y], attr.set_separator)
            except ValueError as exc:
                raise SchemaError(f"attribute {attr.name!r}: {exc}") from None
        return memo[key]

    return pair
