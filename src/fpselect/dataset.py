"""Fingerprint datasets: loading, validation, projection, coding, distributions.

Observations are grouped per browser and ordered by their sequence number.
Each browser's first observation acts as its stored fingerprint, which
yields the user mapping used by the sensitivity measure; all observations
(including interleaved repeats) feed the cost measures.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .catalog import AttributeCatalog, as_int, load_catalog
from .errors import SchemaError

ValueTuple = tuple[str, ...]


def utf8_size(value: str) -> int:
    return len(value.encode("utf-8"))


@dataclass(frozen=True)
class Observation:
    """One fingerprint collected from one browser at one point in time."""

    browser_id: str
    seq: int
    values: Mapping[str, str]
    collect_ms: Mapping[str, float]


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over value tuples of an attribute set."""

    attrs: tuple[str, ...]
    entries: tuple[tuple[ValueTuple, float], ...]

    def __post_init__(self) -> None:
        total = 0.0
        seen: set[ValueTuple] = set()
        for values, prob in self.entries:
            if len(values) != len(self.attrs):
                raise SchemaError("PMF entry arity does not match its attributes")
            if values in seen:
                raise SchemaError(f"duplicate PMF entry {values!r}")
            if not 0.0 < prob <= 1.0:
                raise SchemaError(f"PMF probability {prob} outside (0, 1]")
            seen.add(values)
            total += prob
        if abs(total - 1.0) > 1e-9:
            raise SchemaError(f"PMF probabilities sum to {total!r}, expected 1")

    def as_dict(self) -> dict[ValueTuple, float]:
        return dict(self.entries)


def project(
    values: Sequence[str], source: Sequence[str], target: Iterable[str]
) -> ValueTuple:
    """Restrict a value tuple defined on ``source`` to the ``target`` subset.

    ``source`` must be in canonical order; the result keeps that order.
    """
    if len(values) != len(source):
        raise ValueError(
            f"value tuple has {len(values)} entries for {len(source)} attributes"
        )
    wanted = set(target)
    missing = wanted - set(source)
    if missing:
        raise ValueError(
            f"cannot project to {sorted(missing)[0]!r}: not among the source attributes"
        )
    return tuple(v for a, v in zip(source, values) if a in wanted)


def column_indices(source: Sequence[str], target: Iterable[str]) -> list[int]:
    """Positions in ``source`` of the attributes that ``project`` keeps."""
    wanted = set(target)
    return [i for i, a in enumerate(source) if a in wanted]


# Mixed-radix keys are renumbered before they could pass this bound.
_KEY_LIMIT = 2**62


@dataclass(frozen=True)
class CodedRows:
    """Rows of strings as an integer code matrix, one codebook per column.

    ``lookup[j]`` maps each value of column ``j`` to its code. Codes follow
    ``str`` order within a column, so code tuples sort like the value
    tuples they stand for.
    """

    lookup: tuple[dict[str, int], ...]
    matrix: np.ndarray

    def group_keys(self, cols: Sequence[int]) -> np.ndarray:
        """One ``int64`` key per row: equal on ``cols`` iff the rows agree there.

        Keys sort like the rows' code tuples on ``cols``. Each is the
        mixed-radix number of those codes; before the next column could
        overflow it, the keys are renumbered densely, which keeps their order.
        """
        keys = np.zeros(len(self.matrix), dtype=np.int64)
        span = 1
        for c in cols:
            size = len(self.lookup[c])
            if span * size > _KEY_LIMIT:
                distinct, keys = np.unique(keys, return_inverse=True)
                span = len(distinct)
            keys = keys * size + self.matrix[:, c]
            span *= size
        return keys


def encode_rows(rows: Sequence[Sequence[str]], width: int) -> CodedRows:
    """Code every column of ``rows``, which all have ``width`` values.

    Codebooks come from Python ``sorted``, not numpy string arrays, which
    would drop trailing NUL characters and merge distinct values.
    """
    for row in rows:
        if len(row) != width:
            raise ValueError(
                f"value tuple has {len(row)} entries for {width} attributes"
            )
    matrix = np.empty((len(rows), width), dtype=np.int64)
    lookup = []
    for j, column in enumerate(zip(*rows) if rows else [()] * width):
        codes = {v: i for i, v in enumerate(sorted(set(column)))}
        matrix[:, j] = np.fromiter(map(codes.__getitem__, column), np.int64,
                                   len(column))
        lookup.append(codes)
    return CodedRows(tuple(lookup), matrix)


@dataclass(frozen=True)
class Dataset:
    """A validated collection of observations against a catalog."""

    catalog: AttributeCatalog
    observations: tuple[Observation, ...]
    _group_index: dict[str, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    # Set by the loader, which has already checked each line.
    _prevalidated: InitVar[bool] = False

    def __post_init__(self, _prevalidated: bool) -> None:
        if not self.observations:
            raise SchemaError("empty dataset")
        names = set(self.catalog.names)
        groups: dict[str, list[int]] = {}
        last_seq: dict[str, int] = {}
        for i, obs in enumerate(self.observations):
            if not _prevalidated:
                _validate_observation(obs, names, where=f"observation {i}")
            prev = last_seq.get(obs.browser_id)
            if prev is not None and obs.seq <= prev:
                raise SchemaError(
                    f"observation {i}: seq {obs.seq} for browser"
                    f" {obs.browser_id!r} does not increase (previous {prev})"
                )
            last_seq[obs.browser_id] = obs.seq
            groups.setdefault(obs.browser_id, []).append(i)
        object.__setattr__(
            self, "_group_index", {b: tuple(ix) for b, ix in groups.items()}
        )

    # -- structure ---------------------------------------------------------

    @property
    def browser_ids(self) -> tuple[str, ...]:
        return tuple(self._group_index)

    def browser_observations(self, browser_id: str) -> tuple[Observation, ...]:
        return tuple(self.observations[i] for i in self._group_index[browser_id])

    def value_tuple(self, obs: Observation) -> ValueTuple:
        return tuple(obs.values[a] for a in self.catalog.names)

    @cached_property
    def user_mapping(self) -> dict[str, ValueTuple]:
        """Stored fingerprint per user: the browser's first observation."""
        return {
            b: self.value_tuple(self.observations[ix[0]])
            for b, ix in self._group_index.items()
        }

    @cached_property
    def codes(self) -> CodedRows:
        """Every observation's values as integer codes, in catalog order."""
        return encode_rows(
            [self.value_tuple(obs) for obs in self.observations], len(self.catalog)
        )

    @cached_property
    def stored_codes(self) -> CodedRows:
        """Code rows of the stored fingerprints, in ``user_mapping`` order."""
        first = [ix[0] for ix in self._group_index.values()]
        return CodedRows(self.codes.lookup, self.codes.matrix[first])

    # -- cost support ------------------------------------------------------

    @cached_property
    def attribute_byte_totals(self) -> dict[str, int]:
        """Sum of UTF-8 value sizes per attribute over all observations."""
        coded = self.codes
        totals = {}
        for j, (a, lookup) in enumerate(zip(self.catalog.names, coded.lookup)):
            counts = np.bincount(coded.matrix[:, j], minlength=len(lookup))
            totals[a] = sum(utf8_size(v) * n for v, n in zip(lookup, counts.tolist()))
        return totals

    @cached_property
    def attribute_times(self) -> dict[str, np.ndarray]:
        """Per-attribute collection times, one entry per observation."""
        columns = {a: np.empty(len(self.observations)) for a in self.catalog.names}
        for i, obs in enumerate(self.observations):
            for a in self.catalog.names:
                columns[a][i] = obs.collect_ms.get(a, 0.0)
        return columns

    @cached_property
    def attribute_change_counts(self) -> dict[str, int]:
        """How many consecutive same-browser pairs changed, per attribute."""
        earlier, later = self._pairs
        matrix = self.codes.matrix
        changed = (matrix[earlier] != matrix[later]).sum(axis=0)
        return dict(zip(self.catalog.names, changed.tolist()))

    @cached_property
    def _pairs(self) -> np.ndarray:
        """Rows: earlier and later observation index of every consecutive
        same-browser pair, browser by browser."""
        pairs = [p for ix in self._group_index.values() for p in zip(ix, ix[1:])]
        return np.array(pairs, dtype=np.intp).reshape(-1, 2).T

    @property
    def consecutive_pair_count(self) -> int:
        return self._pairs.shape[1]

    def iter_consecutive_observations(
        self,
    ) -> Iterator[tuple[Observation, Observation]]:
        for a, b in self._pairs.T.tolist():
            yield self.observations[a], self.observations[b]


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
    for a, t in obs.collect_ms.items():
        if a not in names:
            raise SchemaError(f"{where}: collect_ms for unknown attribute {a!r}")
        if not isinstance(t, (int, float)) or not 0 <= t < math.inf:
            raise SchemaError(
                f"{where}: collect_ms for {a!r} must be finite and non-negative"
            )


def load_dataset(path: str | Path, catalog_path: str | Path) -> Dataset:
    """Read a JSON Lines dataset file and validate it against a catalog."""
    catalog = load_catalog(catalog_path)
    return load_observations(path, catalog)


def load_observations(path: str | Path, catalog: AttributeCatalog) -> Dataset:
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
            values = row["values"]
            if not isinstance(values, dict):
                raise SchemaError(f"{where}: 'values' must be an object")
            collect = row.get("collect_ms", {})
            if not isinstance(collect, dict):
                raise SchemaError(f"{where}: 'collect_ms' must be an object")
            try:
                seq = as_int(row["seq"])
                # Inlined rather than as_float per value, which made loading
                # a 1,200-line dataset about 8% slower.
                collect_ms = {
                    a: float(t) for a, t in collect.items() if type(t) is not bool
                }
                if len(collect_ms) < len(collect):
                    raise ValueError("collect_ms must hold numbers, not booleans")
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"{where}: {exc}") from exc
            obs = Observation(
                browser_id=str(row["browser_id"]),
                seq=seq,
                values=dict(values),
                collect_ms=collect_ms,
            )
            _validate_observation(obs, names, where)
            observations.append(obs)
    if not observations:
        raise SchemaError(f"{path}: empty dataset")
    return Dataset(catalog, tuple(observations), _prevalidated=True)


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write observations back out as JSON Lines."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for obs in dataset.observations:
            handle.write(
                json.dumps(
                    {
                        "browser_id": obs.browser_id,
                        "seq": obs.seq,
                        "values": dict(obs.values),
                        "collect_ms": dict(obs.collect_ms),
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def pmf(dataset: Dataset, attrs: Iterable[str]) -> Pmf:
    """Distribution of projected stored fingerprints across users."""
    canon = dataset.catalog.canonical(attrs)
    mapping = dataset.user_mapping
    if not mapping:
        raise SchemaError("empty user set")
    counts = Counter(
        project(fp, dataset.catalog.names, canon) for fp in mapping.values()
    )
    population = len(mapping)
    entries = tuple(
        (values, counts[values] / population) for values in sorted(counts)
    )
    return Pmf(canon, entries)


def consecutive_pairs(dataset: Dataset) -> list[tuple[ValueTuple, ValueTuple]]:
    """Value-tuple pairs of consecutive observations of the same browser."""
    return [
        (dataset.value_tuple(earlier), dataset.value_tuple(later))
        for earlier, later in dataset.iter_consecutive_observations()
    ]
