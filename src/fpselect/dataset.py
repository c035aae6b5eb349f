"""Fingerprint datasets: loading, validation, projection, coding, distributions.

A dataset is held as integer code columns. A load is one lean pass, plus a
full re-check row by row only of a suspect file, which then costs about twice
as much. The lean pass decodes each line as one JSON document followed only by
JSON whitespace, checks in C what it can and each distinct value once, and takes
a row's values and times in one call; a row lacking a time looks up each cell.
Each browser's first row is its stored fingerprint, which the sensitivity
measure reads; all rows (interleaved repeats included) feed the cost
measures. ``observations`` and ``user_mapping`` decode the columns on demand.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .catalog import AttributeCatalog, as_int, load_catalog
from .errors import SchemaError

ValueTuple = tuple[str, ...]
UniformProduct = tuple[list[list[str]], float]  # sorted column values, one probability
_decode = json.JSONDecoder().raw_decode  # json.loads less its whitespace checks


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
    """Probability mass function over value tuples of an attribute set.

    It caches ``uniform_product`` and ``coded``. A ``_uniform`` PMF is given its
    product and enumerates it only when ``entries`` is read."""

    attrs: tuple[str, ...]
    entries: tuple[tuple[ValueTuple, float], ...]

    def __post_init__(self) -> None:
        total = 0.0
        seen: set[ValueTuple] = set()
        for i, (values, prob) in enumerate(self.entries):
            if len(values) != len(self.attrs):
                raise SchemaError(f"PMF entry {i}: arity does not match its attributes")
            if values in seen:
                raise SchemaError(f"PMF entry {i}: duplicate {values!r}")
            if not 0.0 < prob <= 1.0:
                raise SchemaError(f"PMF entry {i}: probability {prob} outside (0, 1]")
            seen.add(values)
            total += prob
        if abs(total - 1.0) > 1e-9:
            raise SchemaError(f"PMF probabilities sum to {total!r}, expected 1")

    @classmethod
    def _uniform(cls, attrs: tuple[str, ...], uniform: UniformProduct) -> Pmf:
        pmf = object.__new__(cls)
        vars(pmf).update(attrs=attrs, uniform_product=uniform)
        return pmf

    def __getattr__(self, name: str):  # only for an attribute not set yet
        uniform = vars(self).get("uniform_product")
        if name != "entries" or uniform is None:
            return object.__getattribute__(self, name)  # the usual AttributeError
        vars(self)["entries"] = tuple(zip(product(*uniform[0]), repeat(uniform[1])))
        self.__post_init__()
        return self.entries

    @cached_property
    def uniform_product(self) -> UniformProduct | None:
        """Each column's sorted values and the one probability, if the PMF is
        uniform over their whole product (entries are distinct: a count tells)."""
        entries = self.entries
        if any(p != entries[0][1] for _, p in entries):
            return None
        domains = [sorted(set(column)) for column in zip(*(v for v, _ in entries))]
        full = math.prod(map(len, domains)) == len(entries)
        return (domains, entries[0][1]) if full else None

    @cached_property
    def coded(self) -> tuple[CodedRows, np.ndarray]:
        """The value tuples as integer codes, and their probabilities."""
        entries = self.entries
        probabilities = np.fromiter((p for _, p in entries), float, len(entries))
        return encode_rows([v for v, _ in entries], len(self.attrs)), probabilities

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
        The array is a fresh one, so callers may sort it in place.
        """
        keys = np.zeros(len(self.matrix), dtype=np.int64)
        span = 1
        for c in cols:
            size = len(self.lookup[c])
            if span * size > _KEY_LIMIT:
                distinct, keys = np.unique(keys, return_inverse=True)
                span = len(distinct)
            keys *= size
            keys += self.matrix[:, c]
            span *= size
        return keys

    def decode(self) -> list[ValueTuple]:
        """The value tuple each row stands for."""
        values = [list(lookup) for lookup in self.lookup]  # in code order
        return [tuple(map(list.__getitem__, values, r)) for r in self.matrix.tolist()]


def encode_rows(rows: Sequence[Sequence[str]], width: int) -> CodedRows:
    """Code every column of ``rows``, which all have ``width`` values."""
    books: list[dict[str, int]] = [{} for _ in range(width)]
    codes: list[int] = []
    for row in rows:
        if len(row) != width:
            raise ValueError(
                f"value tuple has {len(row)} entries for {width} attributes"
            )
        # setdefault with the codebook's size codes a value at first sight.
        codes.extend(map(dict.setdefault, books, row, map(len, books)))
    return _renumbered(books, codes, len(rows))


def _renumbered(books: list[dict[str, int]], codes: list[int], count: int) -> CodedRows:
    """``count`` rows of codes in first-seen order per column, recoded into
    ``str`` order.

    Codebooks come from Python ``sorted``, not numpy string arrays, which
    would drop trailing NUL characters and merge distinct values.
    """
    matrix = np.array(codes, dtype=np.int64).reshape(count, len(books))
    lookup = tuple({v: i for i, v in enumerate(sorted(book))} for book in books)
    for j, (book, position) in enumerate(zip(books, lookup)):
        # A book lists its values in the order of their first-seen codes.
        rank = np.fromiter(map(position.__getitem__, book), np.int64, len(book))
        matrix[:, j] = rank[matrix[:, j]]
    return CodedRows(lookup, matrix)


class Dataset:
    """A validated fingerprint table against a catalog, as code columns.

    ``codes`` holds every row's values in ``catalog`` order. ``browser_ids``
    lists the browsers in order of first appearance, which is the order of
    ``stored_codes`` and ``user_mapping``.
    """

    def __init__(
        self, catalog: AttributeCatalog, observations: Iterable[Observation]
    ) -> None:
        rows = ((f"observation {i}", vars(obs)) for i, obs in enumerate(observations))
        _fill(self, catalog, _checked_rows(rows, set(catalog.names)), "empty dataset")

    def __len__(self) -> int:
        """The number of rows, one per observation."""
        return len(self._seqs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.catalog, self.observations) == (other.catalog, other.observations)

    # -- rows, decoded on demand -------------------------------------------

    @cached_property
    def observations(self) -> tuple[Observation, ...]:
        """Every row as an ``Observation``, in file order."""
        names, ids = self.catalog.names, self.browser_ids
        rows = zip(self._ordinals.tolist(), self._seqs, self.codes.decode(),
                   self._times.tolist())
        return tuple(
            Observation(ids[b], seq, dict(zip(names, values)),
                        {a: t for a, t in zip(names, times) if not math.isnan(t)})
            for b, seq, values, times in rows
        )

    @cached_property
    def user_mapping(self) -> dict[str, ValueTuple]:
        """Stored fingerprint per user: the browser's first observation."""
        return dict(zip(self.browser_ids, self.stored_codes.decode()))

    # -- structure ---------------------------------------------------------

    @cached_property
    def stored_codes(self) -> CodedRows:
        """Code rows of the stored fingerprints, in ``browser_ids`` order."""
        _, first = np.unique(self._ordinals, return_index=True)
        return CodedRows(self.codes.lookup, self.codes.matrix[first])

    @cached_property
    def population_pmf(self) -> Pmf:
        """The stored fingerprints' PMF on the whole catalog, built once."""
        return pmf(self, self.catalog.names)

    @cached_property
    def browser_rows(self) -> list[list[int]]:
        """Each browser's row indices in file order, in ``browser_ids`` order."""
        ends = np.cumsum(np.bincount(self._ordinals))[:-1]
        order = np.argsort(self._ordinals, kind="stable")
        return [rows.tolist() for rows in np.split(order, ends)]

    @cached_property
    def _pairs(self) -> np.ndarray:
        """Rows: earlier and later observation index of every consecutive
        same-browser pair, browser by browser."""
        order = np.argsort(self._ordinals, kind="stable")
        same = np.flatnonzero(self._ordinals[order[1:]] == self._ordinals[order[:-1]])
        return np.stack([order[same], order[same + 1]])

    @property
    def consecutive_pair_count(self) -> int:
        return self._pairs.shape[1]

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
        times = self._times.T.copy()
        times[np.isnan(times)] = 0.0
        return dict(zip(self.catalog.names, times))

    @cached_property
    def attribute_change_counts(self) -> dict[str, int]:
        """How many consecutive same-browser pairs changed, per attribute."""
        earlier, later = self._pairs
        matrix = self.codes.matrix
        changed = (matrix[earlier] != matrix[later]).sum(axis=0)
        return dict(zip(self.catalog.names, changed.tolist()))


def _fill(
    dataset: Dataset, catalog: AttributeCatalog, rows: Iterable[tuple], empty: str
) -> Dataset:
    """Write each ``(browser_id, seq, values, collect_ms)`` of ``rows`` into
    ``dataset`` as code columns, then check each distinct value and browser id
    and all times once, which rows of ``_checked_rows`` always pass. A seq that
    does not increase is raised after that."""
    names = catalog.names
    # One call per row takes its cells in catalog order, a tuple at any width.
    cells = itemgetter(*names) if len(names) > 1 else lambda row: (row[names[0]],)
    books: list[dict[str, int]] = [{} for _ in names]  # codes in first-seen order
    codes: list[int] = []
    times: list[float] = []
    stated = 0  # times given; fewer finite: a NaN, an infinity or an unknown name
    browsers: dict[str, int] = {}
    ordinals: list[int] = []
    seqs: list[int] = []  # Python ints: a JSON seq may not fit int64
    last_seq: dict[str, int] = {}
    fault = None
    for browser_id, seq, values, collect in rows:
        previous = last_seq.get(browser_id, -1)  # every seq is non-negative
        if seq <= previous and fault is None:
            fault = (f"observation {len(seqs)}: seq {seq} for browser {browser_id!r}"
                     f" does not increase (previous {previous})")
        last_seq[browser_id] = seq
        # setdefault with the codebook's size codes a value at first sight.
        codes.extend(map(dict.setdefault, books, cells(values), map(len, books)))
        # A full collect_ms in one call, else a lookup per cell; NaN: absent.
        times.extend(cells(collect) if len(collect) == len(names)
                     else map(collect.get, names, repeat(math.nan)))
        stated += len(collect)
        ordinals.append(browsers.setdefault(browser_id, len(browsers)))
        seqs.append(seq)
    "".join(chain(browsers, *books)).encode("utf-8")  # str, no surrogate
    matrix = np.array(times, dtype=float)
    if (not {*map(type, times)} <= {int, float} or (matrix < 0).any()
            or np.isfinite(matrix).sum() != stated):
        raise ValueError("collect_ms must hold finite non-negative numbers")
    if not seqs:
        raise SchemaError(empty)
    if fault is not None:
        raise SchemaError(fault)
    dataset.catalog, dataset.browser_ids = catalog, tuple(browsers)
    dataset.codes = _renumbered(books, codes, len(seqs))
    dataset._ordinals = np.array(ordinals, dtype=np.intp)
    dataset._times = matrix.reshape(dataset.codes.matrix.shape)
    dataset._seqs = seqs
    return dataset


def _checked_rows(rows: Iterable[tuple], known: set[str]) -> Iterator[tuple]:
    """Check each ``(where, row)`` of ``rows``, a row being a JSON line's
    document or an ``Observation``'s fields, and yield it for ``_fill`` with
    an int seq and float times. Every message about a row's content is here."""
    for where, row in rows:
        if not isinstance(row, dict):
            raise SchemaError(f"{where}: row must be a JSON object")
        for required in ("browser_id", "seq", "values"):
            if required not in row:
                raise SchemaError(f"{where}: missing field {required!r}")
        browser_id, seq, values = row["browser_id"], row["seq"], row["values"]
        if not isinstance(values, Mapping):
            raise SchemaError(f"{where}: 'values' must be an object")
        collect = row.get("collect_ms", {})
        if not isinstance(collect, Mapping):
            raise SchemaError(f"{where}: 'collect_ms' must be an object")
        if not isinstance(browser_id, str):
            raise SchemaError(f"{where}: 'browser_id' must be a string")
        try:
            seq = as_int(seq)
            collect_ms = {
                a: float(t) for a, t in collect.items() if type(t) is not bool
            }
            if len(collect_ms) < len(collect):
                raise ValueError("collect_ms must hold numbers, not booleans")
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        if seq < 0:
            raise SchemaError(f"{where}: seq must be non-negative")
        got = set(values)
        for unknown in sorted(got - known):
            raise SchemaError(f"{where}: unknown attribute {unknown!r}")
        for missing in sorted(known - got):
            raise SchemaError(f"{where}: missing value for attribute {missing!r}")
        for a, v in values.items():
            if not isinstance(v, str):
                raise SchemaError(f"{where}: value for {a!r} must be a string")
            if not v.isascii() and re.search("[\ud800-\udfff]", v):  # lone surrogate
                raise SchemaError(f"{where}: value for {a!r} is not valid UTF-8")
        for a, t in collect_ms.items():
            if a not in known:
                raise SchemaError(f"{where}: collect_ms for unknown attribute {a!r}")
            if not 0 <= t < math.inf:
                raise SchemaError(
                    f"{where}: collect_ms for {a!r} must be finite and non-negative"
                )
        if not browser_id.isascii() and re.search("[\ud800-\udfff]", browser_id):
            raise SchemaError(f"{where}: 'browser_id' is not valid UTF-8")
        yield browser_id, seq, values, collect_ms


def load_dataset(path: str | Path, catalog_path: str | Path) -> Dataset:
    """Read a JSON Lines dataset file and validate it against a catalog."""
    catalog = load_catalog(catalog_path)
    return load_observations(path, catalog)


def load_observations(path: str | Path, catalog: AttributeCatalog) -> Dataset:
    """Read a JSON Lines dataset into code columns in one lean pass, and read a
    suspect file again through the checked source."""
    path = Path(path)
    known, empty = set(catalog.names), f"{path}: empty dataset"
    with path.open(encoding="utf-8") as handle:
        if handle.seekable():  # a pipe could not be read a second time
            try:
                rows = _lean_rows(handle, len(known))
                return _fill(Dataset.__new__(Dataset), catalog, rows, empty)
            # UnicodeDecodeError and json's errors are ValueErrors.
            except (AttributeError, KeyError, OverflowError, RecursionError,
                    TypeError, ValueError):
                handle.seek(0)
        try:
            rows = _checked_rows(_json_rows(path, handle), known)
            return _fill(Dataset.__new__(Dataset), catalog, rows, empty)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: invalid UTF-8: {exc}") from exc


def _lean_rows(handle: Iterable[str], width: int) -> Iterator[tuple]:
    """Each non-blank line as a row for ``_fill``, after the checks that run in
    C; a row that fails one raises. So does a line that is not one document from
    its first character then only JSON whitespace. ``_fill`` raises ``KeyError``
    for a missing value, so ``width`` values leave no room for an unknown
    attribute, and reads a missing time as NaN."""
    for line in handle:
        if not line.isspace():
            row, end = _decode(line)
            browser_id, seq, values = row["browser_id"], row["seq"], row["values"]
            collect = row.get("collect_ms", {})
            if not (type(browser_id) is str and type(seq) is int and seq >= 0
                    and len(values) == width and not line[end:].strip(" \t\n\r")):
                raise ValueError("the row needs the checked reading")
            yield browser_id, seq, values, collect


def _json_rows(path: Path, handle: Iterable[str]) -> Iterator[tuple]:
    """``(where, document)`` for each non-blank line, for ``_checked_rows``."""
    for lineno, line in enumerate(handle, start=1):
        if not line.isspace():
            where = f"{path}:{lineno}"
            try:
                yield where, json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise SchemaError(f"{where}: invalid JSON: {exc}") from exc


def save_dataset(observations: Iterable[Observation], path: str | Path) -> None:
    """Write observations out as JSON Lines, one at a time."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for obs in observations:
            handle.write(json.dumps(vars(obs), sort_keys=True) + "\n")


def pmf(dataset: Dataset, attrs: Iterable[str]) -> Pmf:
    """Distribution of projected stored fingerprints across users."""
    canon = dataset.catalog.canonical(attrs)
    stored = dataset.stored_codes
    cols = column_indices(dataset.catalog.names, canon)
    # Keys sort like the value tuples, so the entries come out sorted.
    _, first, counts = np.unique(
        stored.group_keys(cols), return_index=True, return_counts=True
    )
    rows = CodedRows(
        tuple(stored.lookup[c] for c in cols), stored.matrix[first][:, cols]
    )
    population = len(stored.matrix)
    probabilities = (n / population for n in counts.tolist())
    return Pmf(canon, tuple(zip(rows.decode(), probabilities)))


def run_bounds(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted ``ordered`` starts, then ``len``."""
    change = np.empty(len(ordered) + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=change[1:-1])
    return change.nonzero()[0]


def joint_entropy_bits(dataset: Dataset, attrs: Iterable[str]) -> float:
    """Shannon entropy of the projected stored fingerprints, in bits."""
    canon = dataset.catalog.canonical(attrs)
    keys = dataset.stored_codes.group_keys(column_indices(dataset.catalog.names, canon))
    # In a stable order each run starts at its group's first row.
    order = keys.argsort(kind="stable")
    bounds = run_bounds(keys[order])
    starts = bounds[:-1]
    sizes = (bounds[1:] - starts)[order[starts].argsort()].tolist()
    population = len(keys)
    term = {c: (c / population) * math.log2(c / population) for c in set(sizes)}
    # Terms in order of first appearance, through math.log2 and the builtin
    # sum: the baselines rank on these floats, and ties hinge on the last ulp.
    return -sum(map(term.__getitem__, sizes))


def consecutive_pairs(dataset: Dataset) -> list[tuple[ValueTuple, ValueTuple]]:
    """Value-tuple pairs of consecutive observations of the same browser."""
    rows = dataset.codes.decode()
    return [(rows[a], rows[b]) for a, b in dataset._pairs.T.tolist()]
