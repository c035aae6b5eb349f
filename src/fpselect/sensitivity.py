"""Dictionary-attacker model and the impersonated-user measure.

An attacker is a probability mass function over full fingerprints plus a
submission budget. Against an attribute set the attacker submits the
budgeted number of most probable projected fingerprints; a user is
impersonated when any submission matches their stored fingerprint under
the per-attribute matching functions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable, Mapping

import numpy as np

from .catalog import AttributeCatalog
from .dataset import (
    CodedRows,
    Dataset,
    Pmf,
    ValueTuple,
    column_indices,
    encode_rows,
    pmf,
    project,
)
from .errors import ConfigError, SchemaError
from .matching import fp_match

UserMapping = Mapping[str, ValueTuple]


@dataclass(frozen=True)
class AttackerInstance:
    """Attacker knowledge (a PMF over full fingerprints) and a budget."""

    pmf: Pmf
    beta: int
    knowledge: str = "population"

    def __post_init__(self) -> None:
        if self.beta < 1:
            raise ConfigError("submission budget beta must be >= 1")

    @cached_property
    def coded(self) -> tuple[CodedRows, np.ndarray]:
        """The PMF's value tuples as integer codes, and its probabilities."""
        entries = self.pmf.entries
        probabilities = np.fromiter((p for _, p in entries), float, len(entries))
        return encode_rows([v for v, _ in entries], len(self.pmf.attrs)), probabilities


@dataclass(frozen=True)
class Dictionary:
    """The attacker's submissions for one attribute set, most probable first.

    Ties at equal probability break lexicographically on the value tuple,
    so dictionaries are reproducible and budget prefixes are stable.
    """

    attrs: tuple[str, ...]
    entries: tuple[ValueTuple, ...]
    probabilities: tuple[float, ...]


def population_attacker(dataset: Dataset, beta: int) -> AttackerInstance:
    """The strongest modeled attacker: knows the defended population's PMF."""
    return AttackerInstance(
        pmf=pmf(dataset, dataset.catalog.names), beta=beta, knowledge="population"
    )


def uniform_attacker(
    dataset: Dataset, beta: int, *, max_support: int = 200_000
) -> AttackerInstance:
    """The weakest attacker: uniform over the observed value domains.

    The support is the Cartesian product of each attribute's observed
    values, which grows multiplicatively; ``max_support`` guards against
    accidental blow-ups.
    """
    names = dataset.catalog.names
    domains: list[list[str]] = []
    size = 1
    for index in range(len(names)):
        seen = sorted({fp[index] for fp in dataset.user_mapping.values()})
        domains.append(seen)
        size *= len(seen)
        if size > max_support:
            raise ConfigError(
                f"uniform attacker support exceeds {max_support} fingerprints"
            )
    weight = 1.0 / size
    entries = tuple(
        (combo, weight) for combo in itertools.product(*domains)
    )
    return AttackerInstance(
        pmf=Pmf(names, entries), beta=beta, knowledge="uniform"
    )


def attacker_from_file(
    path: str | Path, catalog: AttributeCatalog, beta: int
) -> AttackerInstance:
    """Load attacker knowledge from a PMF JSON file.

    Schema: ``{"attributes": [...], "entries": [{"values": [...], "p": x}]}``
    with attributes exactly matching the catalog in canonical order.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "entries" not in raw:
        raise SchemaError(f"{path}: expected an object with an 'entries' array")
    attrs = tuple(raw.get("attributes", ()))
    if attrs != catalog.names:
        raise SchemaError(
            f"{path}: PMF attributes {list(attrs)} do not match the catalog"
        )
    entries = []
    for i, entry in enumerate(raw["entries"]):
        if not isinstance(entry, dict) or "values" not in entry or "p" not in entry:
            raise SchemaError(f"{path}: entry {i} needs 'values' and 'p'")
        values = tuple(str(v) for v in entry["values"])
        entries.append((values, float(entry["p"])))
    return AttackerInstance(
        pmf=Pmf(attrs, tuple(entries)), beta=beta, knowledge="file"
    )


def build_dictionary(attacker: AttackerInstance, attrs: Iterable[str]) -> Dictionary:
    """Group the attacker's PMF on ``attrs``; keep the budgeted most probable tuples."""
    target = tuple(attrs)
    missing = set(target) - set(attacker.pmf.attrs)
    if missing:
        raise ConfigError(
            f"attribute {sorted(missing)[0]!r} is outside the attacker's knowledge"
        )
    cols = column_indices(attacker.pmf.attrs, target)
    coded, probabilities = attacker.coded
    _, first, groups = np.unique(
        coded.group_keys(cols), return_index=True, return_inverse=True
    )
    # bincount adds each group's mass in PMF-row order, the floats a running
    # sum gives. Group ids follow value order, so the stable sort breaks
    # probability ties on the value tuple.
    mass = np.bincount(groups, weights=probabilities)
    top = np.argsort(-mass, kind="stable")[: attacker.beta]
    entries = attacker.pmf.entries
    return Dictionary(
        attrs=target,
        entries=tuple(tuple(entries[r][0][c] for c in cols) for r in first[top]),
        probabilities=tuple(mass[top].tolist()),
    )


def _exact_matching_only(attrs: Iterable[str], catalog: AttributeCatalog) -> bool:
    return all(catalog.spec(a).matches_exactly for a in attrs)


def _reached(
    canon: tuple[str, ...],
    attacker: AttackerInstance,
    catalog: AttributeCatalog,
    stored: CodedRows,
    fingerprints: Collection[ValueTuple],
) -> np.ndarray:
    """Per stored fingerprint, whether some dictionary submission matches it.

    ``stored`` codes the ``fingerprints`` (full value tuples in catalog
    order) row for row.
    """
    dictionary = build_dictionary(attacker, canon)
    names = catalog.names
    if not _exact_matching_only(canon, catalog):
        return np.fromiter(
            (
                any(
                    fp_match(canon, catalog, project(fp, names, canon), guess)
                    for guess in dictionary.entries
                )
                for fp in fingerprints
            ),
            bool,
            len(fingerprints),
        )

    cols = column_indices(names, canon)
    projected = stored.matrix[:, cols]
    hit = np.zeros(len(projected), dtype=bool)
    for guess in dictionary.entries:
        codes = [stored.lookup[c].get(v, -1) for c, v in zip(cols, guess)]
        if -1 not in codes:  # a value no user has matches nobody
            hit |= (projected == codes).all(axis=1)
    return hit


def impersonated_mask(
    attrs: Iterable[str], attacker: AttackerInstance, dataset: Dataset
) -> np.ndarray:
    """Whether the attacker impersonates each user, in ``user_mapping`` order."""
    return _reached(
        dataset.catalog.canonical(attrs),
        attacker,
        dataset.catalog,
        dataset.stored_codes,
        dataset.user_mapping.values(),
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
    fingerprints = list(mapping.values())
    hit = _reached(
        catalog.canonical(attrs),
        attacker,
        catalog,
        encode_rows(fingerprints, len(catalog)),
        fingerprints,
    )
    return set(itertools.compress(mapping, hit))


def sensitivity(
    attrs: Iterable[str],
    attacker: AttackerInstance,
    mapping: UserMapping,
    catalog: AttributeCatalog,
) -> float:
    """Fraction of users the attacker impersonates within the budget."""
    reached = impersonated_users(attrs, attacker, mapping, catalog)
    return len(reached) / len(mapping)
