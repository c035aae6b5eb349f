"""Dictionary-attacker model and the impersonated-user measure.

An attacker is a probability mass function over full fingerprints plus a
submission budget. Against an attribute set the attacker submits the
budgeted number of most probable projected fingerprints; a user is
impersonated when any submission matches their stored fingerprint under
the per-attribute matching functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .catalog import AttributeCatalog, as_float, read_json
from .dataset import (
    CodedRows,
    Dataset,
    Pmf,
    ValueTuple,
    column_indices,
    encode_rows,
    run_bounds,
)
from .errors import ConfigError, SchemaError
from .matching import attr_match
from .matching import fp_match  # noqa: F401  (bench/tracer.py wraps it here)

UserMapping = Mapping[str, ValueTuple]

# Code comparisons one reach block holds, rows × guesses × exact columns:
# about 1 MB of bools, whatever the budget or the dictionary's length.
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class AttackerInstance:
    """Attacker knowledge (a PMF over full fingerprints) and a budget. What is
    derived from the knowledge is cached on the ``Pmf``, which attackers share."""

    pmf: Pmf
    beta: int
    knowledge: str = "population"

    def __post_init__(self) -> None:
        if self.beta < 1:
            raise ConfigError("submission budget beta must be >= 1")


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
    return AttackerInstance(dataset.population_pmf, beta, knowledge="population")


def uniform_attacker(
    dataset: Dataset, beta: int, *, max_support: int = 200_000
) -> AttackerInstance:
    """The weakest attacker: uniform over the observed value domains.

    The support is the product of each attribute's observed values, the PMF's
    ``uniform_product``; only a read of ``pmf.entries``, which no measure makes,
    enumerates it. ``max_support`` bounds that enumeration and any dictionary.
    """
    names, stored = dataset.catalog.names, dataset.stored_codes
    # Codes follow str order, so the codes in use list the values sorted.
    domains = [[values[c] for c in np.flatnonzero(np.bincount(column)).tolist()]
               for values, column in zip(map(list, stored.lookup), stored.matrix.T)]
    size = math.prod(map(len, domains))
    if size > max_support:
        raise ConfigError(
            f"uniform attacker support exceeds {max_support} fingerprints"
        )
    return AttackerInstance(Pmf._uniform(names, (domains, 1.0 / size)), beta, "uniform")


def attacker_from_file(
    path: str | Path, catalog: AttributeCatalog, beta: int
) -> AttackerInstance:
    """Load attacker knowledge from a PMF JSON file.

    Schema: ``{"attributes": [...], "entries": [{"values": [...], "p": x}]}``
    with attributes exactly matching the catalog in canonical order.
    """
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
        raise SchemaError(f"{path}: expected an object with an 'entries' array")
    attrs = raw.get("attributes")
    if not isinstance(attrs, list) or tuple(attrs) != catalog.names:
        raise SchemaError(f"{path}: PMF attributes {attrs!r} do not match the catalog")
    entries = []
    for i, entry in enumerate(raw["entries"]):
        if (not isinstance(entry, dict) or "p" not in entry
                or not isinstance(entry.get("values"), list)):
            raise SchemaError(f"{path}: entry {i} needs a 'values' array and 'p'")
        try:
            p = as_float(entry["p"])
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"{path}: entry {i}: 'p' must be a number") from None
        if not all(isinstance(v, str) for v in entry["values"]):
            raise SchemaError(f"{path}: entry {i}: values must be strings")
        entries.append((tuple(entry["values"]), p))
    try:
        pmf = Pmf(catalog.names, tuple(entries))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return AttackerInstance(pmf=pmf, beta=beta, knowledge="file")


def build_dictionary(attacker: AttackerInstance, attrs: Iterable[str]) -> Dictionary:
    """Group the attacker's PMF on ``attrs``; keep the budgeted most probable tuples.

    A PMF with a ``uniform_product`` gives every projected tuple one mass, so
    its dictionary is the projected product's first beta tuples.
    """
    target = tuple(attrs)
    missing = set(target) - set(attacker.pmf.attrs)
    if missing:
        raise ConfigError(
            f"attribute {sorted(missing)[0]!r} is outside the attacker's knowledge"
        )
    cols = column_indices(attacker.pmf.attrs, target)
    if (uniform := attacker.pmf.uniform_product) is not None:
        domains, weight = uniform
        projected = [domains[c] for c in cols]
        size = math.prod(map(len, projected))
        top = tuple(itertools.islice(itertools.product(*projected),
                                     min(attacker.beta, size)))
        # Each group's m equal weights, added one by one as bincount does.
        mass = np.full(math.prod(map(len, domains)) // size, weight).cumsum()[-1].item()
        return Dictionary(attrs=target, entries=top, probabilities=(mass,) * len(top))
    coded, probabilities = attacker.pmf.coded
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


def _reached(
    canon: tuple[str, ...],
    attacker: AttackerInstance,
    catalog: AttributeCatalog,
    stored: CodedRows,
) -> np.ndarray:
    """Per row of ``stored`` (full fingerprints), whether a submission matches it.

    ``fp_match`` is the conjunction of ``attr_match``, which depends only on
    the value pair. So exact columns compare integer codes for all rows and a
    block of guesses at once; a value no user has is coded -1, which equals
    no stored code. Tolerant columns still run per guess on the rows that
    survive, matching each distinct stored value of those rows once.
    """
    dictionary = build_dictionary(attacker, canon)
    cols = column_indices(catalog.names, canon)
    specs = [catalog.spec(a) for a in canon]
    exact = [i for i, spec in enumerate(specs) if spec.matches_exactly]
    tolerant = [
        (i, spec, list(stored.lookup[cols[i]]))  # codebooks are in code order
        for i, spec in enumerate(specs)
        if not spec.matches_exactly
    ]
    projected = stored.matrix[:, [cols[i] for i in exact]]
    hit = np.zeros(len(stored.matrix), dtype=bool)
    guesses = dictionary.entries
    step = max(1, _BLOCK_CELLS // (len(hit) * max(len(exact), 1)))
    for start in range(0, len(guesses), step):
        block = guesses[start : start + step]
        codes = np.array(
            [[stored.lookup[cols[i]].get(g[i], -1) for i in exact] for g in block],
            dtype=np.int64,
        )
        matches = (projected[:, None, :] == codes).all(axis=2)
        if not tolerant:
            hit |= matches.any(axis=1)
            continue
        for j in np.flatnonzero(matches.any(axis=0)).tolist():
            guess, match = block[j], matches[:, j]
            for i, spec, values in tolerant:
                rows = np.flatnonzero(match & ~hit)
                distinct, inverse = np.unique(
                    stored.matrix[rows, cols[i]], return_inverse=True
                )
                accepted = np.fromiter(
                    (attr_match(spec, values[c], guess[i]) for c in distinct.tolist()),
                    bool,
                    len(distinct),
                )
                match[rows[~accepted[inverse]]] = False
            hit |= match
    return hit


def impersonated_mask(
    attrs: Iterable[str], attacker: AttackerInstance, dataset: Dataset
) -> np.ndarray:
    """Whether the attacker impersonates each user, in ``browser_ids`` order."""
    catalog = dataset.catalog
    return _reached(catalog.canonical(attrs), attacker, catalog, dataset.stored_codes)


def _knows_population(attacker: AttackerInstance, dataset: Dataset) -> bool:
    """Whether ``attacker`` is the dataset's own population attacker."""
    # Knowledge first, so no other attacker builds the population PMF; `is`,
    # since population_attacker hands out that very cached object.
    return attacker.knowledge == "population" and attacker.pmf is dataset.population_pmf


def non_monotone_reason(attacker: AttackerInstance, dataset: Dataset) -> str | None:
    """Why a larger set may measure a higher sensitivity, or None when it cannot.

    Under exact matching, reach cannot rise against the population attacker
    (the beta largest group counts) or a PMF uniform over a full product
    (dropping a column never raises a tuple's rank in the product).
    """
    tolerant = [s.name for s in dataset.catalog.attributes if not s.matches_exactly]
    if tolerant:
        return f"{', '.join(tolerant)} match tolerantly"
    if _knows_population(attacker, dataset) or attacker.pmf.uniform_product is not None:
        return None
    return (f"the {attacker.knowledge} attacker is neither the dataset's population"
            " nor uniform over a full product")


def impersonated_share(
    canon: tuple[str, ...], attacker: AttackerInstance, dataset: Dataset
) -> float:
    """The share of users ``attacker`` impersonates on the canonical set ``canon``."""
    catalog = dataset.catalog
    if (_knows_population(attacker, dataset)
            and all(catalog.spec(a).matches_exactly for a in canon)):
        # Each submission is one stored group's projection and reaches that
        # group alone, so the reach is the sum of the beta largest group
        # counts. A tie at the boundary changes who is reached, not how
        # many, and float masses never reorder groups of unequal counts.
        keys = dataset.stored_codes.group_keys(column_indices(catalog.names, canon))
        keys.sort()
        bounds = run_bounds(keys)
        counts = bounds[1:] - bounds[:-1]
        counts.sort()
        beta = min(attacker.beta, len(counts))
        return int(counts[-beta:].sum()) / len(keys)
    reached = _reached(canon, attacker, catalog, dataset.stored_codes)
    return int(np.count_nonzero(reached)) / len(reached)


def impersonated_users(
    attrs: Iterable[str],
    attacker: AttackerInstance,
    mapping: UserMapping,
    catalog: AttributeCatalog,
) -> set[str]:
    """Users whose stored fingerprint matches some dictionary submission."""
    if not mapping:
        raise ConfigError("empty user population")
    stored = encode_rows(list(mapping.values()), len(catalog))
    hit = _reached(catalog.canonical(attrs), attacker, catalog, stored)
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
