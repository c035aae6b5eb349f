"""Pure-Python reference implementations of the integer-coded measures.

These are the projection-based bodies of ``build_dictionary``,
``impersonated_users`` and ``joint_entropy_bits`` from before the measures
moved to integer codes. They project every PMF entry or stored
fingerprint per call and hash the tuples. Property tests pin the coded
kernels to them, float for float.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

from fpselect import AttributeCatalog, ConfigError, Dataset, fp_match, project
from fpselect.sensitivity import AttackerInstance, Dictionary, UserMapping


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
