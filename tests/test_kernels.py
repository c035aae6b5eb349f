"""The integer-coded measures against the pure-Python reference in ``reference``.

Every comparison is exact: the coded kernels add the same floats in the
same order, so dictionaries, probabilities, user sets and entropies must
agree bit for bit, ties included.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from fpselect import (
    AttributeCatalog,
    AttributeSpec,
    Dataset,
    Observation,
    Pmf,
    build_dictionary,
    impersonated_users,
    joint_entropy_bits,
    population_attacker,
    uniform_attacker,
)
from fpselect.dataset import encode_rows
from fpselect.sensitivity import AttackerInstance, impersonated_mask

# Values that numpy string arrays or a careless sort would confuse: a
# trailing NUL, non-ASCII text, case, the empty string.
VALUES = ("a", "a\x00", "a\x00\x00", "b", "B", "", "é", "日本")
UNSEEN = ("zz", "ünseen")

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def instances(draw):
    """A dataset plus an attacker over its catalog: population, uniform or file."""
    width = draw(st.integers(1, 4))
    specs = []
    for i in range(width):
        if draw(st.booleans()) and draw(st.booleans()):
            specs.append(AttributeSpec(f"t{i}", "text", match_threshold=1))
        else:
            specs.append(AttributeSpec(f"c{i}", "category"))
    catalog = AttributeCatalog(tuple(specs))
    names = catalog.names
    values = st.sampled_from(VALUES[: draw(st.integers(1, len(VALUES)))])
    rows = draw(st.lists(st.tuples(*[values] * width), min_size=1, max_size=24))
    observations = []
    for user, row in enumerate(rows):
        for seq in range(draw(st.integers(1, 2))):
            observations.append(
                Observation(f"u{user}", seq, dict(zip(names, row)), {})
            )
    dataset = Dataset(catalog, tuple(observations))

    beta = draw(st.integers(1, 6))
    knowledge = draw(st.sampled_from(["population", "uniform", "file"]))
    if knowledge == "population":
        return dataset, population_attacker(dataset, beta)
    if knowledge == "uniform":
        return dataset, uniform_attacker(dataset, beta)
    # Small integer weights make probability ties common, including sums
    # such as 1/7 + 2/7 against 3/7 that tie or not by composition.
    pool = st.sampled_from(VALUES + UNSEEN)
    support = draw(
        st.lists(st.tuples(*[pool] * width), min_size=1, max_size=12, unique=True)
    )
    weights = draw(st.lists(st.integers(1, 4), min_size=len(support),
                            max_size=len(support)))
    total = sum(weights)
    entries = tuple((v, w / total) for v, w in zip(support, weights))
    if abs(sum(p for _, p in entries) - 1.0) > 1e-9:
        entries = tuple((v, 1 / len(support)) for v in support)
    return dataset, AttackerInstance(Pmf(names, entries), beta, "file")


def subsets(names):
    return st.lists(st.sampled_from(names), max_size=len(names) + 1)


@SETTINGS
@given(instances(), st.data())
def test_build_dictionary_matches_reference(instance, data):
    dataset, attacker = instance
    # Any order and repeats: the dictionary keeps the request as given.
    attrs = data.draw(subsets(dataset.catalog.names))
    assert build_dictionary(attacker, attrs) == reference.build_dictionary(
        attacker, attrs
    )


@SETTINGS
@given(instances(), st.data())
def test_impersonated_users_match_reference(instance, data):
    dataset, attacker = instance
    attrs = data.draw(subsets(dataset.catalog.names))
    expected = reference.impersonated_users(
        attrs, attacker, dataset.user_mapping, dataset.catalog
    )
    assert impersonated_users(
        attrs, attacker, dataset.user_mapping, dataset.catalog
    ) == expected
    mask = impersonated_mask(attrs, attacker, dataset)
    assert {u for u, hit in zip(dataset.user_mapping, mask) if hit} == expected


@SETTINGS
@given(instances(), st.data())
def test_joint_entropy_matches_reference(instance, data):
    dataset, _ = instance
    attrs = data.draw(subsets(dataset.catalog.names))
    assert joint_entropy_bits(dataset, attrs) == reference.joint_entropy_bits(
        dataset, attrs
    )


def test_group_keys_renumber_before_overflow():
    # Seven columns of about 3,000 distinct values each: their mixed-radix
    # product passes 2**62 after the fifth, so the keys are renumbered on
    # the way. They must still sort and compare like the value tuples.
    rng = random.Random(5)
    rows = [tuple(str(rng.randrange(10**6)) for _ in range(7)) for _ in range(3000)]
    rows += rows[:300]
    coded = encode_rows(rows, 7)
    assert np.prod([len(c) for c in coded.lookup], dtype=float) > 2.0**62
    keys = coded.group_keys(range(7))
    order = np.argsort(keys, kind="stable").tolist()
    assert [rows[i] for i in order] == sorted(rows)
    assert len(set(keys.tolist())) == len(set(rows))


def test_probability_ties_depend_on_composition():
    # 0.1 + 0.2 is 0.30000000000000004, just above 0.3: "x" outranks the
    # lexicographically smaller "a", as a running sum of the entries says.
    names = ("a", "b")
    entries = (
        (("w", "0"), 0.4),
        (("x", "1"), 0.1),
        (("x", "2"), 0.2),
        (("a", "3"), 0.3),
    )
    attacker = AttackerInstance(Pmf(names, entries), beta=2, knowledge="file")
    got = build_dictionary(attacker, ("a",))
    assert got.entries == (("w",), ("x",))
    assert got.probabilities == (0.4, 0.1 + 0.2)
    assert got == reference.build_dictionary(attacker, ("a",))
