"""The integer-coded measures against the pure-Python reference in ``reference``.

Every comparison is exact: the coded kernels add the same floats in the
same order, so dictionaries, probabilities, user sets and entropies must
agree bit for bit, ties included, and the cost columns count for count.
The search's sensitivity, a group count or a dictionary's reach, must be
the reference's impersonated share of users, bit for bit.
The column loader must give the row loader's views, or its error message.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import itertools
import pickle
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import fpselect.dataset
import reference
from fpselect import (
    AttributeCatalog,
    AttributeSpec,
    ConfigError,
    CostWeights,
    Dataset,
    Observation,
    Pmf,
    SchemaError,
    SelectionConfig,
    build_dictionary,
    calibrate_thresholds,
    consecutive_pairs,
    impersonated_users,
    joint_entropy_bits,
    pmf,
    population_attacker,
    project,
    select_cond_entropy_baseline,
    select_entropy_baseline,
    select_exhaustive,
    select_greedy,
    time_cost,
    total_cost,
    uniform_attacker,
)
from fpselect.cost import subset_costs
from fpselect.dataset import encode_rows, load_observations
from fpselect.matching import (
    _draw_table,
    _kronecker_threshold,
    _negative_rows,
    edit_distance,
    max_margin_threshold,
)
from fpselect.selection import Evaluator
from fpselect.synth import SynthAttribute, SynthConfig, synthesize
from fpselect.sensitivity import AttackerInstance, impersonated_mask

from test_cli import FUZZ_VALUES, _huge, _paths

# Values that numpy string arrays or a careless sort would confuse: a
# trailing NUL, non-ASCII text, case, the empty string.
VALUES = ("a", "a\x00", "a\x00\x00", "b", "B", "", "é", "日本")
UNSEEN = ("zz", "ünseen")
# Numbers that match across spellings and thresholds, a non-numeric value
# and a non-finite one; token sets that match up to order.
NUMBERS = ("0", "1", "1.0", "2", "4", "-1", "x", "nan")
UNSEEN_NUMBERS = ("1.5", "3", "inf")
SETS = ("a", "a;b", "b;a", "a;b;c", "c", "", ";")
UNSEEN_SETS = ("b;c", "a;c;d")

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def attribute(draw, i):
    """An attribute of any kind, with strategies for stored and guessed values."""
    kind = draw(st.sampled_from(["category", "text", "number", "set", "dynamic"]))
    if kind == "number":
        threshold = draw(st.sampled_from([0, 1, 3]))
        pools = NUMBERS, UNSEEN_NUMBERS
    elif kind == "set":
        threshold, pools = 0.5, (SETS, UNSEEN_SETS)
    else:
        threshold = 1 if kind == "text" else 0
        pools = VALUES, UNSEEN
    # A run of the pool: a number column can then hold only the malformed
    # values at its end, which calibration rejects even in equal pairs.
    start = draw(st.integers(0, len(pools[0]) - 1))
    seen = pools[0][start : draw(st.integers(start + 1, len(pools[0])))]
    spec = AttributeSpec(f"{kind[0]}{i}", kind, match_threshold=threshold)
    return spec, st.sampled_from(seen), st.sampled_from(pools[0] + pools[1])


@st.composite
def instances(draw, kinds=("population", "uniform", "file", "product")):
    """A dataset plus an attacker over its catalog: population, uniform,
    file, or a file uniform over a product of drawn domains."""
    attributes = [draw(attribute(i)) for i in range(draw(st.integers(1, 4)))]
    catalog = AttributeCatalog(tuple(spec for spec, _, _ in attributes))
    # Columns in catalog order, which sorts the attributes by name.
    order = sorted(range(len(attributes)), key=lambda i: attributes[i][0].name)
    names = catalog.names
    row = st.tuples(*[attributes[i][1] for i in order])
    # One to three observations per user, each either a repeat of the
    # previous one or a fresh draw, interleaved across users.
    users = []
    for first in draw(st.lists(row, min_size=1, max_size=24)):
        values = [first]
        for _ in range(draw(st.integers(0, 2))):
            values.append(values[-1] if draw(st.booleans()) else draw(row))
        users.append(values)
    slots = [u for u, values in enumerate(users) for _ in values]
    observations, seen = [], [0] * len(users)
    for u in draw(st.permutations(slots)):
        values = dict(zip(names, users[u][seen[u]]))
        observations.append(Observation(f"u{u}", seen[u], values, {}))
        seen[u] += 1
    dataset = Dataset(catalog, tuple(observations))

    beta = draw(st.integers(1, 6))
    knowledge = draw(st.sampled_from(kinds))
    if knowledge == "population":
        return dataset, population_attacker(dataset, beta)
    if knowledge == "uniform":
        return dataset, uniform_attacker(dataset, beta)
    if knowledge == "product":
        # Domains in drawn order, which may miss stored values and add unseen
        # ones; half the time one entry short of their product, renormalised.
        domains = [draw(st.lists(attributes[i][2], min_size=1, max_size=4,
                                 unique=True)) for i in order]
        support = list(itertools.product(*domains))
        if len(support) > 1 and draw(st.booleans()):
            del support[draw(st.integers(0, len(support) - 1))]
        entries = tuple((v, 1 / len(support)) for v in support)
        return dataset, AttackerInstance(Pmf(names, entries), beta, "file")
    # Small integer weights make probability ties common, including sums
    # such as 1/7 + 2/7 against 3/7 that tie or not by composition.
    support = draw(st.lists(st.tuples(*[attributes[i][2] for i in order]),
                            min_size=1, max_size=12, unique=True))
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
@given(instances(kinds=("product", "file")), st.data())
def test_product_dictionary_matches_reference(instance, data):
    """A PMF uniform over the product of its column domains skips grouping,
    and any other PMF, one entry short of a product included, groups. Both
    give the reference's tuples and masses for every budget up to one past
    the number of groups, and for one past ``sys.maxsize``."""
    _, attacker = instance
    entries = attacker.pmf.entries
    values = [v for v, _ in entries]
    domains = [sorted(set(column)) for column in zip(*values)]
    product = (len({p for _, p in entries}) == 1
               and set(itertools.product(*domains)) == set(values))
    every = AttackerInstance(attacker.pmf, len(entries), "file")
    # The empty set adds every weight into one mass, where m copies of w
    # often sum to other than w * m.
    for attrs in (data.draw(subsets(attacker.pmf.attrs)), ()):
        groups = len(reference.build_dictionary(every, attrs).entries)
        for beta in (*range(1, groups + 2), sys.maxsize + 1):
            knows = AttackerInstance(attacker.pmf, beta, attacker.knowledge)
            assert build_dictionary(knows, attrs) == reference.build_dictionary(
                knows, attrs
            )
            assert knows.pmf.uniform_product == (
                (domains, entries[0][1]) if product else None)
            assert ("coded" in vars(knows.pmf)) is not product


@SETTINGS
@given(instances(kinds=("uniform",)))
def test_the_uniform_pmf_is_given_the_product_it_would_derive(instance):
    """``uniform_attacker`` gives its PMF the product it builds, domains and
    weight: what an eager ``Pmf`` of the same entries derives."""
    _, attacker = instance
    given = attacker.pmf.uniform_product
    assert "entries" not in vars(attacker.pmf)
    assert given == Pmf(attacker.pmf.attrs, attacker.pmf.entries).uniform_product


@SETTINGS
@given(instances(kinds=("uniform",)))
def test_the_uniform_pmf_is_the_eager_pmf_of_its_product(instance):
    """``uniform_attacker``'s PMF is given its product, and it is, on
    first read, the eager ``Pmf`` of the whole product: the same entries with
    every float bit for bit, equal both ways, of one hash, repr and class,
    whichever of these reads the entries first."""
    dataset, attacker = instance
    names = dataset.catalog.names
    domains = [sorted(set(column)) for column in zip(*dataset.user_mapping.values())]
    support = list(itertools.product(*domains))
    entries = tuple((combo, 1.0 / len(support)) for combo in support)
    eager = Pmf(names, entries)

    def fresh():
        lazy = uniform_attacker(dataset, attacker.beta)
        assert "entries" not in vars(lazy.pmf)
        return lazy

    read = fresh().pmf.entries
    assert read == entries
    assert [p.hex() for _, p in read] == [p.hex() for _, p in entries]
    assert fresh().pmf == eager and eager == fresh().pmf
    assert hash(fresh().pmf) == hash(eager) and repr(fresh().pmf) == repr(eager)
    assert type(fresh().pmf) is Pmf
    assert fresh() == AttackerInstance(eager, attacker.beta, "uniform")
    assert AttackerInstance(eager, attacker.beta, "uniform") == fresh()
    assert hash(fresh()) == hash(AttackerInstance(eager, attacker.beta, "uniform"))


@SETTINGS
@given(instances(kinds=("uniform",)))
def test_the_uniform_pmf_stays_unread_through_a_copy(instance):
    """A copy, a deep copy and a pickle round trip of an unread uniform PMF
    are unread too, and each equals the eager ``Pmf`` of the product, of one
    hash. A name it lacks raises the usual ``AttributeError``."""
    dataset, attacker = instance
    eager = Pmf(attacker.pmf.attrs, uniform_attacker(dataset, 1).pmf.entries)
    for clone in (copy.copy, copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))):
        pmf = uniform_attacker(dataset, attacker.beta).pmf
        copied = clone(pmf)
        assert "entries" not in vars(copied) and "entries" not in vars(pmf)
        assert copied == eager and hash(copied) == hash(eager)
    with pytest.raises(AttributeError, match="'missing'"):
        getattr(attacker.pmf, "missing")
    assert "entries" not in vars(attacker.pmf)


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
def test_evaluator_sensitivity_matches_reference(instance, data):
    """The search's sensitivity is the reference reach, bit for bit, for
    every budget up to one past the number of groups, and for one past
    ``sys.maxsize``. Against the dataset's own population attacker, exact
    sets take the count path; the instance's attacker, whose population
    PMF predates the added users, does not."""
    dataset, attacker = instance
    catalog, names = dataset.catalog, dataset.catalog.names
    # Where some exact attributes vary across users, half the draws keep to
    # them: such sets take the count path and split the users into groups.
    stored = list(dataset.user_mapping.values())
    varying = [a for a, column in zip(names, zip(*stored))
               if catalog.spec(a).matches_exactly and len(set(column)) > 1]
    if varying and data.draw(st.booleans()):
        attrs = data.draw(st.lists(st.sampled_from(varying), min_size=1, max_size=4))
    else:
        attrs = data.draw(subsets(names))
    # New users that repeat stored rows, with two rows each so the cost
    # measures have a consecutive pair: a copy of the first user, then, half
    # the time, copies of a user in the (b+1)-th largest group until that
    # group ties the b-th. Repeated rows make such ties at a budget common.
    copies = [stored[0]]
    ranked = Counter(project(v, names, attrs) for v in stored + copies).most_common()
    if len(ranked) > 1 and data.draw(st.booleans()):
        b = data.draw(st.integers(1, len(ranked) - 1))
        (_, inside), (outside, count) = ranked[b - 1], ranked[b]
        copies += [next(v for v in stored if project(v, names, attrs) == outside)] * (
            inside - count)
    dataset = Dataset(catalog, (*dataset.observations, *(
        Observation(f"c{i}", seq, dict(zip(names, values)), {})
        for i, values in enumerate(copies) for seq in (0, 1)
    )))
    mapping = dataset.user_mapping
    for beta in (*range(1, len(ranked) + 2), sys.maxsize + 1):
        for knows in (population_attacker(dataset, beta),
                      AttackerInstance(attacker.pmf, beta, attacker.knowledge)):
            expected = reference.impersonated_users(attrs, knows, mapping, catalog)
            evaluator = Evaluator(dataset, knows, CostWeights())
            assert evaluator.evaluate(attrs)[1] == len(expected) / len(mapping)


# The package's ``sensitivity`` is the function, so fetch the module.
SENSITIVITY = importlib.import_module("fpselect.sensitivity")
SELECTION = importlib.import_module("fpselect.selection")


def _in_blocks_of(guesses, patch):
    """Make every reach block hold ``guesses`` guesses: before each call,
    size the block constant for that call's rows and exact columns."""
    reached = SENSITIVITY._reached

    def blocked(canon, attacker, catalog, stored):
        exact = sum(catalog.spec(a).matches_exactly for a in canon)
        patch.setattr(SENSITIVITY, "_BLOCK_CELLS",
                      guesses * len(stored.matrix) * max(exact, 1))
        return reached(canon, attacker, catalog, stored)

    patch.setattr(SENSITIVITY, "_reached", blocked)


@pytest.mark.parametrize("guesses", [1, 3])
@SETTINGS
@given(instances(), st.data())
def test_reach_is_the_same_in_blocks_of_any_size(guesses, instance, data):
    """The two reach comparisons above, with one or three guesses per block,
    so dictionaries span several blocks and a block can end mid-dictionary."""
    with pytest.MonkeyPatch.context() as patch:
        _in_blocks_of(guesses, patch)
        test_impersonated_users_match_reference.hypothesis.inner_test(instance, data)
        test_evaluator_sensitivity_matches_reference.hypothesis.inner_test(
            instance, data)


@pytest.mark.parametrize("guesses", [None, 1, 3])
def test_a_value_no_user_has_matches_nobody_inside_a_block(guesses):
    # The second of three guesses holds an exact value no user has, with a
    # text value that users of every stored value of x hold: coded as any
    # stored value, it would reach one of u3, u4 and u5. The tolerant text
    # column accepts "ab" against "xb" and "abc".
    catalog = AttributeCatalog((AttributeSpec("x", "category"),
                                AttributeSpec("t", "text", match_threshold=1)))
    # Values in canonical order, (t, x), as the guesses are.
    rows = {"u0": ("ab", "a"), "u1": ("xb", "a"), "u2": ("abc", "b"),
            "u3": ("zzzz", "b"), "u4": ("zzzz", "c"), "u5": ("zzzz", "a")}
    dataset = Dataset(catalog, tuple(
        Observation(user, 0, dict(zip(catalog.names, values)), {})
        for user, values in rows.items()))
    entries = ((("ab", "a"), 0.4), (("zzzz", "unseen"), 0.3), (("ab", "b"), 0.2),
               (("ab", "c"), 0.1))
    attacker = AttackerInstance(Pmf(catalog.names, entries), 3, "file")
    with pytest.MonkeyPatch.context() as patch:
        if guesses is not None:
            _in_blocks_of(guesses, patch)
        mask = impersonated_mask(catalog.names, attacker, dataset)
        users = impersonated_users(catalog.names, attacker, rows, catalog)
    assert users == {u for u, hit in zip(dataset.user_mapping, mask) if hit}
    assert users == reference.impersonated_users(
        catalog.names, attacker, rows, catalog) == {"u0", "u1", "u2"}


def test_a_foreign_population_attacker_is_not_counted():
    # The same catalog, other users: this dataset's top group holds 3 of 4
    # users, but the foreign attacker's one guess, "c", reaches none of them.
    catalog = AttributeCatalog((AttributeSpec("x", "category"),))

    def users(values):
        return Dataset(catalog, tuple(
            Observation(f"u{i}", seq, {"x": v}, {})
            for i, v in enumerate(values) for seq in (0, 1)
        ))

    dataset, attacker = users("aaab"), population_attacker(users("bccc"), 1)
    assert attacker.knowledge == "population"
    assert reference.impersonated_users(
        ("x",), attacker, dataset.user_mapping, catalog
    ) == set()
    assert Evaluator(dataset, attacker, CostWeights()).evaluate(("x",))[1] == 0.0


# File attackers twice over: an all-exact catalog against one that is not
# uniform over a product is the case a reason must not miss.
@SETTINGS
@given(instances() | instances(kinds=("file",)))
def test_sensitivity_never_rises_where_no_reason_says_it_may(instance):
    """``non_monotone_reason`` finds none exactly where every attribute
    matches exactly and the attacker is the population or uniform over a full
    product, and there no set measures a higher sensitivity than any of its
    one-smaller subsets."""
    dataset, attacker = instance
    names = dataset.catalog.names
    reason = SENSITIVITY.non_monotone_reason(attacker, dataset)
    # ``instances()`` builds every population attacker from its own dataset.
    assert (reason is None) == (
        all(spec.matches_exactly for spec in dataset.catalog.attributes)
        and (attacker.knowledge == "population"
             or attacker.pmf.uniform_product is not None))
    if reason is not None:
        return
    share = {
        subset: SENSITIVITY.impersonated_share(subset, attacker, dataset)
        for size in range(len(names) + 1)
        for subset in itertools.combinations(names, size)
    }
    for grown, value in share.items():
        for dropped in range(len(grown)):
            assert value <= share[grown[:dropped] + grown[dropped + 1:]]


def test_a_file_attacker_that_raises_sensitivity_gets_a_reason():
    # Three users hold a = 0 and seven a = 1, b = 0. The one guess on {a} is
    # a = 0 (mass 0.6), which reaches 3 users; on {a, b} it is (1, 0) (mass
    # 0.4), which reaches 7.
    catalog = AttributeCatalog((AttributeSpec("a", "category"),
                                AttributeSpec("b", "category")))
    rows = [("0", "0"), ("0", "1"), ("0", "2")] + [("1", "0")] * 7
    dataset = Dataset(catalog, tuple(
        Observation(f"u{i}", 0, dict(zip(catalog.names, values)), {})
        for i, values in enumerate(rows)))
    entries = ((("0", "0"), 0.2), (("0", "1"), 0.2), (("0", "2"), 0.2),
               (("1", "0"), 0.4))
    attacker = AttackerInstance(Pmf(catalog.names, entries), 1, "file")
    assert [SENSITIVITY.impersonated_share(s, attacker, dataset)
            for s in (("a",), ("a", "b"))] == [0.3, 0.7]
    assert SENSITIVITY.non_monotone_reason(attacker, dataset) == (
        "the file attacker is neither the dataset's population nor uniform over a"
        " full product")
    # The population attacker of the same users is monotone.
    assert SENSITIVITY.non_monotone_reason(
        population_attacker(dataset, 1), dataset) is None


@SETTINGS
@given(instances(), st.data())
def test_joint_entropy_matches_reference(instance, data):
    dataset, _ = instance
    attrs = data.draw(subsets(dataset.catalog.names))
    assert joint_entropy_bits(dataset, attrs) == reference.joint_entropy_bits(
        dataset, attrs
    )


@SETTINGS
@given(instances())
def test_cost_columns_match_row_walks(instance):
    dataset, _ = instance
    names = dataset.catalog.names
    pairs = reference.consecutive_observations(dataset)
    assert consecutive_pairs(dataset) == [
        tuple(tuple(obs.values[a] for a in names) for obs in pair) for pair in pairs]
    assert dataset.consecutive_pair_count == len(pairs)
    for got, expected in (
        (dataset.attribute_byte_totals, reference.attribute_byte_totals(dataset)),
        (dataset.attribute_change_counts,
         reference.attribute_change_counts(dataset)),
    ):
        assert got == expected
        # Python ints, so the cost floats are computed as before.
        assert all(type(v) is int for v in got.values())


@SETTINGS
@given(instances(), st.data())
def test_time_cost_is_the_mean_bit_for_bit(instance, data):
    """The time cost is ``np.mean`` of the per-observation times: the sync
    times summed in canonical order, then the maximum with each async time."""
    dataset, _ = instance
    names = dataset.catalog.names
    catalog = AttributeCatalog(tuple(
        dataclasses.replace(dataset.catalog.spec(a), is_async=data.draw(st.booleans()))
        for a in names))
    times = st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1e-3]),
                      st.floats(0, 1e4, allow_subnormal=False))
    observations = tuple(
        Observation(o.browser_id, o.seq, o.values, {a: data.draw(times) for a in names})
        for o in dataset.observations)
    timed = Dataset(catalog, observations)
    attrs = data.draw(subsets(names))
    canon = catalog.canonical(attrs)
    columns = reference.attribute_times(catalog, timed.observations)
    per_obs = np.zeros(len(observations))
    for a in canon:
        if not catalog.spec(a).is_async:
            per_obs += columns[a]
    for a in canon:
        if catalog.spec(a).is_async:
            per_obs = np.maximum(per_obs, columns[a])
    assert time_cost(attrs, timed) == float(np.mean(per_obs))


def _bits(breakdown):
    """A breakdown's floats exactly, the sign of a zero included."""
    return [x.hex() for x in dataclasses.astuple(breakdown)]


@SETTINGS
@given(instances(), st.data())
def test_the_lattice_walk_is_total_cost_bit_for_bit(instance, data):
    """``subset_costs`` gives every subset ``total_cost``'s breakdown, field by
    field and bit for bit, over drawn async flags, times of ``0.0``, ``-0.0``
    and missing cells, all-zero columns and async-only subsets; without a
    consecutive pair both end in the same ConfigError."""
    dataset, _ = instance
    names = dataset.catalog.names
    catalog = AttributeCatalog(tuple(
        dataclasses.replace(dataset.catalog.spec(a), is_async=data.draw(st.booleans()))
        for a in names))
    zeros = st.sampled_from([0.0, -0.0, None])
    drawn = st.one_of(zeros, st.sampled_from([0.1, 0.2, 0.3, 1e-3]),
                      st.floats(0, 1e4, allow_subnormal=False))
    # A column of one zero (all -0.0, say), of mixed zeros, or of any times.
    kinds = (st.just(data.draw(zeros)), zeros, drawn)
    cells = {a: kinds[data.draw(st.integers(0, 2))] for a in names}
    observations = []
    for o in dataset.observations:
        times = {a: data.draw(cells[a]) for a in names}
        present = {a: t for a, t in times.items() if t is not None}
        observations.append(Observation(o.browser_id, o.seq, o.values, present))
    timed = Dataset(catalog, observations)
    weights = data.draw(st.sampled_from([CostWeights(), CostWeights(1, 1, 1)]))
    if timed.consecutive_pair_count == 0:
        assert _outcome(subset_costs, timed, weights) == (
            _outcome(total_cost, names, timed, weights))
        return
    walk = subset_costs(timed, weights)
    assert walk.keys() == {c for size in range(len(names) + 1)
                           for c in itertools.combinations(names, size)}
    for subset, breakdown in walk.items():
        assert _bits(breakdown) == _bits(total_cost(subset, timed, weights))


def _fifteen_attributes():
    """A synth catalog at the default ``--max-n`` depth, with async
    attributes, all-zero columns and ``-0.0`` times."""
    config = SynthConfig(40, 3, tuple(
        SynthAttribute(f"a{i:02d}", cardinality=2 + i % 4, change_prob=0.1 * (i % 3),
                       mean_collect_ms=float(i % 5), is_async=i % 4 == 1)
        for i in range(15)))
    synthetic = synthesize(config, 0)
    # a05 is async, and -0.0 in every row; a00 is sync, and -0.0 in one.
    observations = [dataclasses.replace(o, collect_ms={**o.collect_ms, "a05": -0.0})
                    for o in synthetic.observations]
    observations[0].collect_ms["a00"] = -0.0
    return Dataset(synthetic.catalog, observations)


def test_the_lattice_walk_is_total_cost_at_15_attributes():
    """The walk at the default ``--max-n`` depth: all 32,768 subsets, each
    equal to ``total_cost`` bit for bit."""
    dataset = _fifteen_attributes()
    weights = CostWeights()
    walk = subset_costs(dataset, weights)
    assert len(walk) == 2**15
    for subset, breakdown in walk.items():
        assert _bits(breakdown) == _bits(total_cost(subset, dataset, weights))


def _measured_while(run, *args):
    """The result of ``run`` and every ``(set, sensitivity)`` the selection
    module measured during it, in order."""
    measured = []
    share = SELECTION.impersonated_share

    def counted(attrs, *rest):
        measured.append((attrs, share(attrs, *rest)))
        return measured[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SELECTION, "impersonated_share", counted)
        return run(*args), measured


def test_the_oracle_settles_15_attributes_from_a_few_measured_sets():
    """Against the population attacker the oracle chooses what a scan of
    every subset in ``(total_points, set)`` order chooses, measuring 21 sets
    where the scan measures 371, the gate's full set included."""
    dataset = _fifteen_attributes()
    attacker = population_attacker(dataset, beta=1)
    config = SelectionConfig(alpha=0.025)
    result, measured = _measured_while(select_exhaustive, dataset, attacker, config)
    costs = subset_costs(dataset, config.weights)
    scanned = [dataset.catalog.names]
    for _, combo in sorted((c.total_points, combo) for combo, c in costs.items()):
        scanned.append(combo)
        sens = SENSITIVITY.impersonated_share(combo, attacker, dataset)
        if sens <= config.alpha:
            break
    assert (result.chosen, result.breakdown, result.sensitivity) == (
        combo, costs[combo], sens)
    assert result.explored_count == 2**15
    assert (len(measured), len(scanned)) == (21, 371)


def _outcome(run, *args, **kwargs):
    """The result, or the type and message of the error it ends in."""
    try:
        return run(*args, **kwargs)
    except (ConfigError, SchemaError) as exc:
        return type(exc), str(exc)


@st.composite
def crowded_files(draw):
    """Users seen twice on two or three attributes of three values, most of
    them sharing a few fingerprints, and a file attacker over the same values.
    Half the time the users' commonest fingerprint is the likeliest guess, yet
    two or three guesses that share another first value outweigh it on that
    attribute alone: at beta 1 the full set then reaches the crowd and the
    first attribute alone reaches only the users with that other value."""
    names = ("a", "b", "c")[: draw(st.integers(2, 3))]
    catalog = AttributeCatalog(tuple(AttributeSpec(a, "category") for a in names))
    row = st.tuples(*[st.sampled_from("012")] * len(names))
    row = row | st.sampled_from(draw(st.lists(row, min_size=1, max_size=3)))
    observations, stored = [], Counter()
    for u, first in enumerate(draw(st.lists(row, min_size=1, max_size=12))):
        stored[first] += 1
        for seq, values in enumerate([first, draw(st.just(first) | row)]):
            observations.append(Observation(f"u{u}", seq, dict(zip(names, values)), {}))
    beta = 1
    if draw(st.booleans()):
        crowd = stored.most_common(1)[0][0]
        other = draw(st.sampled_from([v for v in "012" if v != crowd[0]]))
        rests = draw(st.lists(row.map(lambda v: v[1:]), min_size=2, max_size=3,
                              unique=True))
        support = [crowd, *((other, *rest) for rest in rests)]
        weights = [3] + [2] * len(rests)
    else:
        support = draw(st.lists(row, min_size=1, max_size=9, unique=True))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(support),
                                max_size=len(support)))
        beta = draw(st.integers(1, 3))
    entries = tuple((v, w / sum(weights)) for v, w in zip(support, weights))
    if abs(sum(p for _, p in entries) - 1.0) > 1e-9:
        entries = tuple((v, 1 / len(support)) for v in support)
    attacker = AttackerInstance(Pmf(names, entries), beta, "file")
    return Dataset(catalog, tuple(observations)), attacker


def _with_free_attribute(dataset, attacker, name):
    """The instance plus a category attribute ``name`` holding "" on every
    row and in every guess: it costs nothing and splits no group, so each
    set ties its union with ``name`` in ``total_points`` and in sensitivity.
    Named first, the union also sorts before a set it does not start."""
    catalog = AttributeCatalog((*dataset.catalog.attributes,
                                AttributeSpec(name, "category")))
    free = Dataset(catalog, tuple(
        dataclasses.replace(o, values={**o.values, name: ""})
        for o in dataset.observations))
    if attacker.knowledge == "population":
        return free, population_attacker(free, attacker.beta)
    if attacker.knowledge == "uniform":
        return free, uniform_attacker(free, attacker.beta)
    i = catalog.names.index(name)
    entries = tuple(((*v[:i], "", *v[i:]), p) for v, p in attacker.pmf.entries)
    return free, AttackerInstance(Pmf(catalog.names, entries), attacker.beta, "file")


@SETTINGS
@given(instances() | crowded_files(), st.data())
def test_oracle_matches_the_full_enumeration(instance, data):
    """Ranking every subset by cost and measuring sensitivity only up to the
    first that meets alpha reports what measuring every subset reports: the
    set, its breakdown and sensitivity, and the explored count. The draws
    hold file attackers that break monotonicity, tolerant catalogs, times,
    ties in ``total_points`` and an attribute that costs nothing."""
    dataset, attacker = instance
    if data.draw(st.booleans()):
        times = st.sampled_from([0, 0.5, 2.0])
        dataset = Dataset(dataset.catalog, tuple(
            dataclasses.replace(o, collect_ms={a: data.draw(times) for a in o.values})
            for o in dataset.observations))
    if data.draw(st.booleans()):
        name = data.draw(st.sampled_from(["_", "z"]))
        dataset, attacker = _with_free_attribute(dataset, attacker, name)
    # Alpha at a nonzero sensitivity some subset measures, or below them all.
    names = dataset.catalog.names
    shares = {SENSITIVITY.impersonated_share(subset, attacker, dataset)
              for size in range(len(names) + 1)
              for subset in itertools.combinations(names, size)}
    config = SelectionConfig(
        alpha=data.draw(st.sampled_from(sorted(shares - {0} | {0.01}))),
        weights=data.draw(st.sampled_from([CostWeights(), CostWeights(1, 1, 1)])))
    # Without consecutive observations both end in the same ConfigError.
    assert _outcome(select_exhaustive, dataset, attacker, config) == (
        _outcome(reference.select_exhaustive, dataset, attacker, config))


def _all_exact(instance):
    """The instance with every attribute matched as a category, so exactly;
    population and uniform attackers are rebuilt on the new catalog."""
    dataset, attacker = instance
    catalog = AttributeCatalog(tuple(
        AttributeSpec(a, "category") for a in dataset.catalog.names))
    exact = Dataset(catalog, dataset.observations)
    if attacker.knowledge == "population":
        return exact, population_attacker(exact, attacker.beta)
    if attacker.knowledge == "uniform":
        return exact, uniform_attacker(exact, attacker.beta)
    return exact, attacker


@SETTINGS
@given(instances(kinds=("population", "uniform", "product")).map(_all_exact),
       st.data())
def test_the_monotone_oracle_wastes_no_measurement(instance, data):
    """Under monotone sensitivity the oracle measures each set once, largest
    first, none inside a set it measured to fail alpha and none ranked after
    a set it measured to meet it, and still chooses what measuring every
    subset chooses."""
    dataset, attacker = instance
    assume(SENSITIVITY.non_monotone_reason(attacker, dataset) is None)
    names = dataset.catalog.names
    shares = {SENSITIVITY.impersonated_share(subset, attacker, dataset)
              for size in range(len(names) + 1)
              for subset in itertools.combinations(names, size)}
    alphas = sorted(shares - {0} | {0.01})
    config = SelectionConfig(alpha=data.draw(st.sampled_from(alphas)))
    outcome, measured = _measured_while(
        _outcome, select_exhaustive, dataset, attacker, config)
    assert outcome == _outcome(reference.select_exhaustive, dataset, attacker, config)
    if isinstance(outcome, tuple):  # no consecutive observations
        return
    sets = [combo for combo, _ in measured]
    assert len(set(sets)) == len(sets)
    assert sets == sorted(sets, key=lambda combo: -len(combo))
    rank = {combo: (c.total_points, combo)
            for combo, c in subset_costs(dataset, config.weights).items()}
    for i, (combo, _) in enumerate(measured):
        for earlier, sens in measured[:i]:
            if sens > config.alpha:
                assert not set(combo) <= set(earlier)
            else:
                assert rank[combo] < rank[earlier]


@SETTINGS
@given(instances(), st.data())
def test_every_search_costs_and_measures_each_set_once(instance, data):
    """Greedy, both baselines and the oracle cost no set twice and measure no
    set twice, and ``explored_count`` is the number of distinct sets costed,
    the oracle's walk of every subset included. Greedy and the baselines
    measure every set they cost; the oracle measures only some."""
    dataset, attacker = instance
    names = dataset.catalog.names
    shares = {SENSITIVITY.impersonated_share(subset, attacker, dataset)
              for size in range(len(names) + 1)
              for subset in itertools.combinations(names, size)}
    config = SelectionConfig(
        alpha=data.draw(st.sampled_from(sorted(shares - {0} | {0.01}))),
        k=data.draw(st.integers(1, 3)))
    cost, share, walk = (SELECTION.total_cost, SELECTION.impersonated_share,
                         SELECTION.subset_costs)
    for select in (select_greedy, select_entropy_baseline,
                   select_cond_entropy_baseline, select_exhaustive):
        costed, measured, walked = [], [], set()

        def counted_cost(attrs, *rest):
            costed.append(attrs)
            return cost(attrs, *rest)

        def counted_share(attrs, *rest):
            measured.append(attrs)
            return share(attrs, *rest)

        def counted_walk(*args):
            found = walk(*args)
            walked.update(found)
            return found

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SELECTION, "total_cost", counted_cost)
            patch.setattr(SELECTION, "impersonated_share", counted_share)
            patch.setattr(SELECTION, "subset_costs", counted_walk)
            result = _outcome(select, dataset, attacker, config)
        if isinstance(result, tuple):  # no consecutive observations
            continue
        assert len(set(costed)) == len(costed)
        assert len(set(measured)) == len(measured)
        explored = {*costed, *walked}
        assert result.explored_count == len(explored)
        assert set(measured) <= explored
        if select is select_exhaustive:  # walks no subset when the gate stops it
            assert len(walked) in (0, 2 ** len(names))
        else:
            assert set(measured) == set(costed) and not walked


@st.composite
def dataset_lines(draw, dataset):
    """JSON lines of ``dataset`` with blank lines, ``\\n`` or ``\\r\\n`` line
    ends, leading or trailing JSON whitespace, values and times keyed in any
    order, times for some attributes, seqs past 2**63 or not, and up to two
    lines mutated, one field each: set to a fuzz value (a lone surrogate, NaN
    and infinity among them), deleted, a value renamed to another attribute,
    a value or time added for an unknown one, the seq redrawn, or the line
    cut short."""
    names = dataset.catalog.names
    offset = draw(st.sampled_from([0, 2**63 + 1]))
    rows = []
    for obs in dataset.observations:
        row = {"browser_id": obs.browser_id, "seq": obs.seq + offset,
               "values": dict(draw(st.permutations(list(obs.values.items()))))}
        times = draw(st.dictionaries(st.sampled_from(names),
                                     st.sampled_from([0, 0.0, 2, 2.5, 1e-9])))
        if times or draw(st.booleans()):
            row["collect_ms"] = dict(draw(st.permutations(list(times.items()))))
        rows.append(row)
    cut = []
    for line in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2,
                              unique=True)):
        mutation = draw(st.sampled_from(["set", "delete", "rename", "add", "seq",
                                         "cut"]))
        if mutation in ("set", "delete"):
            path = draw(st.sampled_from(list(_paths(rows[line]))))
            target = rows[line]
            for key in path[:-1]:
                target = target[key]
            if mutation == "set":
                fuzz = draw(st.sampled_from(FUZZ_VALUES))
                target[path[-1]] = copy.deepcopy(fuzz)
            else:
                del target[path[-1]]
        elif mutation == "rename":
            values = rows[line]["values"]
            name = draw(st.sampled_from(sorted(values)))
            values[draw(st.sampled_from([*names, "zz", ""]))] = values.pop(name)
        elif mutation == "add":
            field = draw(st.sampled_from(["values", "collect_ms"]))
            rows[line].setdefault(field, {})["zz"] = "a" if field == "values" else 1
        elif mutation == "seq":
            rows[line]["seq"] = offset + draw(st.integers(0, 2))
        else:
            cut.append(line)
    lines = [_huge(row) + draw(st.sampled_from(["", "", " ", "\t "])) for row in rows]
    for line in cut:
        lines[line] = lines[line][: draw(st.integers(0, len(lines[line]) - 1))]
    if draw(st.booleans()):
        line = draw(st.integers(0, len(lines) - 1))
        lines[line] = draw(st.sampled_from([" ", "\t "])) + lines[line]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "  ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


def _loaded(load, path, catalog):
    try:
        return load(path, catalog)
    except SchemaError as exc:
        return str(exc)


@SETTINGS
@given(instances(), st.data())
def test_loader_matches_the_row_reference(instance, data):
    dataset, _ = instance
    catalog = dataset.catalog
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "dataset.jsonl"
        path.write_text(data.draw(dataset_lines(dataset)), encoding="utf-8")
        got = _loaded(load_observations, path, catalog)
        rows = _loaded(reference.load_observations, path, catalog)
    if isinstance(rows, str) or isinstance(got, str):
        assert got == rows
        return
    assert got.observations == rows
    assert list(got.user_mapping.items()) == list(
        reference.user_mapping(catalog, rows).items()
    )
    codes = reference.codes(catalog, rows)
    assert [list(b.items()) for b in got.codes.lookup] == [
        list(b.items()) for b in codes.lookup
    ]
    assert np.array_equal(got.codes.matrix, codes.matrix)
    times = reference.attribute_times(catalog, rows)
    assert got.attribute_times.keys() == times.keys()
    assert all(np.array_equal(got.attribute_times[a], times[a]) for a in times)
    assert np.array_equal(got._pairs, reference.pairs(rows))
    attrs = data.draw(subsets(catalog.names))
    assert pmf(got, attrs).entries == reference.pmf(catalog, rows, attrs).entries


XY_CATALOG = AttributeCatalog((AttributeSpec("x", "category"),
                             AttributeSpec("y", "text")))


def _rows_text(rows):
    return "".join(_huge(row) + "\n" for row in rows)


# Faults that a lean pass sees only after it has read every line, one that
# it sees at once, and two oddities that only the checked source accepts.
LINE_TWO = {
    "bool-time": {"collect_ms": {"x": True}},
    "negative-time": {"collect_ms": {"x": -1}},
    "nan-time": {"collect_ms": {"x": float("nan")}},
    "infinite-time": {"collect_ms": {"x": "HUGE"}},
    "overflowing-time": {"collect_ms": {"x": 10**400}},
    "unknown-time": {"collect_ms": {"zz": 1}},
    "unknown-time-at-full-width": {"collect_ms": {"x": 1, "zz": 1}},
    "number-value": {"values": {"x": 7, "y": "b"}},
    "lone-surrogate": {"values": {"x": "\ud800", "y": "b"}},
    "browser-id-lone-surrogate": {"browser_id": "\ud800"},
    "negative-seq": {"seq": -1},
    "string-time": {"collect_ms": {"x": "2.5"}},
    "float-seq": {"seq": 3.0},
}
ACCEPTED = ("string-time", "float-seq")


@pytest.mark.parametrize("later_fault", [False, True])
@pytest.mark.parametrize("line_two", LINE_TWO)
def test_the_first_faulty_line_is_reported(tmp_path, line_two, later_fault):
    # A missing seq on line 3 ends the lean pass before line 2's times and
    # values are checked; the message must still be line 2's.
    rows = [{"browser_id": "u", "seq": 0, "values": {"x": "a", "y": "b"}},
            {"browser_id": "v", "seq": 0, "values": {"x": "a", "y": "b"},
             **LINE_TWO[line_two]},
            {"browser_id": "w", "seq": 0, "values": {"x": "a", "y": "b"}}]
    if later_fault:
        del rows[2]["seq"]
    path = tmp_path / "dataset.jsonl"
    path.write_text(_rows_text(rows), encoding="utf-8")
    got = _loaded(load_observations, path, XY_CATALOG)
    expected = _loaded(reference.load_observations, path, XY_CATALOG)
    accepted = line_two in ACCEPTED
    if accepted and not later_fault:
        assert got.observations == expected
    else:
        assert got == expected
        assert got.startswith(f"{path}:{3 if accepted else 2}: ")


@pytest.mark.parametrize("after", ["\x0c", "\x0b", "\u00a0", "\u2028", " x", "{}",
                                   " []"])
def test_text_after_a_line_s_document_is_reported(tmp_path, after):
    # JSON allows only " \t\n\r" after a document; str.strip would take more.
    rows = [{"browser_id": b, "seq": 0, "values": {"x": "a", "y": "b"}}
            for b in ("u", "v", "w")]
    lines = _rows_text(rows).splitlines()
    lines[1] += after
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = _loaded(load_observations, path, XY_CATALOG)
    assert got == _loaded(reference.load_observations, path, XY_CATALOG)
    assert got.startswith(f"{path}:2: ")


def test_only_a_suspect_file_is_read_again_checked(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return checked_rows(*args)

    checked_rows = fpselect.dataset._checked_rows
    monkeypatch.setattr(fpselect.dataset, "_checked_rows", counted)
    rows = [{"browser_id": b, "seq": 2**63 + seq,
             "values": {"x": f"{b}{seq % 2}", "y": "é"},
             "collect_ms": {"x": seq, "y": 2.5}}
            for seq in range(3) for b in ("u", "v")]
    path = tmp_path / "dataset.jsonl"
    path.write_text("\n  \n" + _rows_text(rows[:3]) + "\t\n \n"
                    + _rows_text(rows[3:]), encoding="utf-8")
    clean = load_observations(path, XY_CATALOG)
    assert calls == []
    assert clean.observations == reference.load_observations(path, XY_CATALOG)
    # Clean files that must stay lean too: times for some attributes or none,
    # keys out of catalog order, \r\n line ends and a one-attribute catalog.
    untimed = [{**row, "collect_ms": {"y": 2.5}} if i % 2 else
               {k: v for k, v in row.items() if k != "collect_ms"}
               for i, row in enumerate(rows)]
    reversed_keys = [{k: dict(reversed(v.items())) if isinstance(v, dict) else v
                      for k, v in reversed(row.items())} for row in rows]
    x_only = [{**row, "values": {"x": row["values"]["x"]},
               "collect_ms": {"x": row["seq"] % 7}} for row in rows]
    for catalog, text in [
        (XY_CATALOG, _rows_text(untimed)),
        (XY_CATALOG, _rows_text(reversed_keys)),
        (XY_CATALOG, _rows_text(rows).replace("\n", "\r\n")),
        (AttributeCatalog((AttributeSpec("x", "category"),)), _rows_text(x_only)),
    ]:
        path.write_text(text, encoding="utf-8")
        assert load_observations(path, catalog).observations == (
            reference.load_observations(path, catalog))
        assert calls == []
    # An integral float seq is accepted, but only the checked source says so.
    for row in rows:
        row["seq"] -= 2**63
    rows[4]["seq"] = 3.0
    path.write_text(_rows_text(rows), encoding="utf-8")
    suspect = load_observations(path, XY_CATALOG)
    assert len(calls) == 1
    assert suspect.observations == reference.load_observations(path, XY_CATALOG)


# Windows up to past the 24 browsers an instance holds at most; the reference
# builds one list per window, so the bound stays small.
@SETTINGS
@given(instances(), st.integers(1, 30), st.integers(0, 3), st.integers(0, 5))
def test_calibration_matches_reference(instance, windows, seed, negative_cap):
    dataset, _ = instance
    args = dataset, windows
    kwargs = {"seed": seed, "negative_cap": negative_cap}
    assert _outcome(calibrate_thresholds, *args, **kwargs) == _outcome(
        reference.calibrate_thresholds, *args, **kwargs
    )


@pytest.mark.parametrize("browsers, windows", [
    pytest.param(browsers, windows,
                 id=f"{browsers}" if windows == 1 else f"{browsers}-{windows}-windows")
    for windows in (1, 3) for browsers in (21, 22, 67)
])
def test_calibration_matches_reference_on_both_sample_paths(browsers, windows):
    """``random.sample`` picks two of at most 21 browsers from a pool and
    of more from a set; ``instances()`` rarely reaches the set path, which
    windows of the benchmark's size take. Three windows of 67 browsers hold
    22 or 23 each, and three of 21 or 22 hold 7 or 8, each with its own
    draw table."""
    config = SynthConfig(browsers, 3, (
        SynthAttribute("ua", cardinality=9, change_prob=0.4, kind="text"),
        SynthAttribute("width", cardinality=6, change_prob=0.3, kind="number"),
        SynthAttribute("tz", cardinality=4, change_prob=0.2),
    ))
    dataset = synthesize(config, seed=browsers)
    kwargs = {"seed": 5, "negative_cap": 50}
    assert calibrate_thresholds(dataset, windows, **kwargs) == (
        reference.calibrate_thresholds(dataset, windows, **kwargs))


@pytest.mark.parametrize("n", [*range(2, 71), 127, 128, 129, 1000])
def test_negative_rows_are_the_stdlib_draws(n):
    """The rows ``rng.sample(browsers, 2)`` and two ``rng.choice`` calls
    pick, and the generator's state after them: a change to either in the
    standard library shows here. Reading 1, 7 or 200 pairs leaves the
    generator where as many rounds of those calls do, on the pool path
    (n <= 21) and the set path alike, so ``islice`` never pulls an extra
    pair and an attribute that stops early draws a prefix of the stream."""
    shapes = random.Random(n)
    for w, step in ((0, 1), (n % 3, 3)):
        browsers = range(w, w + step * n, step)
        members = [[shapes.randrange(10**6) for _ in range(shapes.randint(1, 5))]
                   for _ in range(browsers[-1] + 1)]
        table = _draw_table(members[b] for b in browsers)
        for count in (1, 7, 200):
            fast, stdlib = random.Random(n + w), random.Random(n + w)
            rows = []
            for _ in range(count):
                first, second = stdlib.sample(browsers, 2)
                rows.append((stdlib.choice(members[first]),
                             stdlib.choice(members[second])))
            assert list(itertools.islice(_negative_rows(fast, table), count)) == rows
            assert fast.getstate() == stdlib.getstate()


# Distances as the measures give them: non-negative and often tied, up to
# the infinity an absolute difference of two huge numbers overflows to.
DISTANCES = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
                     | st.floats(min_value=0, allow_nan=False), min_size=1, max_size=30)


@SETTINGS
@given(DISTANCES, DISTANCES)
def test_max_margin_threshold_matches_reference(positives, negatives):
    assert max_margin_threshold(positives, negatives) == (
        reference.max_margin_threshold(positives, negatives))


ZERO_ONE = st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=30)


@SETTINGS
@given(ZERO_ONE, ZERO_ONE)
@example([0.0], [0.0])
@example([0.0, 0.0], [1.0, 1.0, 1.0])
@example([1.0, 1.0], [0.0, 0.0])
@example([1.0], [1.0])
@example([1.0, 1.0, 1.0], [1.0, 1.0])
@example([1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0])
def test_kronecker_threshold_is_the_max_margin_threshold(positives, negatives):
    """Category and dynamic distances are 0 or 1, and two counts give their
    separator: 0.0 when no distance is 1, else 0.5 when at most as many
    positives as negatives are 1, else 1.0. The negatives are read only up
    to the ``max(changed, 1)``-th that is 1, after which 0.5 is sure."""
    expected = max_margin_threshold(positives, negatives)
    assert expected == reference.max_margin_threshold(positives, negatives)
    changed = positives.count(1.0)
    differs = iter([d == 1.0 for d in negatives])
    assert _kronecker_threshold(changed, differs) == expected
    read = len(negatives) - len(list(differs))
    assert negatives[:read].count(1.0) == min(negatives.count(1.0), max(changed, 1))
    assert read == len(negatives) or negatives[read - 1] == 1.0


# Characters from the three ranges a string can hold: ASCII, the rest of
# the basic plane, and the astral planes.
CHARACTERS = (
    st.characters(max_codepoint=0x7F)
    | st.characters(min_codepoint=0x80, max_codepoint=0xFFFF)
    | st.characters(min_codepoint=0x10000)
)


@st.composite
def text_pairs(draw):
    """Two strings of 0 to 80 characters: past 64, a fixed-width bit-vector
    kernel would need a second machine word.

    A small alphabet makes matches common. The length is drawn first, as
    ``st.text`` alone rarely draws long strings. The pair is independent,
    equal, sharing a long prefix or suffix or both, one side empty, or very
    unequal in length. Half the pairs that share both affixes use one
    character, so that the shorter string's common prefix and common suffix
    overlap, as in "aa" and "aaa".
    """
    alphabet = draw(st.lists(CHARACTERS, min_size=1, max_size=6, unique=True))
    shape = draw(st.sampled_from(["independent", "equal", "prefix", "suffix",
                                  "affix", "empty", "unequal"]))
    if shape == "affix" and draw(st.booleans()):
        alphabet = alphabet[:1]

    def text(low, high):
        size = draw(st.integers(low, high))
        return draw(st.text(alphabet=alphabet, min_size=size, max_size=size))

    if shape == "prefix":
        x = text(48, 80)
        y = x[: draw(st.integers(len(x) - 8, len(x)))] + text(0, 8)
    elif shape == "suffix":
        x = text(48, 80)
        y = text(0, 8) + x[draw(st.integers(0, 8)) :]
    elif shape == "affix":
        prefix, suffix = text(0, 36), text(0, 36)
        x, y = prefix + text(0, 8) + suffix, prefix + text(0, 8) + suffix
    elif shape == "unequal":
        x, y = text(56, 80), text(0, 4)
    else:
        x = text(0, 80)
        y = {"independent": text(0, 80), "equal": x, "empty": ""}[shape]
    return (y, x) if draw(st.booleans()) else (x, y)


@settings(max_examples=300, deadline=None)
@given(text_pairs())
def test_edit_distance_matches_the_table(pair):
    x, y = pair
    assert edit_distance(x, y) == reference.edit_distance(x, y)


@pytest.mark.parametrize("browsers", [21, 22, 67])
def test_exact_match_calibration_counts_unequal_codes(browsers):
    """Category and dynamic thresholds come from counts of unequal codes
    over a prefix of the draws, and must be the reference's, which compares
    values over every draw. The values differ only by a NUL or by case.
    ``same`` never changes (0.0); ``flip`` changes at every step between two
    values (1.0); ``rare`` changes in one browser of seven and ``kept``
    never within a browser (0.5, after as many unequal draws as changes,
    or one). Two windows of 21 browsers draw from a pool, of more from a
    set."""
    values = ("", "A", "a", "a\x00", "é")
    catalog = AttributeCatalog((
        AttributeSpec("flip", "dynamic"), AttributeSpec("kept", "dynamic"),
        AttributeSpec("rare", "category"), AttributeSpec("same", "category"),
    ))
    dataset = Dataset(catalog, tuple(
        Observation(f"b{i:03d}", seq, {
            "flip": values[1 + (i + seq) % 2], "kept": values[i % 5],
            "rare": values[(i + (seq == 2 and i % 7 == 0)) % 5], "same": "a\x00",
        }, {})
        for i in range(2 * browsers) for seq in range(3)))
    got = calibrate_thresholds(dataset, 2, seed=browsers)
    assert got == reference.calibrate_thresholds(dataset, 2, seed=browsers)
    assert got.window_thresholds == {"flip": (1.0, 1.0), "kept": (0.5, 0.5),
                                     "rare": (0.5, 0.5), "same": (0.0, 0.0)}


def _wide_rows():
    # Seven columns of about 3,000 distinct values each: their mixed-radix
    # product passes 2**62 after the fifth, so the keys are renumbered on
    # the way. The last 300 rows repeat the first 300.
    rng = random.Random(5)
    rows = [tuple(str(rng.randrange(10**6)) for _ in range(7)) for _ in range(3000)]
    return rows + rows[:300]


def test_group_keys_renumber_before_overflow():
    # The keys must still sort and compare like the value tuples.
    rows = _wide_rows()
    coded = encode_rows(rows, 7)
    assert np.prod([len(c) for c in coded.lookup], dtype=float) > 2.0**62
    keys = coded.group_keys(range(7))
    order = np.argsort(keys, kind="stable").tolist()
    assert [rows[i] for i in order] == sorted(rows)
    assert len(set(keys.tolist())) == len(set(rows))


def test_renumbered_keys_count_like_the_reference():
    """Entropy and count-path reach over keys renumbered on the way agree
    with the reference, twice over, and leave the stored codes as they were."""
    catalog = AttributeCatalog(tuple(AttributeSpec(f"c{j}", "category")
                                     for j in range(7)))
    dataset = Dataset(catalog, tuple(
        Observation(f"u{i}", 0, dict(zip(catalog.names, row)), {})
        for i, row in enumerate(_wide_rows())))
    stored = dataset.stored_codes.matrix.copy()
    names, mapping = catalog.names, dataset.user_mapping
    entropy = reference.joint_entropy_bits(dataset, names)
    for beta in (1, 4, sys.maxsize + 1):
        attacker = population_attacker(dataset, beta)
        share = len(reference.impersonated_users(names, attacker, mapping, catalog))
        for _ in range(2):
            assert joint_entropy_bits(dataset, names) == entropy
            assert SENSITIVITY.impersonated_share(names, attacker, dataset) == (
                share / len(mapping))
    assert np.array_equal(dataset.stored_codes.matrix, stored)


def test_product_masses_are_running_sums():
    # Uniform over {p, q} x {x, y, z}: the empty set's one group adds six
    # weights of 1/6, which one by one make 0.9999999999999999, not the
    # 1.0 of 6 * (1/6). Value order breaks the ties among equal masses.
    entries = tuple(((a, b), 1 / 6) for b in "zyx" for a in "qp")
    attacker = AttackerInstance(Pmf(("a", "b"), entries), beta=2, knowledge="file")
    assert attacker.pmf.uniform_product == ([["p", "q"], ["x", "y", "z"]], 1 / 6)
    assert build_dictionary(attacker, ()).probabilities == (0.9999999999999999,)
    assert build_dictionary(attacker, ("b",)).entries == (("x",), ("y",))
    for attrs in ((), ("b",), ("a", "b"), ("b", "a", "b")):
        assert build_dictionary(attacker, attrs) == reference.build_dictionary(
            attacker, attrs
        )
    assert "coded" not in vars(attacker.pmf)


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
