"""The dictionary attacker, impersonation measure, and its boundaries."""

from __future__ import annotations

import importlib
import itertools
import json
import random
import tracemalloc

import pytest

from fpselect import (
    AttributeCatalog,
    AttributeSpec,
    ConfigError,
    Dataset,
    Observation,
    Pmf,
    SchemaError,
    SelectionConfig,
    attacker_from_file,
    build_dictionary,
    impersonated_users,
    pmf,
    population_attacker,
    select_exhaustive,
    select_greedy,
    sensitivity,
    uniform_attacker,
)
from fpselect.sensitivity import (
    AttackerInstance,
    impersonated_mask,
    impersonated_share,
    non_monotone_reason,
)
from fpselect.synth import SynthAttribute, SynthConfig, synthesize

import reference
from conftest import TABLE1_ATTRS, TABLE1_ROWS, make_dataset, table1_dataset


# ---------------------------------------------------------------------------
# Naive reference implementation, kept deliberately independent: it works
# on raw dicts, re-derives the dictionary by sorting the collapsed mass,
# and compares every (user, guess) pair with its own matchers.
# ---------------------------------------------------------------------------


def naive_match(spec: AttributeSpec, stored: str, guess: str) -> bool:
    if spec.kind == "category" or spec.kind == "dynamic":
        return stored == guess
    if spec.kind == "number":
        return abs(float(stored) - float(guess)) <= spec.match_threshold
    raise NotImplementedError(spec.kind)


def naive_sensitivity(
    attrs: tuple[str, ...],
    all_attrs: tuple[str, ...],
    attacker_entries: list[tuple[tuple[str, ...], float]],
    beta: int,
    mapping: dict[str, tuple[str, ...]],
    specs: dict[str, AttributeSpec],
) -> float:
    keep = [i for i, a in enumerate(all_attrs) if a in set(attrs)]
    collapsed: dict[tuple[str, ...], float] = {}
    for values, p in attacker_entries:
        key = tuple(values[i] for i in keep)
        collapsed[key] = collapsed.get(key, 0.0) + p
    guesses = [
        k for k, _ in sorted(collapsed.items(), key=lambda kv: (-kv[1], kv[0]))
    ][:beta]
    ordered_attrs = [all_attrs[i] for i in keep]
    hit = 0
    for stored_full in mapping.values():
        stored = tuple(stored_full[i] for i in keep)
        for guess in guesses:
            if all(
                naive_match(specs[a], s, g)
                for a, s, g in zip(ordered_attrs, stored, guess)
            ):
                hit += 1
                break
    return hit / len(mapping)


class TestWorkedExample:
    def test_constant_attribute_exposes_everyone(self, dataset):
        attacker = population_attacker(dataset, beta=1)
        assert sensitivity(
            ("CookieEnabled",), attacker, dataset.user_mapping, dataset.catalog
        ) == 1.0

    def test_unique_pair_reduces_reach_to_one_sixth(self, dataset):
        attacker = population_attacker(dataset, beta=1)
        assert sensitivity(
            ("Language", "Screen"), attacker, dataset.user_mapping, dataset.catalog
        ) == pytest.approx(1 / 6)

    def test_correlated_attribute_adds_nothing(self, dataset):
        attacker = population_attacker(dataset, beta=1)
        alone = sensitivity(
            ("Language",), attacker, dataset.user_mapping, dataset.catalog
        )
        with_timezone = sensitivity(
            ("Language", "Timezone"), attacker, dataset.user_mapping,
            dataset.catalog,
        )
        assert alone == with_timezone

    def test_empty_set_exposes_everyone(self, dataset):
        attacker = population_attacker(dataset, beta=3)
        assert sensitivity((), attacker, dataset.user_mapping, dataset.catalog) == 1.0


class TestBuildDictionary:
    def test_language_budget_two_breaks_ties_lexicographically(self, dataset):
        attacker = population_attacker(dataset, beta=2)
        d = build_dictionary(attacker, ("Language",))
        assert d.entries == (("en",), ("fr",))

    def test_constant_attribute_single_guess(self, dataset):
        attacker = population_attacker(dataset, beta=1)
        d = build_dictionary(attacker, ("CookieEnabled",))
        assert d.entries == (("True",),)

    def test_budget_beyond_support_returns_everything(self, dataset):
        attacker = population_attacker(dataset, beta=50)
        d = build_dictionary(attacker, ("Language",))
        assert d.entries == (("en",), ("fr",), ("it",), ("sp",))
        assert sum(d.probabilities) == pytest.approx(1.0)

    def test_budget_prefixes_are_stable(self, dataset):
        previous: tuple = ()
        for beta in range(1, 8):
            attacker = population_attacker(dataset, beta=beta)
            entries = build_dictionary(attacker, ("Language", "Screen")).entries
            assert entries[: len(previous)] == previous
            previous = entries

    def test_unknown_attribute_rejected(self, dataset):
        attacker = population_attacker(dataset, beta=1)
        with pytest.raises((ConfigError, SchemaError)):
            build_dictionary(attacker, ("Ghost",))

    def test_a_file_uniform_over_a_full_product_keeps_its_own_mass(self):
        """A PMF file over a full product takes the product branch, whose
        mass is the file's ``p`` summed per group, not ``1 / 3``."""
        p = 0.33333333333
        assert p != 1 / 3
        entries = tuple(((v, "k"), p) for v in ("x", "y", "z"))
        for beta in (1, 2, 3, 4):
            attacker = AttackerInstance(Pmf(("a", "b"), entries), beta, "file")
            assert attacker.pmf.uniform_product == ([["x", "y", "z"], ["k"]], p)
            for attrs in ((), ("a",), ("b",), ("a", "b")):
                assert build_dictionary(attacker, attrs) == (
                    reference.build_dictionary(attacker, attrs))
            assert build_dictionary(attacker, ("a",)).probabilities[0] == p
            assert "coded" not in vars(attacker.pmf)


class TestImpersonatedUsers:
    def test_timezone_majority_value(self, dataset):
        attacker = population_attacker(dataset, beta=1)
        got = impersonated_users(
            ("Timezone",), attacker, dataset.user_mapping, dataset.catalog
        )
        assert got == {"u1", "u2", "u5", "u6"}

    def test_disjoint_knowledge_reaches_nobody(self, dataset):
        names = dataset.catalog.names
        foreign = Pmf(names, ((("False", "de", "9999", "+9"), 1.0),))
        attacker = AttackerInstance(pmf=foreign, beta=1, knowledge="file")
        got = impersonated_users(
            names, attacker, dataset.user_mapping, dataset.catalog
        )
        assert got == set()

    def test_full_support_budget_reaches_everyone(self, dataset):
        support = len(pmf(dataset, dataset.catalog.names).entries)
        attacker = population_attacker(dataset, beta=support)
        got = impersonated_users(
            dataset.catalog.names, attacker, dataset.user_mapping, dataset.catalog
        )
        assert got == set(dataset.user_mapping)

    def test_short_stored_fingerprint_rejected(self, dataset):
        attacker = population_attacker(dataset, beta=1)
        mapping = {**dataset.user_mapping, "u2": dataset.user_mapping["u2"][:3]}
        with pytest.raises(ValueError, match="^value tuple has 3 entries for 4 "):
            impersonated_users(("Language",), attacker, mapping, dataset.catalog)

    def test_empty_population_rejected(self, dataset):
        attacker = population_attacker(dataset, beta=1)
        with pytest.raises(ConfigError, match="empty user population"):
            impersonated_users(("Language",), attacker, {}, dataset.catalog)


class TestBruteForceEquivalence:
    def random_instance(self, rng: random.Random):
        n_attrs = rng.randint(1, 5)
        specs = []
        for i in range(n_attrs):
            if rng.random() < 0.3:
                specs.append(
                    AttributeSpec(
                        f"n{i}", "number", match_threshold=rng.choice([0, 1, 3])
                    )
                )
            else:
                specs.append(AttributeSpec(f"c{i}", "category"))
        catalog = AttributeCatalog(tuple(specs))
        users = rng.randint(2, 50)
        observations = []
        for u in range(users):
            values = {}
            for s in catalog.attributes:
                if s.kind == "number":
                    values[s.name] = str(rng.randint(0, 6))
                else:
                    values[s.name] = rng.choice(["red", "green", "blue", "teal"])
            observations.append(Observation(f"u{u}", 0, values, {}))
        return Dataset(catalog, tuple(observations))

    def test_matches_naive_enumeration(self):
        rng = random.Random(1918)
        for _ in range(60):
            ds = self.random_instance(rng)
            beta = rng.randint(1, 6)
            attacker = population_attacker(ds, beta=beta)
            names = ds.catalog.names
            subset = tuple(
                n for n in names if rng.random() < 0.6
            ) or (names[0],)
            expected = naive_sensitivity(
                subset,
                names,
                list(attacker.pmf.entries),
                beta,
                ds.user_mapping,
                {s.name: s for s in ds.catalog.attributes},
            )
            got = sensitivity(subset, attacker, ds.user_mapping, ds.catalog)
            assert got == pytest.approx(expected)


def synth_instance(rng: random.Random, max_attrs: int = 8):
    attributes = []
    n = rng.randint(2, max_attrs)
    for i in range(n):
        attributes.append(
            SynthAttribute(
                f"a{i:02d}",
                cardinality=rng.randint(2, 5),
                zipf_skew=rng.uniform(0.0, 1.5),
                change_prob=rng.uniform(0.0, 0.3),
                value_bytes=rng.randint(1, 5),
            )
        )
    config = SynthConfig(
        browsers=rng.randint(5, 25),
        observations_per_browser=rng.randint(2, 3),
        attributes=tuple(attributes),
    )
    return synthesize(config, seed=rng.randint(0, 10_000))


class TestMonotonicity:
    def test_reach_shrinks_with_more_attributes(self):
        rng = random.Random(7)
        for _ in range(100):
            ds = synth_instance(rng)
            names = ds.catalog.names
            attacker = population_attacker(ds, beta=rng.randint(1, 5))
            larger = tuple(n for n in names if rng.random() < 0.7) or names[:1]
            smaller = tuple(n for n in larger if rng.random() < 0.5)
            s_small = sensitivity(smaller, attacker, ds.user_mapping, ds.catalog)
            s_large = sensitivity(larger, attacker, ds.user_mapping, ds.catalog)
            assert s_small >= s_large

    def test_projection_collapse_frees_budget_slots(self, dataset):
        # With budget 2, the pair's dictionary spends both guesses on
        # distinct full tuples that collapse to one marginal value; the
        # marginal dictionary uses the freed slot on a second value and
        # reaches strictly more users.
        attacker = population_attacker(dataset, beta=2)
        joint = build_dictionary(attacker, ("Language", "Screen"))
        marginal = build_dictionary(attacker, ("Language",))
        collapsed = {values[:1] for values in joint.entries}
        assert len(collapsed) == 1
        assert len(set(marginal.entries)) == 2
        s_pair = sensitivity(
            ("Language", "Screen"), attacker, dataset.user_mapping, dataset.catalog
        )
        s_lang = sensitivity(
            ("Language",), attacker, dataset.user_mapping, dataset.catalog
        )
        assert s_lang > s_pair

    def test_reach_grows_with_budget(self):
        rng = random.Random(99)
        for _ in range(40):
            ds = synth_instance(rng)
            names = ds.catalog.names
            subset = tuple(n for n in names if rng.random() < 0.6) or names[:1]
            previous = 0.0
            for beta in (1, 2, 4, 8):
                attacker = population_attacker(ds, beta=beta)
                val = sensitivity(subset, attacker, ds.user_mapping, ds.catalog)
                assert val >= previous
                previous = val

    def test_full_set_is_the_minimum(self):
        rng = random.Random(3)
        import itertools

        for _ in range(10):
            ds = synth_instance(rng, max_attrs=4)
            attacker = population_attacker(ds, beta=2)
            names = ds.catalog.names
            full = sensitivity(names, attacker, ds.user_mapping, ds.catalog)
            for r in range(len(names) + 1):
                for combo in itertools.combinations(names, r):
                    assert (
                        sensitivity(combo, attacker, ds.user_mapping, ds.catalog)
                        >= full
                    )

    def test_tolerant_matching_can_invert_monotonicity(self):
        # Boundary of the theorem: the budgeted dictionary maximizes
        # probability mass, not matching reach. With a tolerant numeric
        # matcher, the most probable marginal value can match fewer users
        # than a less probable one, so a superset may expose MORE users.
        # Documented here as expected behavior of the measure as defined.
        specs = (
            AttributeSpec("b", "category"),
            AttributeSpec("n", "number", match_threshold=100),
        )
        rows = []
        for i in range(4):
            rows.append((f"p{i}", 0, {"b": f"p{i}", "n": "0"}))
        for i in range(3):
            rows.append((f"q{i}", 0, {"b": "k", "n": "1000"}))
        for i in range(3):
            rows.append((f"r{i}", 0, {"b": "k", "n": "1100"}))
        ds = make_dataset(specs, rows)
        attacker = population_attacker(ds, beta=1)
        s_single = sensitivity(("n",), attacker, ds.user_mapping, ds.catalog)
        s_pair = sensitivity(("b", "n"), attacker, ds.user_mapping, ds.catalog)
        assert s_single == pytest.approx(0.4)  # guesses "0", reaches 4 of 10
        assert s_pair == pytest.approx(0.6)  # guesses ("k","1000"), reaches 6
        assert non_monotone_reason(attacker, ds) == "n match tolerantly"


class TestUniformAttacker:
    def test_support_is_the_domain_product(self, dataset):
        attacker = uniform_attacker(dataset, beta=1)
        # 1 cookie value, 4 languages, 2 screens, 3 timezones
        assert len(attacker.pmf.entries) == 1 * 4 * 2 * 3
        for _, p in attacker.pmf.entries:
            assert p == pytest.approx(1 / 24)

    def test_oversized_support_rejected(self):
        config = SynthConfig(
            browsers=40,
            observations_per_browser=1,
            attributes=tuple(
                SynthAttribute(f"a{i}", cardinality=12, zipf_skew=0.0)
                for i in range(8)
            ),
        )
        ds = synthesize(config, seed=1)
        with pytest.raises(ConfigError, match="support exceeds"):
            uniform_attacker(ds, beta=1, max_support=10_000)

    def test_lexicographically_first_guesses(self, dataset):
        attacker = uniform_attacker(dataset, beta=2)
        d = build_dictionary(attacker, ("Language",))
        assert d.entries == (("en",), ("fr",))

    def test_a_support_equal_to_max_support_is_accepted(self, dataset):
        assert uniform_attacker(dataset, beta=1, max_support=24).pmf.uniform_product
        with pytest.raises(ConfigError) as refused:
            uniform_attacker(dataset, beta=1, max_support=23)
        assert str(refused.value) == "uniform attacker support exceeds 23 fingerprints"

    def test_the_measures_never_enumerate_the_product(self):
        """Every measure reads the product's domains and the stored codes,
        never ``pmf.entries``."""
        dataset = table1_dataset(repeats=2)
        attacker = uniform_attacker(dataset, beta=2)
        names = dataset.catalog.names
        for size in range(len(names) + 1):
            for canon in itertools.combinations(names, size):
                impersonated_share(canon, attacker, dataset)
                impersonated_mask(canon, attacker, dataset)
        assert non_monotone_reason(attacker, dataset) is None
        config = SelectionConfig(alpha=0.4, k=2)
        select_greedy(dataset, attacker, config)
        select_exhaustive(dataset, attacker, config)
        assert "entries" not in vars(attacker.pmf)

    def test_a_large_product_is_held_as_its_domains(self):
        # Five columns of 10, 10, 10, 10 and 19 values over 3,000 browsers:
        # a support of 190,000, whose tuples would keep about 26 MB.
        cardinalities = (10, 10, 10, 10, 19)
        names = tuple(f"a{k}" for k in range(len(cardinalities)))
        catalog = AttributeCatalog(tuple(AttributeSpec(n, "category") for n in names))
        dataset = Dataset(catalog, tuple(
            Observation(f"u{i}", 0,
                        {n: str(i % c) for n, c in zip(names, cardinalities)}, {})
            for i in range(3000)))
        dataset.stored_codes  # the dataset's own cost, outside the measurement
        tracemalloc.start()
        try:
            attacker = uniform_attacker(dataset, beta=512)
            dictionary = build_dictionary(attacker, names)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20, kept
        assert len(dictionary.entries) == 512
        assert dictionary.probabilities[0] == 1.0 / 190_000
        assert "entries" not in vars(attacker.pmf)


class TestAttackerFromFile:
    def test_round_trip(self, tmp_path, dataset):
        names = dataset.catalog.names
        source = pmf(dataset, names)
        payload = {
            "attributes": list(names),
            "entries": [
                {"values": list(v), "p": p} for v, p in source.entries
            ],
        }
        path = tmp_path / "pmf.json"
        path.write_text(json.dumps(payload))
        attacker = attacker_from_file(path, dataset.catalog, beta=1)
        assert attacker.pmf == source
        assert attacker.knowledge == "file"

    def test_wrong_attributes_rejected(self, tmp_path, dataset):
        path = tmp_path / "pmf.json"
        path.write_text(
            json.dumps({"attributes": ["Other"], "entries": []})
        )
        with pytest.raises(SchemaError, match="do not match"):
            attacker_from_file(path, dataset.catalog, beta=1)

    def test_bad_total_mass_rejected(self, tmp_path, dataset):
        names = dataset.catalog.names
        payload = {
            "attributes": list(names),
            "entries": [{"values": ["True", "fr", "1080", "-1"], "p": 0.5}],
        }
        path = tmp_path / "pmf.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="sum"):
            attacker_from_file(path, dataset.catalog, beta=1)

    def test_budget_must_be_positive(self, dataset):
        with pytest.raises(ConfigError, match="beta"):
            population_attacker(dataset, beta=0)


class TestReachPath:
    """Which way ``impersonated_share`` counts: the top-beta group counts for
    the dataset's own population PMF, a dictionary for any other attacker."""

    def test_uniform_searches_build_no_population_pmf(self):
        dataset = table1_dataset(repeats=2)
        attacker = uniform_attacker(dataset, beta=2)
        config = SelectionConfig(alpha=0.4, k=2)
        assert not select_exhaustive(dataset, attacker, config).is_no_solution
        assert not select_greedy(dataset, attacker, config).is_no_solution
        assert "population_pmf" not in vars(dataset)

    @pytest.mark.parametrize("beta", [1, 2, 3, 6])
    def test_an_equal_copy_of_the_population_pmf_builds_dictionaries(
        self, monkeypatch, beta
    ):
        dataset = table1_dataset()
        p = dataset.population_pmf
        copy = AttackerInstance(Pmf(p.attrs, p.entries), beta, knowledge="population")
        assert copy.pmf == p and copy.pmf is not p
        own = population_attacker(dataset, beta)
        # The package's ``sensitivity`` is the function, so fetch the module.
        module = importlib.import_module("fpselect.sensitivity")
        built = []
        original = module.build_dictionary

        def counted(attacker, attrs):
            built.append(attacker)
            return original(attacker, attrs)

        monkeypatch.setattr(module, "build_dictionary", counted)
        names = dataset.catalog.names
        for size in range(len(names) + 1):
            for canon in itertools.combinations(names, size):
                share = impersonated_share(canon, own, dataset)
                assert impersonated_share(canon, copy, dataset) == share
        assert len(built) == 2 ** len(names)
        assert all(attacker is copy for attacker in built)


    def test_attackers_over_one_pmf_code_it_once(self, monkeypatch):
        """Two population attackers at different budgets share the dataset's
        PMF, so their dictionaries on a tolerant set code it once."""
        specs = tuple(AttributeSpec(a, "text", match_threshold=1) if a == "Language"
                      else AttributeSpec(a, "category") for a in TABLE1_ATTRS)
        dataset = make_dataset(specs, [(u, 0, dict(zip(TABLE1_ATTRS, values)))
                                       for u, values in TABLE1_ROWS.items()])
        attackers = [population_attacker(dataset, beta) for beta in (1, 3)]
        coded = []
        original = importlib.import_module("fpselect.dataset").encode_rows

        def counted(rows, width):
            coded.append(width)
            return original(rows, width)

        for name in ("fpselect.dataset", "fpselect.sensitivity"):
            monkeypatch.setattr(importlib.import_module(name), "encode_rows", counted)
        canon = dataset.catalog.canonical(("Language", "Screen"))
        for attacker in attackers:
            reached = reference.impersonated_users(
                canon, attacker, dataset.user_mapping, dataset.catalog)
            assert impersonated_share(canon, attacker, dataset) == (
                len(reached) / len(dataset.user_mapping))
        assert coded == [len(TABLE1_ATTRS)]


def test_reach_memory_stays_bounded_whatever_the_budget():
    # 500 users over eight columns whose domains multiply to 2,592 tuples;
    # every one of them is a guess. Comparing all guesses' codes with all
    # users' at once would take 500 x 2,592 x 8 bools, 10.4 MB.
    cardinalities = (2, 2, 2, 3, 3, 3, 3, 4)
    names = tuple(f"a{k}" for k in range(len(cardinalities)))
    catalog = AttributeCatalog(tuple(AttributeSpec(n, "category") for n in names))
    dataset = Dataset(catalog, tuple(
        Observation(f"u{i}", 0, {n: str(i % c) for n, c in zip(names, cardinalities)},
                    {})
        for i in range(500)))
    attacker = uniform_attacker(dataset, beta=10**6)
    support = len(attacker.pmf.entries)
    assert support == 2592
    unblocked = len(dataset.user_mapping) * support * len(names)
    tracemalloc.start()
    try:
        reached = impersonated_mask(names, attacker, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reached.all()
    assert peak < unblocked / 4, (peak, unblocked)
