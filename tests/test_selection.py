"""Greedy lattice search, entropy baselines, exhaustive oracle, evaluation."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpselect.selection
import reference
from fpselect import (
    AttributeSpec,
    ConfigError,
    CostWeights,
    Pmf,
    SelectionConfig,
    attribute_cost_stats,
    efficiency,
    evaluate,
    greedy_lattice_search,
    joint_entropy_bits,
    population_attacker,
    select_cond_entropy_baseline,
    select_entropy_baseline,
    select_exhaustive,
    select_greedy,
    sensitivity,
    total_cost,
    uniform_attacker,
)
from fpselect.sensitivity import AttackerInstance
from fpselect.synth import SynthAttribute, SynthConfig, synthesize

from conftest import make_dataset, table1_dataset


# Reconstructed three-attribute lattice driving the search engine directly.
# Costs rise strictly along the subset order and sensitivities fall, the
# pair {1,2} is the only satisfying two-element set at threshold 0.15, and
# {2,3} costs more than it so the cost bound prunes it.
LATTICE_COST = {
    (): 0.0,
    ("1",): 8.0, ("2",): 12.0, ("3",): 6.0,
    ("1", "2"): 20.0, ("1", "3"): 15.0, ("2", "3"): 21.0,
    ("1", "2", "3"): 30.0,
}
LATTICE_SENS = {
    (): 1.0,
    ("1",): 0.5, ("2",): 0.6, ("3",): 0.45,
    ("1", "2"): 0.10, ("1", "3"): 0.30, ("2", "3"): 0.25,
    ("1", "2", "3"): 0.05,
}


def lattice_measure(subset):
    return LATTICE_COST[subset], LATTICE_SENS[subset]


class TestGreedyEngineTrace:
    def test_worked_execution_trace(self):
        out = greedy_lattice_search(["1", "2", "3"], lattice_measure,
                                    alpha=0.15, k=2)
        assert out.chosen == ("1", "2")
        assert out.chosen_cost == 20.0
        assert len(out.trace) == 3

        one, two, three = out.trace
        assert set(one.expanded) == {("1",), ("2",), ("3",)}
        assert one.satisfying == ()
        assert set(one.frontier) == {("1",), ("3",)}

        assert set(two.expanded) == {("1", "2"), ("1", "3"), ("2", "3")}
        assert two.satisfying == (("1", "2"),)
        assert two.frontier == (("1", "3"),)
        assert two.pruned == (("2", "3"),)
        assert two.best_satisfying_cost == 20.0

        assert three.expanded == ()
        assert three.satisfying == (("1", "2"),)
        assert three.frontier == ()

    def test_superset_of_satisfying_set_never_expanded(self):
        out = greedy_lattice_search(["1", "2", "3"], lattice_measure,
                                    alpha=0.15, k=2)
        explored = {s for state in out.trace for s in state.expanded}
        assert ("1", "2", "3") not in explored

    def test_no_solution_when_even_everything_is_too_sensitive(self):
        out = greedy_lattice_search(["1", "2", "3"], lattice_measure,
                                    alpha=0.01, k=2)
        assert out.chosen is None
        assert out.candidate_sensitivity == 0.05
        assert out.trace == ()
        assert out.explored_count == 1  # only the full set was measured

    def test_a_path_count_past_the_lattice_costs_no_more(self):
        # Every frontier of three attributes fits in 2**3 paths, so a million
        # paths keep the same sets and measure each of them once.
        runs = []
        for k in (2**3, 10**6):
            measured = []

            def measure(subset):
                measured.append(subset)
                return lattice_measure(subset)

            outcome = greedy_lattice_search(["1", "2", "3"], measure, alpha=0.15, k=k)
            runs.append((outcome, len(measured)))
        assert runs[0] == runs[1]

    def test_threaded_measurement_is_deterministic(self):
        single = greedy_lattice_search(["1", "2", "3"], lattice_measure,
                                       alpha=0.15, k=2, max_workers=1)
        pooled = greedy_lattice_search(["1", "2", "3"], lattice_measure,
                                       alpha=0.15, k=2, max_workers=4)
        assert single == pooled


class TestEfficiency:
    def flat_dataset(self):
        # Constant values across two observations: zero time, zero churn,
        # so the point total is exactly the byte count.
        specs = (AttributeSpec("wide", "text"), AttributeSpec("huge", "text"))
        rows = [
            ("b1", 0, {"wide": "x" * 40, "huge": "y" * 60}),
            ("b1", 1, {"wide": "x" * 40, "huge": "y" * 60}),
        ]
        return make_dataset(specs, rows)

    def test_ratio_of_cost_reduction_to_sensitivity(self):
        ds = self.flat_dataset()
        weights = CostWeights(1, 10, 10_000)
        assert total_cost(ds.catalog.names, ds, weights).total_points == 100.0
        assert efficiency(("wide",), ds, weights, 0.5) == pytest.approx(120.0)

    def test_full_set_has_zero_efficiency(self):
        ds = self.flat_dataset()
        weights = CostWeights(1, 10, 10_000)
        assert efficiency(ds.catalog.names, ds, weights, 0.4) == 0.0

    def test_zero_sensitivity_ranks_highest(self):
        ds = self.flat_dataset()
        assert efficiency(("wide",), ds, CostWeights(), 0.0) == math.inf


class TestSelectGreedy:
    def test_trivial_threshold_keeps_any_feasible_set(self, dataset_with_pairs):
        attacker = population_attacker(dataset_with_pairs, beta=1)
        config = SelectionConfig(alpha=1.0, k=1)
        result = select_greedy(dataset_with_pairs, attacker, config)
        assert not result.is_no_solution
        assert result.sensitivity <= 1.0
        assert result.chosen == ()  # the empty set reaches everyone, as alpha 1 allows

    def test_finds_the_known_optimum_on_the_worked_example(
        self, dataset_with_pairs
    ):
        attacker = population_attacker(dataset_with_pairs, beta=1)
        config = SelectionConfig(alpha=0.2, k=1, weights=CostWeights(1, 10, 10_000))
        result = select_greedy(dataset_with_pairs, attacker, config)
        assert result.chosen == ("Language", "Screen")
        assert result.breakdown.total_points == pytest.approx(6.0)
        oracle = select_exhaustive(dataset_with_pairs, attacker, config)
        assert oracle.chosen == result.chosen

    def test_explored_sets_never_exceed_the_bound(self):
        rng = random.Random(5)
        for _ in range(20):
            ds = random_synth(rng, max_attrs=8)
            attacker = population_attacker(ds, beta=rng.randint(1, 4))
            k = rng.randint(1, 3)
            config = SelectionConfig(alpha=rng.uniform(0.05, 0.9), k=k)
            result = select_greedy(ds, attacker, config)
            n = len(ds.catalog.names)
            assert result.explored_count <= k * n * n

    def test_pruning_is_sound_at_expansion_time(self):
        rng = random.Random(6)
        for _ in range(15):
            ds = random_synth(rng, max_attrs=6)
            attacker = population_attacker(ds, beta=2)
            config = SelectionConfig(alpha=rng.uniform(0.1, 0.6), k=2)
            result = select_greedy(ds, attacker, config)
            blocked: set[tuple] = set()
            for state in result.trace:
                for grown in state.expanded:
                    members = set(grown)
                    assert not any(
                        members.issuperset(b) and members != set(b)
                        for b in blocked
                    ), "expanded a superset of a closed set"
                blocked = set(state.satisfying) | set(state.pruned)

    def test_worker_count_does_not_change_the_result(self):
        ds = random_synth(random.Random(11), max_attrs=7)
        attacker = population_attacker(ds, beta=2)
        config = SelectionConfig(alpha=0.3, k=3)
        results = {
            workers: select_greedy(ds, attacker, config, max_workers=workers)
            for workers in (1, 2, 8)
        }
        assert results[1] == results[2] == results[8]


def random_synth(rng: random.Random, max_attrs: int = 8, min_attrs: int = 2):
    attributes = []
    for i in range(rng.randint(min_attrs, max_attrs)):
        attributes.append(
            SynthAttribute(
                f"a{i:02d}",
                cardinality=rng.randint(2, 5),
                zipf_skew=rng.uniform(0.0, 1.5),
                change_prob=rng.uniform(0.0, 0.25),
                value_bytes=rng.randint(1, 6),
                mean_collect_ms=rng.choice([0.0, 0.0, 2.0, 15.0]),
                is_async=rng.random() < 0.2,
            )
        )
    config = SynthConfig(
        browsers=rng.randint(6, 22),
        observations_per_browser=rng.randint(2, 3),
        attributes=tuple(attributes),
    )
    return synthesize(config, seed=rng.randint(0, 99_999))


class TestEntropyBaseline:
    def test_constant_attribute_has_zero_entropy(self, dataset):
        assert joint_entropy_bits(dataset, ("CookieEnabled",)) == 0.0

    def test_language_entropy(self, dataset):
        expected = -(
            2 * (2 / 6) * math.log2(2 / 6) + 2 * (1 / 6) * math.log2(1 / 6)
        )
        assert joint_entropy_bits(dataset, ("Language",)) == pytest.approx(expected)

    def test_worked_example_walk(self, dataset_with_pairs):
        ds = dataset_with_pairs
        attacker = population_attacker(ds, beta=1)
        config = SelectionConfig(alpha=0.2, k=1, weights=CostWeights(1, 10, 10_000))
        result = select_entropy_baseline(ds, attacker, config)
        assert not result.is_no_solution
        assert result.sensitivity <= 0.2
        # Ranked by entropy the walk needs three attributes: Language alone
        # and with the correlated Timezone both leave shared fingerprints.
        ranked = sorted(
            ds.catalog.names,
            key=lambda a: (-joint_entropy_bits(ds, (a,)), a),
        )
        assert set(result.chosen) == set(ranked[:3])
        assert sensitivity(
            ranked[:2], attacker, ds.user_mapping, ds.catalog
        ) > 0.2

    def test_infeasible_threshold_reports_no_solution(self, dataset_with_pairs):
        attacker = population_attacker(dataset_with_pairs, beta=1)
        config = SelectionConfig(alpha=0.01, k=1)
        result = select_entropy_baseline(dataset_with_pairs, attacker, config)
        assert result.is_no_solution
        assert result.candidate_sensitivity == pytest.approx(1 / 6)


class TestConditionalEntropyBaseline:
    def test_correlated_attribute_is_skipped(self, dataset_with_pairs):
        # Timezone is fully determined by Language, so once Language is in,
        # Screen wins the second round and the walk stops at two attributes.
        ds = dataset_with_pairs
        attacker = population_attacker(ds, beta=1)
        config = SelectionConfig(alpha=0.2, k=1, weights=CostWeights(1, 10, 10_000))
        result = select_cond_entropy_baseline(ds, attacker, config)
        assert result.chosen == ("Language", "Screen")
        assert joint_entropy_bits(ds, ("Language", "Timezone")) == pytest.approx(
            joint_entropy_bits(ds, ("Language",))
        )

    def test_first_pick_equals_plain_entropy_argmax(self, dataset_with_pairs):
        ds = dataset_with_pairs
        ranked = sorted(
            ds.catalog.names,
            key=lambda a: (-joint_entropy_bits(ds, (a,)), a),
        )
        attacker = population_attacker(ds, beta=1)
        config = SelectionConfig(alpha=0.2, k=1)
        result = select_cond_entropy_baseline(ds, attacker, config)
        assert result.chosen[0] in result.chosen  # canonical order, so check set
        assert ranked[0] in result.chosen

    def test_synthetic_copy_never_selected_before_informative_attributes(self):
        config = SynthConfig(
            browsers=40,
            observations_per_browser=2,
            attributes=(
                SynthAttribute("a1src", cardinality=8, zipf_skew=0.4,
                               change_prob=0.05, value_bytes=4),
                SynthAttribute("a2cpy", copy_of="a1src", value_bytes=6),
                SynthAttribute("b1", cardinality=5, zipf_skew=0.8,
                               change_prob=0.05, value_bytes=3),
                SynthAttribute("c1", cardinality=4, zipf_skew=1.0,
                               change_prob=0.0, value_bytes=2),
            ),
        )
        ds = synthesize(config, seed=21)
        attacker = population_attacker(ds, beta=1)
        selection = SelectionConfig(alpha=0.1, k=1)
        result = select_cond_entropy_baseline(ds, attacker, selection)
        assert not result.is_no_solution
        if "a2cpy" in result.chosen:
            # Only acceptable once every uncorrelated attribute is used up.
            assert set(result.chosen) == set(ds.catalog.names)

    def test_explores_fewer_sets_than_plain_entropy_on_correlated_fixture(self):
        config = SynthConfig(
            browsers=40,
            observations_per_browser=2,
            attributes=(
                SynthAttribute("a1src", cardinality=8, zipf_skew=0.4,
                               change_prob=0.05, value_bytes=4),
                SynthAttribute("a2cpy", copy_of="a1src", value_bytes=6),
                SynthAttribute("b1", cardinality=5, zipf_skew=0.8,
                               change_prob=0.05, value_bytes=3),
                SynthAttribute("c1", cardinality=4, zipf_skew=1.0,
                               change_prob=0.0, value_bytes=2),
            ),
        )
        ds = synthesize(config, seed=21)
        attacker = population_attacker(ds, beta=1)
        selection = SelectionConfig(alpha=0.1, k=1)
        entropy = select_entropy_baseline(ds, attacker, selection)
        conditional = select_cond_entropy_baseline(ds, attacker, selection)
        assert "a2cpy" in entropy.chosen  # ties with its source on entropy
        assert "a2cpy" not in conditional.chosen
        assert conditional.explored_count < entropy.explored_count


def _non_monotone_example():
    """Three users hold a = 0 and seven a = 1, b = 0, each seen twice. At
    beta 1 the file attacker's guess on {a} is a = 0 (mass 0.6), which reaches
    3 users, on {b} b = 0 (mass 0.6), which reaches 8, and on {a, b} (1, 0)
    (mass 0.4), which reaches 7."""
    rows = [("0", "0"), ("0", "1"), ("0", "2")] + [("1", "0")] * 7
    dataset = make_dataset(
        (AttributeSpec("a", "category"), AttributeSpec("b", "category")),
        [(f"u{i}", seq, {"a": a, "b": b})
         for i, (a, b) in enumerate(rows) for seq in (0, 1)])
    entries = ((("0", "0"), 0.2), (("0", "1"), 0.2), (("0", "2"), 0.2),
               (("1", "0"), 0.4))
    return dataset, AttackerInstance(Pmf(("a", "b"), entries), 1, "file")


_FULL = ("CookieEnabled", "Language", "Screen", "Timezone")


class TestExhaustive:
    def test_vacuous_threshold_selects_the_empty_set(self, dataset_with_pairs):
        attacker = population_attacker(dataset_with_pairs, beta=1)
        config = SelectionConfig(alpha=1.0, k=1)
        result = select_exhaustive(dataset_with_pairs, attacker, config)
        assert result.chosen == ()
        assert result.breakdown.total_points == 0.0
        assert result.sensitivity == 1.0

    def test_worked_example_optimum(self, dataset_with_pairs):
        attacker = population_attacker(dataset_with_pairs, beta=1)
        config = SelectionConfig(alpha=0.2, k=1, weights=CostWeights(1, 10, 10_000))
        result = select_exhaustive(dataset_with_pairs, attacker, config)
        # Independently enumerate: cheapest subset with sensitivity <= 0.2.
        best = None
        for r in range(5):
            for combo in itertools.combinations(
                dataset_with_pairs.catalog.names, r
            ):
                s = sensitivity(
                    combo, attacker, dataset_with_pairs.user_mapping,
                    dataset_with_pairs.catalog,
                )
                if s > 0.2:
                    continue
                cost = total_cost(
                    combo, dataset_with_pairs, config.weights
                ).total_points
                if best is None or (cost, combo) < best:
                    best = (cost, combo)
        assert result.chosen == best[1]
        assert result.breakdown.total_points == pytest.approx(best[0])

    def test_infeasible_threshold(self, dataset_with_pairs):
        attacker = population_attacker(dataset_with_pairs, beta=1)
        config = SelectionConfig(alpha=0.05, k=1)
        result = select_exhaustive(dataset_with_pairs, attacker, config)
        assert result.is_no_solution

    @pytest.mark.parametrize("example, alpha, calls, sequence", [
        # Monotone: the full set, then the sets largest first, in rank order
        # within a size, less those inside a measured failure or ranked after
        # the best set so far. At most one set of each size meets alpha.
        ("population", 1.0, 5, [_FULL, ("CookieEnabled", "Language", "Timezone"),
                                ("Language", "Timezone"), ("Timezone",), ()]),
        ("population", 0.5, 5, [_FULL, ("CookieEnabled", "Language", "Timezone"),
                                ("Language", "Timezone"), ("Timezone",),
                                ("Language",)]),
        ("population", 0.2, 5, [_FULL, ("CookieEnabled", "Language", "Timezone"),
                                ("Language", "Screen", "Timezone"),
                                ("Screen", "Timezone"), ("Language", "Screen")]),
        ("population", 0.05, 1, None),  # monotone: the full set fails, so all do
        # Not monotone: the full set, which ranks last here, then each set in
        # rank order up to the choice.
        ("file", 0.9, 3, None),  # {a} ranks second, tied in cost with {b}
        ("file", 0.1, 4, None),  # every set is measured, none meets
    ])
    def test_sensitivity_is_measured_only_up_to_the_choice(
        self, monkeypatch, dataset_with_pairs, example, alpha, calls, sequence
    ):
        """The oracle measures the full set first. Under a monotone attacker
        it then measures, largest first, only the sets that rank before its
        best so far by ``(total_points, set)`` and lie inside no measured
        failure. Otherwise it measures each set in rank order up to the first
        that meets alpha."""
        if example == "population":
            dataset = dataset_with_pairs
            attacker = population_attacker(dataset, beta=1)
        else:
            dataset, attacker = _non_monotone_example()
        measured = []

        def counted(attrs, *args):
            measured.append(attrs)
            return share(attrs, *args)

        share = fpselect.selection.impersonated_share
        monkeypatch.setattr(fpselect.selection, "impersonated_share", counted)
        config = SelectionConfig(alpha=alpha)
        result = select_exhaustive(dataset, attacker, config)
        names = dataset.catalog.names
        ranked = sorted(
            (total_cost(combo, dataset, config.weights).total_points, combo)
            for size in range(len(names) + 1)
            for combo in itertools.combinations(names, size))
        order = [combo for _, combo in ranked]
        if sequence is not None:
            assert measured == sequence
            assert result.chosen == sequence[-1]
        elif result.chosen is None:
            assert len(measured) == (1 if example == "population" else len(order))
        else:
            rank = order.index(result.chosen) + 1
            assert len(measured) == rank + (order.index(names) + 1 > rank)
        assert len(measured) == calls
        assert len(set(measured)) == calls
        assert result.explored_count == (1 if calls == 1 else len(order))

    @pytest.mark.parametrize("example, alpha", [
        ("population", 1.0), ("population", 0.5), ("population", 0.2),
        ("population", 0.05), ("file", 0.9), ("file", 0.1),
    ])
    def test_the_lattice_is_costed_in_one_walk(
        self, monkeypatch, dataset_with_pairs, example, alpha
    ):
        """``total_cost`` runs once, for the gate's full set: the oracle costs
        every other subset in ``subset_costs``'s one pass, yet still explores
        all 2^n and chooses what measuring every subset chooses."""
        if example == "population":
            dataset = dataset_with_pairs
            attacker = population_attacker(dataset, beta=1)
        else:
            dataset, attacker = _non_monotone_example()
        config = SelectionConfig(alpha=alpha)
        expected = reference.select_exhaustive(dataset, attacker, config)
        costed = []

        def counted(attrs, *args):
            costed.append(attrs)
            return cost(attrs, *args)

        cost = fpselect.selection.total_cost
        monkeypatch.setattr(fpselect.selection, "total_cost", counted)
        result = select_exhaustive(dataset, attacker, config)
        assert costed == [dataset.catalog.names]
        assert (result.chosen, result.breakdown, result.sensitivity) == (
            expected.chosen, expected.breakdown, expected.sensitivity)
        assert result.explored_count == expected.explored_count
        if result.candidate_sensitivity <= alpha or example == "file":
            assert result.explored_count == 2 ** len(dataset.catalog.names)

    def test_too_many_attributes_rejected(self):
        ds = random_synth(random.Random(0), max_attrs=6, min_attrs=5)
        attacker = population_attacker(ds, beta=1)
        with pytest.raises(ConfigError, match="exceed"):
            select_exhaustive(ds, attacker, SelectionConfig(alpha=0.5),
                              max_attributes=3)


class TestOracleDominance:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), uniform=st.booleans(),
           beta=st.integers(1, 4), alpha=st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    def test_greedy_at_full_width_costs_what_the_oracle_costs(
        self, seed, uniform, beta, alpha
    ):
        """Exact matching against a population or uniform attacker keeps
        sensitivity monotone, so greedy with k = 2^n prunes no optimum; at
        alpha 1 that optimum is the empty set."""
        ds = random_synth(random.Random(seed), max_attrs=5)
        attacker = (uniform_attacker if uniform else population_attacker)(ds, beta)
        config = SelectionConfig(alpha=alpha, k=2 ** len(ds.catalog.names))
        oracle = select_exhaustive(ds, attacker, config)
        greedy = select_greedy(ds, attacker, config)
        if oracle.is_no_solution:
            assert greedy.is_no_solution
        else:
            assert greedy.breakdown.total_points == pytest.approx(
                oracle.breakdown.total_points)

    def test_heuristics_never_beat_the_oracle(self):
        rng = random.Random(17)
        ratios = []
        for _ in range(20):
            ds = random_synth(rng, max_attrs=7)
            attacker = population_attacker(ds, beta=rng.randint(1, 4))
            config = SelectionConfig(
                alpha=rng.uniform(0.05, 0.8), k=rng.randint(1, 3)
            )
            oracle = select_exhaustive(ds, attacker, config)
            others = [
                select_greedy(ds, attacker, config),
                select_entropy_baseline(ds, attacker, config),
                select_cond_entropy_baseline(ds, attacker, config),
            ]
            if oracle.is_no_solution:
                assert all(r.is_no_solution for r in others)
                continue
            for result in others:
                assert not result.is_no_solution
                assert result.sensitivity <= config.alpha
                assert (
                    oracle.breakdown.total_points
                    <= result.breakdown.total_points
                )
            ratios.append(
                others[0].breakdown.total_points / oracle.breakdown.total_points
            )
        assert ratios, "every instance was infeasible"
        assert min(ratios) >= 1.0


# Browser names, some one or two edits apart: "chrome" and "chrom" match at
# threshold 1, and "safari" and "safary" at 1 and 2.
BROWSER_NAMES = ("chrome", "chrom", "chromium", "firefox", "firefix", "safari",
                 "safary", "edge")


def tolerant_dataset(seed: int):
    """30 browsers, two rows each, over 7 attributes: ``agent`` (text,
    threshold 1) and ``fonts`` (text, threshold 2) hold browser names, and
    five categories hold digits. Some second rows change one category."""
    rng = random.Random(seed)
    specs = (
        AttributeSpec("agent", "text", match_threshold=1),
        AttributeSpec("fonts", "text", match_threshold=2),
        *(AttributeSpec(f"c{i}", "category") for i in range(5)),
    )
    rows = []
    for b in range(30):
        values = {"agent": rng.choice(BROWSER_NAMES),
                  "fonts": rng.choice(BROWSER_NAMES),
                  **{f"c{i}": str(rng.randrange(i + 2)) for i in range(5)}}
        for seq in range(2):
            if seq and rng.random() < 0.3:
                values = {**values, f"c{rng.randrange(5)}": str(rng.randrange(3))}
            rows.append((f"b{b:02d}", seq, dict(values)))
    return make_dataset(specs, rows,
                        collect_ms={"agent": 3.0, "fonts": 40.0, "c0": 1.0})


class TestGreedyAgainstOracleWithTolerantAttributes:
    @pytest.mark.parametrize("alpha, beta, k, greedy, oracle", [
        (0.05, 1, 1, (("agent", "c2", "c3", "c4"), 39.266666666666666),
         (("agent", "c2", "c3", "c4"), 39.266666666666666)),
        (0.1, 2, 1, (("agent", "c2", "c3", "c4"), 39.266666666666666),
         (("agent", "c2", "c3"), 38.266666666666666)),
        (0.2, 3, 2, (("agent", "c2", "c3"), 38.266666666666666),
         (("c2", "c3", "c4"), 3.0)),
    ])
    def test_greedy_and_oracle_sets_and_costs(self, alpha, beta, k, greedy, oracle):
        """Greedy against the true optimum on a catalog with two tolerant text
        attributes, as both stand. At alpha 0.05 they agree. At alpha 0.1
        greedy pays 1 point (2.6%) more: its one path goes through ``c4``,
        so it never measures {agent, c2, c3}. At alpha 0.2 it pays 38.27
        points where the oracle pays 3.0 (12.8x): the full set's cost,
        mostly ``fonts``, dwarfs every saving, so the efficiency ranking
        follows sensitivity, keeps the two ``agent`` pairs on the frontier
        and drops {c3, c4}, whose superset {c2, c3, c4} meets alpha."""
        ds = tolerant_dataset(0)
        attacker = population_attacker(ds, beta)
        config = SelectionConfig(alpha=alpha, k=k)
        results = (select_greedy(ds, attacker, config),
                   select_exhaustive(ds, attacker, config))
        for result, (chosen, cost) in zip(results, (greedy, oracle)):
            assert result.chosen == chosen
            assert result.breakdown.total_points == cost
            assert result.sensitivity <= alpha


class TestNoSolutionPath:
    def test_all_methods_report_the_candidate_sensitivity(
        self, dataset_with_pairs
    ):
        ds = dataset_with_pairs
        attacker = population_attacker(ds, beta=1)
        floor = sensitivity(
            ds.catalog.names, attacker, ds.user_mapping, ds.catalog
        )
        config = SelectionConfig(alpha=floor / 2, k=2)
        for method in (
            select_greedy,
            select_entropy_baseline,
            select_cond_entropy_baseline,
            select_exhaustive,
        ):
            result = method(ds, attacker, config)
            assert result.is_no_solution
            assert result.chosen is None
            assert result.breakdown is None
            assert result.candidate_sensitivity == pytest.approx(floor)


class TestEvaluate:
    def test_full_set_matches_the_stats_aggregate(self, dataset_with_pairs):
        ds = dataset_with_pairs
        attacker = population_attacker(ds, beta=1)
        weights = CostWeights(1, 10, 10_000)
        evaluation = evaluate(ds.catalog.names, ds, attacker, weights)
        stats = attribute_cost_stats(ds, weights)
        assert evaluation.breakdown == stats.candidate_set

    def test_empty_set_is_free_and_fully_exposed(self, dataset_with_pairs):
        ds = dataset_with_pairs
        attacker = population_attacker(ds, beta=1)
        evaluation = evaluate((), ds, attacker, CostWeights())
        assert evaluation.breakdown.total_points == 0.0
        assert evaluation.sensitivity == 1.0
        assert evaluation.impersonated == frozenset(ds.user_mapping)

    def test_worked_example_pair(self, dataset_with_pairs):
        ds = dataset_with_pairs
        attacker = population_attacker(ds, beta=1)
        evaluation = evaluate(("Language", "Screen"), ds, attacker, CostWeights())
        assert evaluation.sensitivity == pytest.approx(1 / 6)

    def test_unknown_attribute_rejected(self, dataset_with_pairs):
        attacker = population_attacker(dataset_with_pairs, beta=1)
        with pytest.raises(Exception, match="Ghost"):
            evaluate(("Ghost",), dataset_with_pairs, attacker, CostWeights())


class TestSelectionConfig:
    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            SelectionConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            SelectionConfig(alpha=1.5)

    def test_path_count_bounds(self):
        with pytest.raises(ConfigError):
            SelectionConfig(alpha=0.5, k=0)

    def test_selection_needs_consecutive_pairs(self, dataset):
        # A snapshot-only dataset cannot price instability; selection
        # surfaces that as a configuration problem.
        attacker = population_attacker(dataset, beta=1)
        with pytest.raises(ConfigError, match="consecutive"):
            select_greedy(dataset, attacker, SelectionConfig(alpha=0.5))
