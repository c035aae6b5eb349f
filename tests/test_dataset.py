"""Dataset loading, projection, distributions, and the synthetic generator."""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpselect.dataset
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
    SynthAttribute,
    SynthConfig,
    attribute_cost_stats,
    calibrate_thresholds,
    consecutive_pairs,
    evaluate,
    load_catalog,
    load_dataset,
    pmf,
    population_attacker,
    project,
    select_cond_entropy_baseline,
    select_entropy_baseline,
    select_exhaustive,
    select_greedy,
    synthesize,
    uniform_attacker,
)
from fpselect.dataset import load_observations

from conftest import TABLE1_ATTRS, TABLE1_ROWS, make_dataset, write_table1_files


class TestLoading:
    def test_worked_example_file(self, tmp_path):
        dataset_path, catalog_path = write_table1_files(tmp_path)
        ds = load_dataset(dataset_path, catalog_path)
        assert len(ds.observations) == 6
        assert len(ds.browser_ids) == 6
        assert ds.catalog.names == tuple(sorted(TABLE1_ATTRS))

    def test_empty_dataset_rejected(self, tmp_path):
        _, catalog_path = write_table1_files(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SchemaError, match="empty dataset"):
            load_dataset(empty, catalog_path)

    def test_unknown_attribute_named_in_error(self, tmp_path):
        dataset_path, catalog_path = write_table1_files(tmp_path)
        row = {
            "browser_id": "u9",
            "seq": 0,
            "values": {**dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"])), "Foo": "1"},
        }
        dataset_path.write_text(json.dumps(row) + "\n")
        with pytest.raises(SchemaError, match="'Foo'"):
            load_dataset(dataset_path, catalog_path)

    def test_missing_attribute_rejected(self, tmp_path):
        dataset_path, catalog_path = write_table1_files(tmp_path)
        values = dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"]))
        del values["Screen"]
        dataset_path.write_text(
            json.dumps({"browser_id": "u1", "seq": 0, "values": values}) + "\n"
        )
        with pytest.raises(SchemaError, match="'Screen'"):
            load_dataset(dataset_path, catalog_path)

    def test_non_monotone_seq_rejected(self, tmp_path):
        dataset_path, catalog_path = write_table1_files(tmp_path)
        values = dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"]))
        rows = [
            {"browser_id": "u1", "seq": 1, "values": values},
            {"browser_id": "u1", "seq": 1, "values": values},
        ]
        dataset_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(SchemaError, match="does not increase"):
            load_dataset(dataset_path, catalog_path)

    def test_non_numeric_seq_rejected(self, tmp_path):
        dataset_path, catalog_path = write_table1_files(tmp_path)
        values = dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"]))
        dataset_path.write_text(
            json.dumps({"browser_id": "u1", "seq": "zero", "values": values})
            + "\n"
        )
        with pytest.raises(SchemaError, match=":1"):
            load_dataset(dataset_path, catalog_path)

    def test_row_checks_come_before_the_seq_order_check(self, tmp_path):
        dataset_path, catalog_path = write_table1_files(tmp_path)
        values = dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"]))
        rows = [
            {"browser_id": "u1", "seq": 1, "values": values},
            {"browser_id": "u1", "seq": 0, "values": values},
            {"browser_id": "u2", "seq": 0, "values": {**values, "Foo": "1"}},
        ]
        dataset_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(SchemaError, match=":3: unknown attribute 'Foo'"):
            load_dataset(dataset_path, catalog_path)
        del rows[2]
        dataset_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(SchemaError, match="^observation 1: seq 0 for browser"):
            load_dataset(dataset_path, catalog_path)

    def test_analysis_path_builds_no_observation_rows(self, tmp_path, monkeypatch):
        dataset_path, catalog_path = write_table1_files(tmp_path, repeats=2)
        ds = load_dataset(dataset_path, catalog_path)

        def no_rows(*args, **kwargs):
            raise AssertionError("an Observation row was built")

        monkeypatch.setattr(fpselect.dataset, "Observation", no_rows)
        config = SelectionConfig(alpha=0.4, k=2)
        for attacker in (population_attacker(ds, 2), uniform_attacker(ds, 2)):
            select_greedy(ds, attacker, config)
            select_entropy_baseline(ds, attacker, config)
            select_cond_entropy_baseline(ds, attacker, config)
            select_exhaustive(ds, attacker, config)
            evaluate(("Language", "Screen"), ds, attacker, CostWeights())
        attribute_cost_stats(ds, CostWeights())
        calibrate_thresholds(ds, 2)
        assert "observations" not in vars(ds)
        assert "user_mapping" not in vars(ds)

    def test_error_names_offending_line(self, tmp_path):
        dataset_path, catalog_path = write_table1_files(tmp_path)
        good = json.dumps(
            {
                "browser_id": "u1",
                "seq": 0,
                "values": dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"])),
            }
        )
        dataset_path.write_text(good + "\n" + "{broken\n")
        with pytest.raises(SchemaError, match=":2"):
            load_dataset(dataset_path, catalog_path)


class TestProject:
    def test_worked_example_row(self, dataset):
        u1 = dataset.user_mapping["u1"]
        assert project(u1, dataset.catalog.names, ("Language", "Screen")) == (
            "fr",
            "1080",
        )

    def test_identity(self, dataset):
        names = dataset.catalog.names
        u1 = dataset.user_mapping["u1"]
        assert project(u1, names, names) == u1

    def test_empty_target(self, dataset):
        assert project(dataset.user_mapping["u1"], dataset.catalog.names, ()) == ()

    def test_tuple_of_the_wrong_length(self, dataset):
        with pytest.raises(ValueError, match="^value tuple has 3 entries for 4 "):
            project(dataset.user_mapping["u1"][:3], dataset.catalog.names, ())

    def test_not_a_subset(self, dataset):
        with pytest.raises(ValueError, match="Missing"):
            project(dataset.user_mapping["u1"], dataset.catalog.names, ("Missing",))

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_composes_through_intermediate_sets(self, data):
        names = tuple(sorted(data.draw(
            st.sets(st.sampled_from("abcdefg"), min_size=1, max_size=6)
        )))
        values = tuple(
            data.draw(st.text(alphabet="xyz01", min_size=1, max_size=3))
            for _ in names
        )
        middle = tuple(sorted(data.draw(st.sets(st.sampled_from(names)))))
        inner = tuple(sorted(data.draw(st.sets(st.sampled_from(middle))))) \
            if middle else ()
        via_middle = project(
            project(values, names, middle), middle, inner
        )
        assert via_middle == project(values, names, inner)


class TestPmf:
    def test_language_distribution(self, dataset):
        got = pmf(dataset, ("Language",)).as_dict()
        assert got == {
            ("fr",): pytest.approx(2 / 6),
            ("en",): pytest.approx(2 / 6),
            ("it",): pytest.approx(1 / 6),
            ("sp",): pytest.approx(1 / 6),
        }

    def test_constant_attribute_is_degenerate(self, dataset):
        assert pmf(dataset, ("CookieEnabled",)).as_dict() == {("True",): 1.0}

    def test_empty_attribute_set(self, dataset):
        assert pmf(dataset, ()).as_dict() == {(): 1.0}

    def test_probabilities_sum_to_one(self, dataset):
        for attrs in (("Language",), ("Language", "Screen"), dataset.catalog.names):
            total = sum(p for _, p in pmf(dataset, attrs).entries)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_duplicate_support_entries_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Pmf(("a",), ((("x",), 0.5), (("x",), 0.5)))

    def test_mass_must_total_one(self):
        with pytest.raises(SchemaError, match="sum"):
            Pmf(("a",), ((("x",), 0.5),))

    def test_projection_pushforward(self, dataset):
        # The marginal over a subset equals the projected-and-summed joint.
        names = dataset.catalog.names
        joint = pmf(dataset, names)
        for subset in (("Language",), ("Screen", "Timezone"), (), names):
            pushed: Counter = Counter()
            for values, prob in joint.entries:
                pushed[project(values, names, subset)] += prob
            marginal = pmf(dataset, subset).as_dict()
            assert set(pushed) == set(marginal)
            for key, prob in pushed.items():
                assert marginal[key] == pytest.approx(prob)


class TestConsecutivePairs:
    def test_interleaved_repeats_are_kept(self):
        spec = (AttributeSpec("a", "category"),)
        ds = make_dataset(
            spec,
            [
                ("b1", 0, {"a": "x"}),
                ("b1", 1, {"a": "y"}),
                ("b1", 2, {"a": "x"}),
            ],
        )
        assert consecutive_pairs(ds) == [(("x",), ("y",)), (("y",), ("x",))]

    def test_single_observation_browser_has_no_pairs(self, dataset):
        assert consecutive_pairs(dataset) == []

    def test_three_browsers_two_observations_each(self):
        spec = (AttributeSpec("a", "category"),)
        rows = [(b, s, {"a": f"{b}{s}"}) for b in ("b1", "b2", "b3") for s in (0, 1)]
        ds = make_dataset(spec, rows)
        assert len(consecutive_pairs(ds)) == 3

    def test_pair_count_matches_observation_counts(self):
        spec = (AttributeSpec("a", "category"),)
        sizes = {"b1": 4, "b2": 1, "b3": 2}
        rows = [
            (b, s, {"a": str(s)}) for b, count in sizes.items() for s in range(count)
        ]
        ds = make_dataset(spec, rows)
        expected = sum(max(c - 1, 0) for c in sizes.values())
        assert len(consecutive_pairs(ds)) == expected
        assert ds.consecutive_pair_count == expected


class TestSynthesize:
    def base_config(self, **overrides) -> SynthConfig:
        params = dict(
            browsers=12,
            observations_per_browser=2,
            attributes=(
                SynthAttribute("one", cardinality=1),
                SynthAttribute("src", cardinality=5, zipf_skew=0.7,
                               change_prob=0.2),
                SynthAttribute("cpy", copy_of="src"),
                SynthAttribute("num", cardinality=4, kind="number",
                               change_prob=0.1, mean_collect_ms=3.0),
            ),
        )
        params.update(overrides)
        return SynthConfig(**params)

    def test_degenerate_attribute_has_unit_mass(self):
        ds = synthesize(self.base_config(), seed=1)
        entries = pmf(ds, ("one",)).entries
        assert len(entries) == 1
        assert entries[0][1] == 1.0

    def test_same_seed_is_identical(self):
        config = self.base_config()
        assert synthesize(config, seed=42) == synthesize(config, seed=42)

    def test_different_seeds_differ(self):
        config = self.base_config(browsers=40)
        assert synthesize(config, seed=1) != synthesize(config, seed=2)

    def test_a_dataset_equals_no_other_kind_of_object(self, dataset):
        assert dataset != object()
        assert dataset != dataset.observations

    def test_copy_attribute_has_zero_conditional_entropy(self):
        ds = synthesize(self.base_config(browsers=30), seed=9)
        # Conditional entropy recomputed from scratch on the generated data.
        names = ds.catalog.names
        joint = Counter(
            project(fp, names, ("cpy", "src")) for fp in ds.user_mapping.values()
        )
        given_src = Counter(
            project(fp, names, ("src",)) for fp in ds.user_mapping.values()
        )
        population = len(ds.user_mapping)
        h_joint = -sum(
            (c / population) * math.log2(c / population) for c in joint.values()
        )
        h_src = -sum(
            (c / population) * math.log2(c / population) for c in given_src.values()
        )
        assert h_joint - h_src == pytest.approx(0.0, abs=1e-12)

    def test_copy_tracks_source_between_observations(self):
        ds = synthesize(self.base_config(browsers=20), seed=5)
        src, cpy = (ds.catalog.names.index(a) for a in ("src", "cpy"))
        for earlier, later in consecutive_pairs(ds):
            assert (earlier[src] != later[src]) == (earlier[cpy] != later[cpy])

    def test_invalid_cardinality_rejected(self):
        with pytest.raises(ConfigError, match="cardinality"):
            SynthAttribute("bad", cardinality=0)

    def test_invalid_change_probability_rejected(self):
        with pytest.raises(ConfigError, match="change_prob"):
            SynthAttribute("bad", change_prob=1.5)

    def test_copy_of_unknown_source_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            SynthConfig(
                browsers=2,
                observations_per_browser=1,
                attributes=(SynthAttribute("a", copy_of="ghost"),),
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            synthesize(self.base_config(), seed=-1)

    def test_value_sizes_are_fixed_width(self):
        ds = synthesize(self.base_config(), seed=3)
        widths = {
            a: {len(obs.values[a].encode("utf-8")) for obs in ds.observations}
            for a in ds.catalog.names
        }
        assert all(len(w) == 1 for w in widths.values())


class TestCatalogFile:
    @pytest.mark.parametrize("field, value", [
        ("name", True), ("kind", 5), ("set_separator", 5), ("set_separator", None),
    ])
    def test_text_fields_must_be_json_strings(self, tmp_path, field, value):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps([{"name": "a", "kind": "set", field: value}]))
        with pytest.raises(SchemaError) as refused:
            load_catalog(path)
        assert str(refused.value) == f"{path}: entry 0: {field} must be a string"

    def test_membership_is_by_name(self, catalog):
        assert "Language" in catalog
        assert "Ghost" not in catalog

    def test_spec_of_an_unknown_name(self, catalog):
        assert catalog.spec("Language").name == "Language"
        with pytest.raises(SchemaError, match="^unknown attribute 'Ghost'$"):
            catalog.spec("Ghost")

    def test_invalid_json_and_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "catalog.json"
        for text in (b"[", b"\xff\xfe"):
            path.write_bytes(text)
            with pytest.raises(SchemaError, match="invalid JSON") as refused:
                load_catalog(path)
            assert str(refused.value).startswith(f"{path}: invalid JSON: ")

    @pytest.mark.parametrize("entries, message", [
        ([{"name": "a", "kind": "foo"}], "entry 0: attribute 'a': unknown kind 'foo'"),
        ([{"name": "a", "kind": "set"}, {"name": "\ud800x", "kind": "set"}],
         "entry 1: attribute name '\\ud800x' is not valid UTF-8"),
        ([], "catalog must declare at least one attribute"),
        ([{"name": "a", "kind": "set"}] * 2, "duplicate attribute name 'a' in catalog"),
    ], ids=["kind", "lone-surrogate", "empty", "duplicate"])
    def test_spec_and_catalog_faults_name_the_file(self, tmp_path, entries, message):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(SchemaError) as refused:
            load_catalog(path)
        assert str(refused.value).startswith(f"{path}: {message}")


class TestDatasetValidation:
    def test_empty_observation_list_rejected(self, catalog):
        with pytest.raises(SchemaError, match="empty dataset"):
            Dataset(catalog, ())

    def test_negative_collect_ms_rejected(self, catalog):
        values = dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"]))
        obs = Observation("u1", 0, values, {"Screen": -1.0})
        with pytest.raises(SchemaError, match="non-negative"):
            Dataset(catalog, (obs,))

    @pytest.mark.parametrize("field, value", [
        ("seq", True), ("seq", 1.5), ("seq", "x"), ("browser_id", 7),
        ("collect_ms", {"Screen": True}),
        pytest.param("values", {**dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"])),
                                "Screen": "\udfff"}, id="values-lone-surrogate"),
        pytest.param("browser_id", "u\ud800", id="browser-id-lone-surrogate"),
    ])
    def test_constructor_refuses_what_the_loader_refuses(
        self, tmp_path, catalog, field, value
    ):
        row = {"browser_id": "u1", "seq": 0, "collect_ms": {},
               "values": dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"])), field: value}
        path = tmp_path / "row.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(SchemaError) as loaded:
            load_observations(path, catalog)
        with pytest.raises(SchemaError) as built:
            Dataset(catalog, (Observation(**row),))
        where = f"{path}:1: "
        assert str(loaded.value).startswith(where)
        assert str(built.value) == "observation 0: " + str(loaded.value)[len(where):]

    def test_user_mapping_takes_first_observation(self):
        spec = (AttributeSpec("a", "category"),)
        ds = make_dataset(
            spec, [("b1", 3, {"a": "first"}), ("b1", 9, {"a": "later"})]
        )
        assert ds.user_mapping == {"b1": ("first",)}
