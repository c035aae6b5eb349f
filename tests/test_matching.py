"""Distances, the matching predicate, and threshold calibration."""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpselect import (
    AttributeSpec,
    ConfigError,
    DistanceKind,
    attr_match,
    calibrate_thresholds,
    distance,
    fp_match,
)
from fpselect.matching import max_margin_threshold

from conftest import make_dataset, table1_catalog, table1_dataset


def reference_edit_distance(x: str, y: str) -> int:
    """Plain recursive Levenshtein, used as an oracle for the bit-parallel kernel."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
            go(i - 1, j - 1) + (x[i - 1] != y[j - 1]),
        )

    return go(len(x), len(y))


class TestDistance:
    def test_kronecker_identity(self):
        assert distance(DistanceKind.KRONECKER_COMPLEMENT, "fr", "fr") == 0.0
        assert distance(DistanceKind.KRONECKER_COMPLEMENT, "fr", "en") == 1.0

    def test_absolute_difference(self):
        assert distance(DistanceKind.ABSOLUTE_DIFFERENCE, "1080", "1920") == 840.0

    def test_jaccard_on_sets(self):
        # Overlap {b} out of {a, b, c}.
        assert distance(DistanceKind.JACCARD_ON_SETS, "a;b", "b;c") == pytest.approx(
            2 / 3
        )

    def test_jaccard_ignores_token_order(self):
        assert distance(DistanceKind.JACCARD_ON_SETS, "a;b", "b;a") == 0.0

    def test_jaccard_of_empty_values(self):
        assert distance(DistanceKind.JACCARD_ON_SETS, "", "") == 0.0
        assert distance(DistanceKind.JACCARD_ON_SETS, "", "a") == 1.0

    def test_edit_distance_classic(self):
        assert distance(DistanceKind.EDIT_DISTANCE, "kitten", "sitting") == 3.0

    def test_number_parse_failure_raises(self):
        with pytest.raises(ValueError, match="not numeric"):
            distance(DistanceKind.ABSOLUTE_DIFFERENCE, "abc", "1")

    @given(
        x=st.text(alphabet="abcd", max_size=6),
        y=st.text(alphabet="abcd", max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_edit_distance_matches_reference(self, x, y):
        assert distance(DistanceKind.EDIT_DISTANCE, x, y) == reference_edit_distance(
            x, y
        )

    @given(
        kind=st.sampled_from(list(DistanceKind)),
        x=st.text(alphabet="0123;ab", max_size=5),
        y=st.text(alphabet="0123;ab", max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_identity(self, kind, x, y):
        if kind is DistanceKind.ABSOLUTE_DIFFERENCE:
            # Stick to parseable values for the numeric kind.
            x, y = (x.replace(";", "").replace("a", "").replace("b", "") or "0",
                    y.replace(";", "").replace("a", "").replace("b", "") or "0")
        assert distance(kind, x, y) == distance(kind, y, x)
        assert distance(kind, x, x) == 0.0

    def test_jaccard_bounded(self):
        for x, y in (("a", "b"), ("a;b;c", "c"), ("", "a;b")):
            assert 0.0 <= distance(DistanceKind.JACCARD_ON_SETS, x, y) <= 1.0


class TestAttrMatch:
    def test_number_within_threshold(self):
        spec = AttributeSpec("width", "number", match_threshold=100)
        assert attr_match(spec, "1080", "1100")
        assert not attr_match(spec, "1080", "1181")

    def test_dynamic_requires_equality(self):
        spec = AttributeSpec("canvas", "dynamic")
        assert attr_match(spec, "h1", "h1")
        assert not attr_match(spec, "h1", "h2")

    def test_malformed_number_submission_is_a_non_match(self):
        spec = AttributeSpec("width", "number", match_threshold=100)
        assert not attr_match(spec, "1080", "garbage")

    @given(
        kind=st.sampled_from(["text", "set", "number", "category", "dynamic"]),
        value=st.text(alphabet="01;a", min_size=1, max_size=5),
        threshold=st.floats(min_value=0, max_value=0.9),
    )
    @settings(max_examples=150, deadline=None)
    def test_reflexive_for_every_spec(self, kind, value, threshold):
        if kind == "number":
            value = "42"
        spec = AttributeSpec("a", kind, match_threshold=threshold)
        assert attr_match(spec, value, value)


class TestFpMatch:
    def test_empty_set_matches_vacuously(self):
        assert fp_match((), table1_catalog(), (), ())

    def test_language_only(self):
        ds = table1_dataset()
        u1 = ds.user_mapping["u1"]
        u6 = ds.user_mapping["u6"]
        attrs = ("Language",)
        names = ds.catalog.names
        from fpselect import project

        assert fp_match(
            attrs,
            ds.catalog,
            project(u1, names, attrs),
            project(u6, names, attrs),
        )

    def test_language_and_screen_differ(self):
        ds = table1_dataset()
        from fpselect import project

        names = ds.catalog.names
        attrs = ("Language", "Screen")
        assert not fp_match(
            attrs,
            ds.catalog,
            project(ds.user_mapping["u1"], names, attrs),
            project(ds.user_mapping["u6"], names, attrs),
        )

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not cover"):
            fp_match(("Language",), table1_catalog(), ("fr", "x"), ("fr",))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotone_under_subsets(self, data):
        # Matching on a set implies matching on each of its subsets.
        kinds = ["text", "set", "number", "category"]
        size = data.draw(st.integers(min_value=1, max_value=4))
        specs = []
        for i in range(size):
            kind = data.draw(st.sampled_from(kinds))
            threshold = data.draw(st.floats(min_value=0, max_value=3))
            if kind in ("category",):
                threshold = min(threshold, 0.9)
            specs.append(
                AttributeSpec(f"a{i}", kind, match_threshold=threshold)
            )
        catalog_ = __import__("fpselect").AttributeCatalog(tuple(specs))
        names = catalog_.names

        def draw_value(kind: str) -> str:
            if kind == "number":
                return str(data.draw(st.integers(min_value=0, max_value=5)))
            return data.draw(st.sampled_from(["a", "ab", "b;a", "c"]))

        stored = tuple(draw_value(catalog_.spec(a).kind) for a in names)
        submitted = tuple(draw_value(catalog_.spec(a).kind) for a in names)
        subset = tuple(
            sorted(data.draw(st.sets(st.sampled_from(names))))
        )
        if fp_match(names, catalog_, stored, submitted):
            from fpselect import project

            assert fp_match(
                subset,
                catalog_,
                project(stored, names, subset),
                project(submitted, names, subset),
            )


class TestMaxMarginThreshold:
    def test_separable_classes_split_at_midpoint(self):
        assert max_margin_threshold([0.0, 0.0], [1.0, 1.0]) == 0.5

    def test_threshold_below_minimum_negative(self):
        positives = [0.0] * 5
        negatives = [4.0, 6.0, 9.0]
        t = max_margin_threshold(positives, negatives)
        assert t < min(negatives)
        assert t >= max(positives)

    def test_overlapping_classes_minimize_errors(self):
        # One positive beyond the best cut: a single misclassification.
        positives = [0.0, 0.0, 5.0]
        negatives = [2.0, 3.0, 4.0]
        t = max_margin_threshold(positives, negatives)
        assert t == pytest.approx(1.0)  # midpoint of 0 and 2

    def test_empty_class_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            max_margin_threshold([], [1.0])


class TestCalibration:
    def drifting_dataset(self):
        # Browsers whose numeric attribute drifts a little between visits
        # while distinct browsers sit far apart; the category attribute is
        # stable per browser and distinct across browsers.
        specs = (
            AttributeSpec("pos", "number"),
            AttributeSpec("tag", "category"),
        )
        rows = []
        for i in range(6):
            base = 1000 * (i + 1)
            for seq, wobble in enumerate((0, 7, 3)):
                rows.append(
                    (f"b{i}", seq, {"pos": str(base + wobble), "tag": f"t{i}"})
                )
        return make_dataset(specs, rows)

    def test_category_threshold_is_half(self):
        # Positives are all 0 (stable values), negatives all 1.
        ds = self.drifting_dataset()
        report = calibrate_thresholds(ds, windows=2, seed=1)
        assert report.thresholds["tag"] == pytest.approx(0.5)

    def test_numeric_threshold_separates_drift_from_strangers(self):
        ds = self.drifting_dataset()
        report = calibrate_thresholds(ds, windows=2, seed=1)
        # Drift stays within 7 units. The round-robin window split keeps
        # browsers at least 2000 apart within a window, so cross-browser
        # distances are >= 1993 and the threshold must fall strictly below.
        assert 7 <= report.thresholds["pos"] < 1993

    def test_single_window_equals_its_average(self):
        ds = self.drifting_dataset()
        report = calibrate_thresholds(ds, windows=1, seed=5)
        for name, mean in report.thresholds.items():
            (only,) = report.window_thresholds[name]
            assert mean == only

    def test_average_is_mean_of_windows(self):
        ds = self.drifting_dataset()
        report = calibrate_thresholds(ds, windows=3, seed=2)
        for name, mean in report.thresholds.items():
            values = report.window_thresholds[name]
            assert mean == pytest.approx(sum(values) / len(values))

    def test_deterministic_for_fixed_seed(self):
        ds = self.drifting_dataset()
        a = calibrate_thresholds(ds, windows=2, seed=11)
        b = calibrate_thresholds(ds, windows=2, seed=11)
        assert a == b

    def test_window_without_pairs_rejected(self):
        specs = (AttributeSpec("a", "category"),)
        ds = make_dataset(specs, [("b1", 0, {"a": "x"}), ("b2", 0, {"a": "y"})])
        with pytest.raises(ConfigError, match="no consecutive"):
            calibrate_thresholds(ds, windows=1)

    def test_report_applies_to_catalog(self):
        ds = self.drifting_dataset()
        report = calibrate_thresholds(ds, windows=2, seed=1)
        updated = report.apply(ds.catalog)
        assert updated.spec("pos").match_threshold == report.thresholds["pos"]
        assert updated.spec("tag").match_threshold == report.thresholds["tag"]

    def test_apply_clamps_category_thresholds(self):
        # A category attribute changing on every visit with capped negatives
        # can learn threshold 1 ("accept anything"); the catalog can only
        # express exact matching, so write-back clamps below 1.
        specs = (AttributeSpec("nonce", "category"),)
        rows = []
        for b in range(4):
            for seq in range(9):
                rows.append((f"b{b}", seq, {"nonce": f"v{b}-{seq}"}))
        ds = make_dataset(specs, rows)
        report = calibrate_thresholds(ds, windows=1, seed=0, negative_cap=8)
        assert report.thresholds["nonce"] == 1.0
        updated = report.apply(ds.catalog)
        assert updated.spec("nonce").match_threshold < 1.0

    def test_report_round_trips_to_json(self):
        ds = self.drifting_dataset()
        report = calibrate_thresholds(ds, windows=2, seed=1)
        payload = report.to_json()
        assert payload["windows"] == 2
        assert set(payload["attributes"]) == {"pos", "tag"}
        for entry in payload["attributes"].values():
            assert len(entry["window_thresholds"]) == 2
