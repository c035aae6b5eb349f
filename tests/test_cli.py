"""End-to-end command-line behavior: pipelines, reports, and exit codes."""

from __future__ import annotations

import copy
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpselect import CostWeights, attribute_cost_stats, load_catalog
from fpselect.cli import (
    EXIT_BAD_CONFIG,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_SCHEMA_ERROR,
    main,
)
from fpselect.dataset import load_observations

from conftest import TABLE1_ATTRS, TABLE1_ROWS, write_table1_files


GENERATOR_CONFIG = {
    "browsers": 24,
    "observations_per_browser": 2,
    "attributes": [
        {"name": "alpha", "cardinality": 6, "zipf_skew": 0.8,
         "change_prob": 0.1, "value_bytes": 4, "mean_collect_ms": 2.0},
        {"name": "beta", "cardinality": 4, "zipf_skew": 1.2,
         "change_prob": 0.05, "value_bytes": 3},
        {"name": "gamma", "cardinality": 3, "zipf_skew": 0.5,
         "value_bytes": 2, "is_async": True, "mean_collect_ms": 15.0},
    ],
}


@pytest.fixture
def table1_paths(tmp_path):
    return write_table1_files(tmp_path, repeats=2)


@pytest.fixture
def synth_paths(tmp_path):
    config_path = tmp_path / "generator.json"
    config_path.write_text(json.dumps(GENERATOR_CONFIG))
    dataset = tmp_path / "synth.jsonl"
    catalog = tmp_path / "synth-catalog.json"
    status = main([
        "synth", "--config", str(config_path), "--seed", "3",
        "--out", str(dataset), "--catalog-out", str(catalog),
    ])
    assert status == EXIT_OK
    return dataset, catalog


def run_select(dataset, catalog, out, *extra) -> int:
    return main([
        "select", "--dataset", str(dataset), "--catalog", str(catalog),
        "--alpha", "0.2", "--beta", "1", "--k", "1",
        "--weights", "1,10,10000", "--out", str(out), *extra,
    ])


class TestSelectCommand:
    def test_worked_example_run(self, tmp_path, table1_paths):
        dataset, catalog = table1_paths
        out = tmp_path / "report.json"
        assert run_select(dataset, catalog, out) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["no_solution"] is False
        assert report["sensitivity"] <= 0.2
        assert report["chosen"] == ["Language", "Screen"]
        config = report["config"]
        assert config["alpha"] == 0.2
        assert config["beta"] == 1
        assert config["k"] == 1
        assert config["weights"] == [1.0, 10.0, 10000.0]
        assert "seed" in config
        assert config["method"] == "greedy"

    def test_no_solution_exit_code_and_report(self, tmp_path, table1_paths):
        dataset, catalog = table1_paths
        out = tmp_path / "report.json"
        status = main([
            "select", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.01", "--beta", "1", "--out", str(out),
        ])
        assert status == EXIT_NO_SOLUTION
        report = json.loads(out.read_text())
        assert report["no_solution"] is True
        assert report["chosen"] is None
        assert report["candidate_sensitivity"] == pytest.approx(1 / 6)

    def test_malformed_row_names_the_line(self, tmp_path, table1_paths, capsys):
        dataset, catalog = table1_paths
        content = dataset.read_text().splitlines()
        content[2] = '{"browser_id": "u9", "seq": 0, "values": {"Foo": "1"}}'
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(content) + "\n")
        status = main([
            "select", "--dataset", str(bad), "--catalog", str(catalog),
            "--alpha", "0.2",
        ])
        assert status == EXIT_SCHEMA_ERROR
        err = capsys.readouterr().err
        assert ":3" in err
        assert "Foo" in err

    def test_unknown_flag_is_a_config_error(self):
        assert main(["select", "--bogus"]) == EXIT_BAD_CONFIG

    def test_missing_alpha_is_a_config_error(self, table1_paths):
        dataset, catalog = table1_paths
        status = main([
            "select", "--dataset", str(dataset), "--catalog", str(catalog),
        ])
        assert status == EXIT_BAD_CONFIG

    def test_bad_weights_are_a_config_error(self, table1_paths):
        dataset, catalog = table1_paths
        status = main([
            "select", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2", "--weights", "0,10,10000",
        ])
        assert status == EXIT_BAD_CONFIG

    def test_seed_and_inputs_give_byte_identical_reports(
        self, tmp_path, table1_paths
    ):
        dataset, catalog = table1_paths
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_select(dataset, catalog, first, "--seed", "7") == EXIT_OK
        assert run_select(dataset, catalog, second, "--seed", "7") == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_report_bytes(
        self, tmp_path, synth_paths
    ):
        dataset, catalog = synth_paths
        reports = []
        for threads in ("1", "2", "6"):
            out = tmp_path / f"t{threads}.json"
            status = main([
                "select", "--dataset", str(dataset), "--catalog", str(catalog),
                "--alpha", "0.25", "--beta", "2", "--k", "2",
                "--threads", threads, "--out", str(out),
            ])
            assert status == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_trace_csv_export(self, tmp_path, synth_paths):
        dataset, catalog = synth_paths
        out = tmp_path / "report.json"
        trace = tmp_path / "trace.csv"
        status = main([
            "select", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.25", "--beta", "1", "--out", str(out),
            "--trace-csv", str(trace),
        ])
        assert status == EXIT_OK
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == (
            "stage,expanded_count,satisfying_count,frontier_count,"
            "pruned_count,best_satisfying_cost"
        )
        assert len(lines) == 1 + len(json.loads(out.read_text())["trace"])

    def test_env_variables_provide_default_paths(
        self, tmp_path, table1_paths, monkeypatch
    ):
        dataset, catalog = table1_paths
        out = tmp_path / "report.json"
        monkeypatch.setenv("FPSELECT_DATASET", str(dataset))
        monkeypatch.setenv("FPSELECT_CATALOG", str(catalog))
        monkeypatch.setenv("FPSELECT_OUT", str(out))
        status = main(["select", "--alpha", "0.2", "--beta", "1"])
        assert status == EXIT_OK
        assert out.exists()

    def test_env_variables_provide_calibrate_default_paths(
        self, tmp_path, table1_paths, monkeypatch
    ):
        dataset, catalog = table1_paths
        flagged, out = tmp_path / "flagged.json", tmp_path / "report.json"
        assert main(["calibrate", "--windows", "2", "--dataset", str(dataset),
                     "--catalog", str(catalog), "--out", str(flagged)]) == EXIT_OK
        monkeypatch.setenv("FPSELECT_DATASET", str(dataset))
        monkeypatch.setenv("FPSELECT_CATALOG", str(catalog))
        monkeypatch.setenv("FPSELECT_OUT", str(out))
        assert main(["calibrate", "--windows", "2"]) == EXIT_OK
        assert out.read_bytes() == flagged.read_bytes()

    @pytest.mark.parametrize("command", [["select", "--alpha", "0.2"],
                                         ["calibrate", "--windows", "2"]])
    @pytest.mark.parametrize("flag", ["--dataset", "--catalog"])
    def test_an_empty_input_flag_is_missing_whatever_the_environment(
        self, tmp_path, table1_paths, monkeypatch, capsys, command, flag
    ):
        dataset, catalog = table1_paths
        monkeypatch.setenv("FPSELECT_DATASET", str(dataset))
        monkeypatch.setenv("FPSELECT_CATALOG", str(catalog))
        capsys.readouterr()
        assert main([*command, flag, ""]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            f"fpselect: invalid configuration: missing {flag[2:]} path\n")

    @pytest.mark.parametrize("command", [["select", "--alpha", "0.2"],
                                         ["calibrate", "--windows", "2"]])
    def test_an_empty_out_flag_writes_to_stdout_whatever_the_environment(
        self, tmp_path, table1_paths, monkeypatch, capsys, command
    ):
        dataset, catalog = table1_paths
        monkeypatch.setenv("FPSELECT_OUT", str(tmp_path / "env.json"))
        capsys.readouterr()
        assert main([*command, "--dataset", str(dataset), "--catalog", str(catalog),
                     "--out", ""]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)
        assert not (tmp_path / "env.json").exists()

    def test_run_config_file_with_flag_overrides(self, tmp_path, table1_paths):
        dataset, catalog = table1_paths
        run_config = tmp_path / "run.json"
        run_config.write_text(json.dumps({
            "dataset": str(dataset),
            "catalog": str(catalog),
            "alpha": 0.2,
            "beta": 1,
            "k": 1,
            "seed": 5,
        }))
        out = tmp_path / "report.json"
        status = main([
            "select", "--config", str(run_config), "--out", str(out),
            "--alpha", "0.5",
        ])
        assert status == EXIT_OK
        report = json.loads(out.read_text())
        assert report["config"]["alpha"] == 0.5  # flag wins
        assert report["config"]["seed"] == 5  # file value kept

    def test_report_goes_to_stdout_without_out(self, table1_paths, capsys):
        dataset, catalog = table1_paths
        status = main([
            "select", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2",
        ])
        assert status == EXIT_OK
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["method"] == "greedy"
        assert "chosen" in report


class TestBaselineAndOracleCommands:
    @pytest.mark.parametrize("method", ["entropy", "cond-entropy"])
    def test_baseline_methods(self, tmp_path, table1_paths, method):
        dataset, catalog = table1_paths
        out = tmp_path / "report.json"
        status = main([
            "baseline", "--method", method,
            "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2", "--beta", "1", "--out", str(out),
        ])
        assert status == EXIT_OK
        report = json.loads(out.read_text())
        assert report["method"] == method
        assert report["sensitivity"] <= 0.2

    def test_oracle_agrees_with_select_on_the_worked_example(
        self, tmp_path, table1_paths
    ):
        dataset, catalog = table1_paths
        greedy_out = tmp_path / "greedy.json"
        oracle_out = tmp_path / "oracle.json"
        assert run_select(dataset, catalog, greedy_out) == EXIT_OK
        status = main([
            "oracle", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2", "--beta", "1", "--out", str(oracle_out),
        ])
        assert status == EXIT_OK
        greedy = json.loads(greedy_out.read_text())
        oracle = json.loads(oracle_out.read_text())
        assert oracle["chosen"] == greedy["chosen"]

    @pytest.mark.parametrize("command, explored", [
        (["select"], 2),
        (["baseline", "--method", "entropy"], 2),
        (["baseline", "--method", "cond-entropy"], 2),
        (["oracle"], 16),
    ], ids=["select", "entropy", "cond-entropy", "oracle"])
    def test_alpha_1_selects_the_empty_set(
        self, tmp_path, table1_paths, command, explored
    ):
        """The empty set reaches every user, which alpha 1 allows, and it
        costs nothing: every method reports it, and only the oracle
        measures more than it and the full set."""
        dataset, catalog = table1_paths
        out = tmp_path / "report.json"
        assert main([*command, "--dataset", str(dataset), "--catalog", str(catalog),
                     "--alpha", "1", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["chosen"] == []
        assert report["cost_breakdown"]["total_points"] == 0
        assert report["sensitivity"] == 1
        assert report["explored_count"] == explored

    def test_oracle_refuses_oversized_catalogs(self, tmp_path, synth_paths):
        dataset, catalog = synth_paths
        status = main([
            "oracle", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.25", "--max-n", "2",
        ])
        assert status == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("max_n", ["-1", "21", "31", str(2**63)])
    def test_oracle_refuses_a_max_n_outside_0_20_before_reading_input(
        self, tmp_path, capsys, max_n
    ):
        """A bound past 20 would let the oracle rank 2**n subsets in memory,
        so it exits 4 with a --dataset that names no file, allocating nothing."""
        missing = str(tmp_path / "missing.jsonl")
        _, catalog = write_table1_files(tmp_path, repeats=2)
        capsys.readouterr()
        assert main(["oracle", "--dataset", missing, "--catalog", str(catalog),
                     "--alpha", "0.2", "--max-n", max_n]) == EXIT_BAD_CONFIG
        assert capsys.readouterr() == (
            "", "fpselect: invalid configuration: --max-n must be in [0, 20]\n")

    def test_oracle_takes_a_max_n_of_0_and_of_20(self, tmp_path, capsys):
        dataset, catalog = write_table1_files(tmp_path, repeats=2)
        argv = ["oracle", "--dataset", str(dataset), "--catalog", str(catalog),
                "--alpha", "0.2", "--out", str(tmp_path / "report.json")]
        assert main([*argv, "--max-n", "20"]) == EXIT_OK
        capsys.readouterr()
        assert main([*argv, "--max-n", "0"]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == ("fpselect: invalid configuration:"
                                           " 4 attributes exceed the exhaustive"
                                           " limit of 0\n")

    def test_oracle_without_a_consecutive_pair_exits_4(self, tmp_path, capsys):
        """Instability needs a browser seen twice; the oracle says so, as
        every cost does."""
        dataset, catalog = write_table1_files(tmp_path, repeats=1)
        capsys.readouterr()
        assert main(["oracle", "--dataset", str(dataset), "--catalog", str(catalog),
                     "--alpha", "1"]) == EXIT_BAD_CONFIG
        assert capsys.readouterr() == (
            "", "fpselect: invalid configuration: instability needs at least one"
                " pair of consecutive observations\n")


class TestEvaluateCommand:
    def test_reports_cost_and_reach(self, tmp_path, table1_paths):
        dataset, catalog = table1_paths
        out = tmp_path / "eval.json"
        status = main([
            "evaluate", "--attrs", "Language,Screen",
            "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2", "--beta", "1", "--out", str(out),
        ])
        assert status == EXIT_OK
        report = json.loads(out.read_text())
        assert report["attributes"] == ["Language", "Screen"]
        assert report["sensitivity"] == pytest.approx(1 / 6)
        assert len(report["impersonated_users"]) == 1

    def test_unknown_attribute_is_a_flag_error(self, table1_paths, capsys):
        # No input file is at fault, so the flag is refused as configuration.
        dataset, catalog = table1_paths
        status = main([
            "evaluate", "--attrs", "Ghost",
            "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2",
        ])
        assert status == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "fpselect: invalid configuration: --attrs: unknown attribute 'Ghost'\n")

    def test_stats_exports(self, tmp_path, table1_paths):
        dataset, catalog = table1_paths
        stats_json = tmp_path / "stats.json"
        stats_csv = tmp_path / "stats.csv"
        status = main([
            "evaluate", "--attrs", "Language",
            "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2", "--out", str(tmp_path / "eval.json"),
            "--stats-out", str(stats_json), "--stats-csv", str(stats_csv),
        ])
        assert status == EXIT_OK
        stats = json.loads(stats_json.read_text())
        assert set(stats["per_attribute"]) == {
            "CookieEnabled", "Language", "Screen", "Timezone",
        }
        assert stats_csv.read_text().startswith("attribute,")


class TestCalibrateCommand:
    def test_calibrates_and_writes_catalog(self, tmp_path, synth_paths):
        dataset, catalog = synth_paths
        out = tmp_path / "calibration.json"
        updated = tmp_path / "updated-catalog.json"
        status = main([
            "calibrate", "--dataset", str(dataset), "--catalog", str(catalog),
            "--windows", "3", "--seed", "1",
            "--out", str(out), "--write-catalog", str(updated),
        ])
        assert status == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["windows"] == 3
        entries = json.loads(updated.read_text())
        assert {e["name"] for e in entries} == {"alpha", "beta", "gamma"}
        # The updated catalog must load cleanly and drive a selection run.
        report = tmp_path / "after.json"
        status = main([
            "select", "--dataset", str(dataset), "--catalog", str(updated),
            "--alpha", "0.25", "--beta", "1", "--out", str(report),
        ])
        assert status == EXIT_OK


class TestSynthCommand:
    def test_same_seed_is_byte_identical(self, tmp_path):
        config_path = tmp_path / "generator.json"
        config_path.write_text(json.dumps(GENERATOR_CONFIG))
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        for out in (first, second):
            status = main([
                "synth", "--config", str(config_path), "--seed", "9",
                "--out", str(out),
            ])
            assert status == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_memory_does_not_grow_with_the_dataset(self, tmp_path):
        """Each observation is written as it is drawn, so ten times the
        browsers take about the same peak of traced memory."""
        out = str(tmp_path / "out.jsonl")
        assert main([*_synth_config(tmp_path, browsers=200), "--out", out]) == EXIT_OK
        peaks = []
        for browsers in (200, 2000):
            argv = [*_synth_config(tmp_path, browsers=browsers), "--out", out]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_every_bound_at_once(self, tmp_path):
        """The largest cardinality, value width and mean time a generator
        config takes give values of that width and finite times."""
        out = tmp_path / "out.jsonl"
        argv = _synth_config(tmp_path, browsers=1, cardinality=2**20,
                             value_bytes=2**16, mean_collect_ms=sys.float_info.max / 2)
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        assert {len(row["values"]["alpha"]) for row in rows} == {2**16}
        assert all(0 < row["collect_ms"]["alpha"] < math.inf for row in rows)

    def test_a_negative_seed_is_refused_before_the_output_exists(
        self, tmp_path, capsys
    ):
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        argv = [*_synth_config(tmp_path), "--seed", "-1", "--out", str(out)]
        assert main(argv) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == (
            "fpselect: invalid configuration: seed must be >= 0, got -1\n")
        assert not out.exists()

    def test_invalid_generator_config(self, tmp_path):
        config_path = tmp_path / "generator.json"
        config_path.write_text(json.dumps({
            "browsers": 0, "observations_per_browser": 1, "attributes": [],
        }))
        status = main([
            "synth", "--config", str(config_path), "--out",
            str(tmp_path / "x.jsonl"),
        ])
        assert status == EXIT_BAD_CONFIG


PINNED = Path(__file__).parent / "data" / "pinned"

# The table 1 attributes under a catalog that sets every file key.
EVERY_KEY_CATALOG = [
    {"name": "CookieEnabled", "kind": "category", "async": True},
    {"name": "Language", "kind": "text", "match_threshold": 1},
    {"name": "Screen", "kind": "set", "set_separator": "|"},
    {"name": "Timezone", "kind": "number", "match_threshold": 0.5},
]

# Run in order in one directory, each with its exit status; each writes files
# named as in ``PINNED``.
PINNED_RUNS = [
    (EXIT_OK, ["evaluate", "--attrs", "Language,Screen", "--dataset", "dataset.jsonl",
               "--catalog", "catalog.json", "--alpha", "0.5",
               "--out", "table1-evaluate.json", "--stats-out", "table1-stats.json",
               "--stats-csv", "table1-stats.csv"]),
    (EXIT_OK, ["calibrate", "--dataset", "dataset.jsonl", "--catalog", "catalog.json",
               "--windows", "2", "--out", "table1-calibration.json",
               "--write-catalog", "table1-calibrated-catalog.json"]),
    # Stage 1 satisfies nothing: an empty CSV field and a JSON null.
    (EXIT_OK, ["select", "--dataset", "dataset.jsonl", "--catalog", "catalog.json",
               "--alpha", "0.2", "--k", "2", "--out", "table1-select.json",
               "--trace-csv", "table1-trace.csv"]),
    (EXIT_NO_SOLUTION, ["select", "--dataset", "dataset.jsonl",
                        "--catalog", "catalog.json", "--alpha", "0.05",
                        "--out", "table1-no-solution.json"]),
    (EXIT_OK, ["synth", "--config", "generator.json", "--seed", "3",
               "--out", "synth.jsonl", "--catalog-out", "synth-catalog.json"]),
    (EXIT_OK, ["evaluate", "--attrs", "alpha,gamma", "--dataset", "synth.jsonl",
               "--catalog", "synth-catalog.json", "--alpha", "0.5", "--beta", "2",
               "--weights", "2,3,5", "--seed", "7", "--out", "synth-evaluate.json",
               "--stats-out", "synth-stats.json", "--stats-csv", "synth-stats.csv"]),
    (EXIT_OK, ["calibrate", "--dataset", "synth.jsonl",
               "--catalog", "synth-catalog.json", "--windows", "3", "--seed", "1",
               "--out", "synth-calibration.json",
               "--write-catalog", "synth-calibrated-catalog.json"]),
]


def _write_pinned_files(directory):
    """Run ``PINNED_RUNS`` in ``directory``: on the table 1 inputs under
    ``EVERY_KEY_CATALOG``, with u3 drifting over two more observations, and
    on the generator config."""
    dataset, catalog = write_table1_files(directory, repeats=2)
    with dataset.open("a") as handle:
        for seq, timezone in ((2, "2"), (3, "-2")):
            values = dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u3"]), Timezone=timezone)
            handle.write(json.dumps({"browser_id": "u3", "seq": seq, "values": values,
                                     "collect_ms": {"Screen": 1.5 * seq}}) + "\n")
    catalog.write_text(json.dumps(EVERY_KEY_CATALOG))
    (directory / "generator.json").write_text(json.dumps(GENERATOR_CONFIG))
    for status, argv in PINNED_RUNS:
        assert main(argv) == status


def test_written_files_keep_their_bytes(tmp_path, monkeypatch):
    """Reports, trace CSVs, cost stats and catalogs keep their bytes."""
    monkeypatch.chdir(tmp_path)  # relative paths, so reports name no tmp_path
    _write_pinned_files(tmp_path)
    pinned = sorted(path.name for path in PINNED.iterdir())
    assert len(pinned) == 14
    changed = [name for name in pinned
               if (tmp_path / name).read_bytes() != (PINNED / name).read_bytes()]
    assert changed == []
    catalog = load_catalog("catalog.json")
    stats = attribute_cost_stats(load_observations("dataset.jsonl", catalog),
                                 CostWeights())
    stats.save_json("saved-stats.json")
    assert (tmp_path / "saved-stats.json").read_bytes() == (
        PINNED / "table1-stats.json").read_bytes()


def _number_calibration(tmp_path, value):
    """calibrate argv for a number attribute that holds ``value`` once."""
    catalog = tmp_path / "number-catalog.json"
    catalog.write_text(json.dumps([{"name": "n", "kind": "number"}]))
    dataset = tmp_path / "number.jsonl"
    rows = [("b1", 0, "1"), ("b1", 1, value), ("b2", 0, "2"), ("b2", 1, "3")]
    dataset.write_text("".join(
        json.dumps({"browser_id": b, "seq": s, "values": {"n": v}}) + "\n"
        for b, s, v in rows
    ))
    return ["calibrate", "--dataset", str(dataset), "--catalog", str(catalog),
            "--windows", "1"]


# A JSON integer past the float range: ``float`` of it raises OverflowError.
BIG = "9" * 400


def _huge(obj) -> str:
    """JSON text of ``obj`` with every ``"HUGE"`` string written as 1e400,
    which reads as infinity, and every ``"BIG"`` string as ``BIG``."""
    return json.dumps(obj).replace('"HUGE"', "1e400").replace('"BIG"', BIG)


def _run_config(tmp_path, dataset, catalog, **fields):
    path = tmp_path / "run.json"
    path.write_text(_huge(
        {"dataset": str(dataset), "catalog": str(catalog), "alpha": 0.2, **fields}
    ))
    return ["select", "--config", str(path)]


def _catalog_entry(tmp_path, dataset, catalog, **fields):
    entries = json.loads(catalog.read_text())
    entries[0].update(fields)
    catalog.write_text(_huge(entries))
    return ["select", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2"]


# A JSON document nested deeper than the parser recurses.
DEEP = "[" * 200_000 + "]" * 200_000


def _catalog_text(tmp_path, dataset, catalog, text):
    catalog.write_text(text)
    return ["select", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2"]


def _surrogate_name(tmp_path, dataset, catalog):
    """evaluate with --stats-csv after CookieEnabled is renamed, in the catalog
    and in the dataset, to a name that holds a lone surrogate."""
    for path in (catalog, dataset):
        path.write_text(path.read_text().replace("CookieEnabled", "\\ud800x"))
    return ["evaluate", "--attrs", "Screen", "--dataset", str(dataset), "--catalog",
            str(catalog), "--alpha", "0.2", "--stats-csv", str(tmp_path / "stats.csv")]


def _dataset_line(tmp_path, dataset, catalog, line):
    """evaluate after a 13th dataset line of ``line``."""
    with dataset.open("a") as handle:
        handle.write(line + "\n")
    return ["evaluate", "--attrs", "Screen", "--dataset", str(dataset),
            "--catalog", str(catalog), "--alpha", "0.2"]


def _file_attacker(tmp_path, dataset, catalog, entries,
                   attributes=sorted(TABLE1_ATTRS)):
    pmf = tmp_path / "pmf.json"
    pmf.write_text(_huge({"attributes": attributes, "entries": entries}))
    return ["select", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2", "--knowledge", "file", "--pmf-path", str(pmf)]


def _first_row(tmp_path, dataset, catalog, **fields):
    lines = dataset.read_text().splitlines()
    lines[0] = _huge({**json.loads(lines[0]), **fields})
    dataset.write_text("\n".join(lines) + "\n")
    return ["evaluate", "--attrs", "Screen", "--dataset", str(dataset),
            "--catalog", str(catalog), "--alpha", "0.2"]


def _synth_config(tmp_path, browsers=24, observations_per_browser=2, **attribute):
    first, *rest = GENERATOR_CONFIG["attributes"]
    config = tmp_path / "generator.json"
    config.write_text(_huge({
        **GENERATOR_CONFIG, "browsers": browsers,
        "observations_per_browser": observations_per_browser,
        "attributes": [{**first, **attribute}, *rest],
    }))
    return ["synth", "--config", str(config)]


def _config_text(tmp_path, command, text):
    """``command --config`` on a config file that holds ``text``."""
    config = tmp_path / "config.json"
    config.write_text(text)
    return [command, "--config", str(config)]


def _unusable(tmp_path, dataset, catalog, argv, fault):
    """``argv`` with ``UNUSABLE`` standing for a path that is missing, a
    directory, or a file of two bytes that are not UTF-8."""
    bad = tmp_path / "unusable"
    if fault == "directory":
        bad.mkdir()
    elif fault == "bytes":
        bad.write_bytes(b"\xff\xfe")
    paths = {"UNUSABLE": str(bad), "DATASET": str(dataset), "CATALOG": str(catalog)}
    return [paths.get(arg, arg) for arg in argv]


_SELECT = ["select", "--alpha", "0.2"]
UNUSABLE_INPUTS = {
    "dataset": [*_SELECT, "--dataset", "UNUSABLE", "--catalog", "CATALOG"],
    "catalog": [*_SELECT, "--dataset", "DATASET", "--catalog", "UNUSABLE"],
    "pmf": [*_SELECT, "--dataset", "DATASET", "--catalog", "CATALOG",
            "--knowledge", "file", "--pmf-path", "UNUSABLE"],
    "run-config": ["select", "--config", "UNUSABLE"],
    "generator": ["synth", "--config", "UNUSABLE"],
}


# A path no file can have, with a lone surrogate or a NUL: opening it
# raises ValueError, not OSError.
SURROGATE_PATH, NUL_PATH = "\ud800", "a\x00b"


def _search(tmp_path, dataset, catalog):
    return ["select", "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", "0.2"]


def _evaluate(tmp_path, dataset, catalog):
    return ["evaluate", "--attrs", "Screen", *_search(tmp_path, dataset, catalog)[1:]]


def _with_flag(argv, flag, path):
    """``argv`` on the table 1 inputs, then ``flag path``."""
    return lambda t, d, c: [*argv(t, d, c), flag, path]

MALFORMED = {
    **{
        f"unusable-{name}-{fault}": (
            lambda t, d, c, argv=argv, fault=fault: _unusable(t, d, c, argv, fault))
        for name, argv in UNUSABLE_INPUTS.items()
        for fault in ("missing", "directory", "bytes")
    },
    "unusable-calibrate-dataset-missing": lambda t, d, c: _unusable(
        t, d, c, ["calibrate", "--dataset", "UNUSABLE", "--catalog", "CATALOG"],
        "missing"),
    "catalog-threshold": lambda t, d, c: _catalog_entry(
        t, d, c, match_threshold="x"),
    "catalog-threshold-bool": lambda t, d, c: _catalog_entry(
        t, d, c, kind="text", match_threshold=True),
    "catalog-threshold-big-int": lambda t, d, c: _catalog_entry(
        t, d, c, kind="text", match_threshold="BIG"),
    "catalog-async-string": lambda t, d, c: _catalog_entry(t, d, c, **{
        "async": "false"}),
    "catalog-not-an-array": lambda t, d, c: _catalog_text(t, d, c, "{}"),
    **{
        f"catalog-missing-{field}": lambda t, d, c, field=field: _catalog_text(
            t, d, c, json.dumps([{k: v for k, v in entry.items() if k != field}
                                 for entry in json.loads(c.read_text())]))
        for field in ("name", "kind")
    },
    "catalog-empty": lambda t, d, c: _catalog_text(t, d, c, "[]"),
    "catalog-deep-nesting": lambda t, d, c: _catalog_text(t, d, c, DEEP),
    "catalog-unknown-field": lambda t, d, c: _catalog_entry(t, d, c, colour="red"),
    "catalog-empty-name": lambda t, d, c: _catalog_entry(t, d, c, name=""),
    "catalog-unknown-kind": lambda t, d, c: _catalog_entry(t, d, c, kind="foo"),
    "catalog-category-threshold": lambda t, d, c: _catalog_entry(
        t, d, c, match_threshold=1),
    "catalog-empty-separator": lambda t, d, c: _catalog_entry(
        t, d, c, set_separator=""),
    "catalog-duplicate-name": lambda t, d, c: _catalog_entry(t, d, c, name="Language"),
    "catalog-threshold-negative": lambda t, d, c: _catalog_entry(
        t, d, c, match_threshold=-1),
    "catalog-lone-surrogate-name": _surrogate_name,
    "dataset-deep-nesting": lambda t, d, c: _dataset_line(t, d, c, DEEP),
    "dataset-row-array": lambda t, d, c: _dataset_line(t, d, c, "[1, 2]"),
    "pmf-probability": lambda t, d, c: _file_attacker(
        t, d, c, [{"values": ["True", "fr", "1080", "-1"], "p": "abc"}]),
    "pmf-probability-bool": lambda t, d, c: _file_attacker(
        t, d, c, [{"values": ["True", "fr", "1080", "-1"], "p": True}]),
    "pmf-probability-big-int": lambda t, d, c: _file_attacker(
        t, d, c, [{"values": ["True", "fr", "1080", "-1"], "p": "BIG"}]),
    "pmf-entries-number": lambda t, d, c: _file_attacker(t, d, c, 5),
    "pmf-attributes-number": lambda t, d, c: _file_attacker(
        t, d, c, [{"values": ["True", "fr", "1080", "-1"], "p": 1.0}], attributes=5),
    "pmf-values-number": lambda t, d, c: _file_attacker(
        t, d, c, [{"values": 5, "p": 1.0}]),
    "pmf-value-bool": lambda t, d, c: _file_attacker(
        t, d, c, [{"values": [True, "fr", "1080", "-1"], "p": 1.0}]),
    "pmf-value-null": lambda t, d, c: _file_attacker(
        t, d, c, [{"values": [None, "fr", "1080", "-1"], "p": 1.0}]),
    "config-beta": lambda t, d, c: _run_config(t, d, c, beta="x"),
    "config-beta-overflow": lambda t, d, c: _run_config(t, d, c, beta="HUGE"),
    "config-beta-fraction": lambda t, d, c: _run_config(t, d, c, beta=2.7),
    "config-beta-bool": lambda t, d, c: _run_config(t, d, c, beta=True),
    "config-k-overflow": lambda t, d, c: _run_config(t, d, c, k="HUGE"),
    "config-k-fraction": lambda t, d, c: _run_config(t, d, c, k=2.5),
    "config-seed-bool": lambda t, d, c: _run_config(t, d, c, seed=True),
    "config-pmf-path-number": lambda t, d, c: _run_config(
        t, d, c, knowledge="file", pmf_path=5),
    "config-out-number": lambda t, d, c: _run_config(t, d, c, out=5),
    "config-out-surrogate": lambda t, d, c: _run_config(t, d, c, out=SURROGATE_PATH),
    "config-pmf-path-nul": lambda t, d, c: _run_config(
        t, d, c, knowledge="file", pmf_path=NUL_PATH),
    "path-trace-csv-surrogate": _with_flag(_search, "--trace-csv", SURROGATE_PATH),
    # Only the searches have a trace to export.
    "evaluate-trace-csv": lambda t, d, c: [
        *_evaluate(t, d, c), "--trace-csv", str(t / "trace.csv")],
    "path-stats-out-surrogate": _with_flag(_evaluate, "--stats-out", SURROGATE_PATH),
    "path-stats-csv-nul": _with_flag(_evaluate, "--stats-csv", NUL_PATH),
    "path-catalog-surrogate": _with_flag(_search, "--catalog", SURROGATE_PATH),
    "path-write-catalog-surrogate": lambda t, d, c: [
        *_number_calibration(t, "4"), "--write-catalog", SURROGATE_PATH],
    "path-catalog-out-surrogate": lambda t, d, c: [
        *_synth_config(t), "--catalog-out", SURROGATE_PATH],
    "config-alpha": lambda t, d, c: _run_config(t, d, c, alpha="x"),
    "config-alpha-bool": lambda t, d, c: _run_config(t, d, c, alpha=True),
    "config-alpha-big-int": lambda t, d, c: _run_config(t, d, c, alpha="BIG"),
    "config-weights": lambda t, d, c: _run_config(t, d, c, weights=["a", 1, 1]),
    "config-array": lambda t, d, c: _config_text(t, "select", "[]"),
    "config-knowledge-unknown": lambda t, d, c: _run_config(t, d, c, knowledge="foo"),
    "no-dataset": lambda t, d, c: ["select", "--catalog", str(c), "--alpha", "0.2"],
    "file-knowledge-without-pmf": _with_flag(_search, "--knowledge", "file"),
    "select-threads-zero": _with_flag(_search, "--threads", "0"),
    **{
        f"evaluate-alpha-{alpha}": _with_flag(_evaluate, "--alpha", alpha)
        for alpha in ("7", "-1", "nan")
    },
    "calibrate-no-dataset": lambda t, d, c: ["calibrate", "--catalog", str(c)],
    "calibrate-windows-zero": lambda t, d, c: [
        "calibrate", "--dataset", str(d), "--catalog", str(c), "--windows", "0"],
    # Window counts past a C long, which numpy takes no remainder by.
    **{
        f"calibrate-windows-{label}": lambda t, d, c, windows=windows: [
            "calibrate", "--dataset", str(d), "--catalog", str(c), "--windows",
            windows]
        for label, windows in (("past-int64", str(2**63)), ("huge", str(10**20)))
    },
    "synth-browsers": lambda t, d, c: _synth_config(t, browsers="x"),
    "synth-browsers-overflow": lambda t, d, c: _synth_config(t, browsers="HUGE"),
    "synth-browsers-fraction": lambda t, d, c: _synth_config(t, browsers=24.9),
    "synth-observations-bool": lambda t, d, c: _synth_config(
        t, observations_per_browser=True),
    "synth-name-number": lambda t, d, c: _synth_config(t, name=1.5),
    "synth-skew-overflow": lambda t, d, c: _synth_config(t, zipf_skew="HUGE"),
    "synth-skew-underflow": lambda t, d, c: _synth_config(t, zipf_skew=2000),
    "synth-float-cardinality": lambda t, d, c: _synth_config(t, cardinality=2.5),
    "synth-float-value-bytes": lambda t, d, c: _synth_config(t, value_bytes=3.0),
    "synth-async-string": lambda t, d, c: _synth_config(t, is_async="x"),
    "synth-cardinality-bool": lambda t, d, c: _synth_config(t, cardinality=True),
    "synth-value-bytes-bool": lambda t, d, c: _synth_config(t, value_bytes=True),
    "synth-change-prob-bool": lambda t, d, c: _synth_config(t, change_prob=True),
    "synth-skew-bool": lambda t, d, c: _synth_config(t, zipf_skew=True),
    "synth-collect-ms-bool": lambda t, d, c: _synth_config(
        t, mean_collect_ms=True),
    "synth-collect-ms-overflow": lambda t, d, c: _synth_config(
        t, mean_collect_ms="HUGE"),
    **{
        f"synth-{field.replace('_', '-')}-big-int": lambda t, d, c, field=field:
            _synth_config(t, **{field: "BIG"})
        for field in ("zipf_skew", "change_prob", "mean_collect_ms", "value_bytes")
    },
    "synth-skew-negative": lambda t, d, c: _synth_config(t, zipf_skew=-1),
    "synth-no-observations": lambda t, d, c: _synth_config(
        t, observations_per_browser=0),
    "synth-duplicate-name": lambda t, d, c: _synth_config(t, name="beta"),
    "synth-copy-of-a-copy": lambda t, d, c: _synth_config(t, copy_of="alpha"),
    "synth-array": lambda t, d, c: _config_text(t, "synth", "[]"),
    "synth-value-bytes-zero": lambda t, d, c: _synth_config(t, value_bytes=0),
    "synth-no-attributes": lambda t, d, c: _config_text(t, "synth", json.dumps(
        {**GENERATOR_CONFIG, "attributes": []})),
    "synth-no-browsers": lambda t, d, c: _config_text(t, "synth", json.dumps(
        {key: value for key, value in GENERATOR_CONFIG.items() if key != "browsers"})),
    "calibrate-text-number": lambda t, d, c: _number_calibration(t, "x"),
    "calibrate-nan": lambda t, d, c: _number_calibration(t, "nan"),
    "calibrate-inf": lambda t, d, c: _number_calibration(t, "inf"),
    "nan-collect-ms": lambda t, d, c: _first_row(
        t, d, c, collect_ms={"Screen": float("nan")}),
    "bool-collect-ms": lambda t, d, c: _first_row(
        t, d, c, collect_ms={"Screen": True}),
    "big-int-collect-ms": lambda t, d, c: _first_row(
        t, d, c, collect_ms={"Screen": "BIG"}),
    "collect-ms-array": lambda t, d, c: _first_row(t, d, c, collect_ms=[1]),
    "value-lone-surrogate": lambda t, d, c: _first_row(t, d, c, values={
        **json.loads(d.read_text().splitlines()[0])["values"], "Screen": "\ud800"}),
    "browser-id-lone-surrogate": lambda t, d, c: _first_row(
        t, d, c, browser_id="\ud800"),
    "browser-id-null": lambda t, d, c: _first_row(t, d, c, browser_id=None),
    "browser-id-number": lambda t, d, c: _first_row(t, d, c, browser_id=1),
    "seq-overflow": lambda t, d, c: _first_row(t, d, c, seq="HUGE"),
    "seq-fraction": lambda t, d, c: _first_row(t, d, c, seq=0.5),
    "overflowing-cost": lambda t, d, c: [
        "evaluate", "--attrs", "Screen", "--dataset", str(d), "--catalog",
        str(c), "--alpha", "0.2", "--weights", "1e308,10,10000",
    ],
    # Timezone's 10/6 bytes cost 1.7e308 points; the full set's 11.7 overflow.
    **{
        f"overflowing-stats{suffix}": lambda t, d, c, flag=flag, name=name: [
            "evaluate", "--attrs", "Timezone", "--dataset", str(d), "--catalog",
            str(c), "--alpha", "0.2", "--weights", "1e308,1,1", flag, str(t / name),
        ]
        for suffix, flag, name in (("", "--stats-out", "stats.json"),
                                   ("-csv", "--stats-csv", "stats.csv"))
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_line_and_exit_3_or_4(tmp_path, capsys, case):
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    argv = MALFORMED[case](tmp_path, dataset, catalog)
    capsys.readouterr()
    status = main([*argv, "--out", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert status in (EXIT_SCHEMA_ERROR, EXIT_BAD_CONFIG)
    assert len(err.splitlines()) == 1
    assert err.startswith("fpselect: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "stats.json").exists()
    assert not (tmp_path / "stats.csv").exists()
    if case.startswith("unusable-"):
        assert str(tmp_path / "unusable") in err
    if case.startswith("catalog-"):
        assert f"{catalog}: " in err
    if case.startswith("catalog-missing-"):
        field = case.removeprefix("catalog-missing-")
        assert err == (f"fpselect: schema error: {catalog}: entry 0:"
                       f" missing field {field!r}\n")
    if case == "dataset-deep-nesting":
        assert f"{dataset}:13: invalid JSON: " in err


@pytest.mark.parametrize("alpha", ["7", "-1", "nan", "0"])
@pytest.mark.parametrize("command", ["select", "baseline --method entropy", "oracle",
                                     "evaluate --attrs Screen"])
def test_every_command_refuses_an_alpha_outside_0_1(tmp_path, capsys, command, alpha):
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    argv = [*command.split(), "--dataset", str(dataset), "--catalog", str(catalog),
            "--alpha", alpha]
    capsys.readouterr()
    assert main(argv) == EXIT_BAD_CONFIG
    assert capsys.readouterr() == ("", "fpselect: invalid configuration: sensitivity"
                                       " threshold alpha must be in (0, 1]\n")


@pytest.mark.parametrize("fault, message", [
    (["--alpha", "7"], "sensitivity threshold alpha must be in (0, 1]"),
    (["--alpha", "0"], "sensitivity threshold alpha must be in (0, 1]"),
    (["--k", "0"], "explored path count k must be >= 1"),
    ({"knowledge": "bogus"}, "unknown attacker knowledge 'bogus' (expected one of"
                             " population, uniform, file)"),
    (["--knowledge", "file"], "knowledge 'file' requires --pmf-path"),
    (["--catalog", ""], "missing catalog path"),
    (["--threads", "0"], "--threads must be >= 1"),
    (["--weights", "1,2"], "weights must be three comma-separated numbers"),
], ids=["alpha-7", "alpha-0", "k-0", "config-knowledge", "file-without-pmf",
        "empty-catalog", "threads-0", "weights-two"])
def test_a_config_fault_is_refused_before_any_input_is_read(
    tmp_path, capsys, fault, message
):
    """Each fault, with a --dataset that names no file, exits 4 with its own
    message: the run's settings are checked before the dataset is opened."""
    missing = str(tmp_path / "missing.jsonl")
    _, catalog = write_table1_files(tmp_path, repeats=2)
    if isinstance(fault, dict):
        argv = _run_config(tmp_path, missing, catalog, **fault)
    else:
        argv = ["select", "--dataset", missing, "--catalog", str(catalog),
                "--alpha", "0.2", *fault]
    capsys.readouterr()
    assert main(argv) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == f"fpselect: invalid configuration: {message}\n"


@pytest.mark.parametrize("fault, message", [
    (["--windows", "0"], "windows must be >= 1"),
    (["--negative-cap", "0"], "negative_cap must be >= 1"),
], ids=["windows-0", "negative-cap-0"])
def test_a_calibrate_fault_is_refused_before_any_input_is_read(
    tmp_path, capsys, fault, message
):
    """As for the searches: with a --dataset and a --catalog that name no
    file, each fault exits 4 with its own message."""
    missing = str(tmp_path / "missing")
    argv = ["calibrate", "--dataset", missing, "--catalog", missing, *fault]
    capsys.readouterr()
    assert main(argv) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == f"fpselect: invalid configuration: {message}\n"


@pytest.mark.parametrize("command", ["baseline --method entropy",
                                     "evaluate --attrs Screen"])
def test_a_config_file_k_below_1_is_refused_by_every_command(
    tmp_path, capsys, command
):
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    argv = _run_config(tmp_path, dataset, catalog, k=0)[1:]
    capsys.readouterr()
    assert main([*command.split(), *argv]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        "fpselect: invalid configuration: explored path count k must be >= 1\n")


def test_unread_run_config_keys_are_named_on_stderr(tmp_path, capsys):
    """A misspelt key is not read, so beta stays 1, and stderr names it."""
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    out = tmp_path / "out.json"
    reports = []
    for extra in ({}, {"betta": 8, "\ud800": 1}):
        argv = _run_config(tmp_path, dataset, catalog, **extra)
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
        err = capsys.readouterr().err.splitlines()
        notes = [line for line in err if "not read" in line]
        assert notes == ([f"warning: {tmp_path / 'run.json'}: keys not read:"
                          " 'betta', '\\ud800'"] if extra else [])
    assert reports[0] == reports[1]
    assert json.loads(reports[1])["config"]["beta"] == 1


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_calibrate_refuses_a_negative_cap_below_1(tmp_path, capsys, cap):
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    argv = ["calibrate", "--dataset", str(dataset), "--catalog", str(catalog),
            "--windows", "1", "--negative-cap", cap]
    capsys.readouterr()
    assert main(argv) == EXIT_BAD_CONFIG
    assert capsys.readouterr() == (
        "", "fpselect: invalid configuration: negative_cap must be >= 1\n")


@pytest.mark.parametrize("entries, entry", [
    ([{"values": ["True", "fr", "1080"], "p": 1.0}], 0),
    ([{"values": ["True", "fr", "1080", "-1"], "p": 0.5}] * 2, 1),
    ([{"values": ["True", "fr", "1080", "-1"], "p": 0}], 0),
    ([{"values": ["True", "fr", "1080", "-1"], "p": 0.9}], None),
], ids=["short", "repeated", "zero", "sum"])
def test_pmf_errors_name_the_file_and_the_entry(tmp_path, capsys, entries, entry):
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    argv = _file_attacker(tmp_path, dataset, catalog, entries)
    capsys.readouterr()
    assert main(argv) == EXIT_SCHEMA_ERROR
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith(f"fpselect: schema error: {tmp_path / 'pmf.json'}: ")
    if entry is not None:
        assert f"PMF entry {entry}: " in err


@pytest.mark.parametrize("flag", ["--out", "--trace-csv", "--stats-out",
                                  "--stats-csv", "--write-catalog", "synth --out",
                                  "--catalog-out"])
def test_output_in_a_missing_directory_is_a_config_error(
    tmp_path, capsys, synth_paths, flag
):
    dataset, catalog = synth_paths
    inputs = ["--dataset", str(dataset), "--catalog", str(catalog)]
    report = ["--out", str(tmp_path / "report.json")]
    argv = {
        "--out": ["select", *inputs, "--alpha", "0.5"],
        "--trace-csv": ["select", *inputs, "--alpha", "0.5", *report],
        "--stats-out": ["evaluate", "--attrs", "alpha", *inputs, "--alpha", "0.5",
                        *report],
        "--stats-csv": ["evaluate", "--attrs", "alpha", *inputs, "--alpha", "0.5",
                        *report],
        "--write-catalog": ["calibrate", *inputs, *report],
        "synth --out": ["synth", "--config", str(tmp_path / "generator.json")],
        "--catalog-out": ["synth", "--config", str(tmp_path / "generator.json"),
                          "--out", str(tmp_path / "again.jsonl")],
    }[flag]
    missing = tmp_path / "no" / "such" / "directory" / "file"
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    status = main([*argv, flag.split()[-1], str(missing)])
    err = capsys.readouterr().err
    assert status == EXIT_BAD_CONFIG
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("fpselect: invalid configuration: ")
    assert str(missing) in err.splitlines()[-1]
    # Refused before the command wrote any of its other outputs.
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("bad", [SURROGATE_PATH, NUL_PATH], ids=["surrogate", "nul"])
@pytest.mark.parametrize("flag", ["--config", "--dataset", "--catalog", "--pmf-path",
                                  "--out", "--trace-csv", "--stats-out", "--stats-csv",
                                  "--write-catalog", "synth --config", "synth --out",
                                  "--catalog-out", "run config out"])
def test_a_path_no_file_can_have_is_refused_before_any_input_is_read(
    tmp_path, capsys, flag, bad
):
    argv, option = _path_fault(tmp_path, flag, bad)
    capsys.readouterr()
    assert main(argv) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err == f"fpselect: invalid configuration: {option}: {bad!r} cannot name a file\n"


@pytest.mark.parametrize("source", ["flag", "environment", "run config"])
@pytest.mark.parametrize("label", ["dataset", "catalog"])
def test_an_input_path_that_is_not_utf8_is_refused_whatever_names_it(
    tmp_path, table1_paths, monkeypatch, capsys, label, source
):
    """Reports echo the dataset and catalog paths. A file whose name holds
    byte 0xff exists, but its path reaches ``str`` with a lone surrogate that
    no UTF-8 report can hold, so it is refused before any input is read."""
    paths = dict(zip(("dataset", "catalog"), map(str, table1_paths)))
    bad = tmp_path / os.fsdecode(b"\xff" + label.encode())
    bad.write_bytes(Path(paths[label]).read_bytes())
    paths[label] = str(bad)
    out = tmp_path / "report.json"
    argv = ["evaluate", "--attrs", "Screen", "--alpha", "0.2", "--out", str(out)]
    if source == "flag":
        argv += ["--dataset", paths["dataset"], "--catalog", paths["catalog"]]
    elif source == "environment":
        monkeypatch.setenv("FPSELECT_DATASET", paths["dataset"])
        monkeypatch.setenv("FPSELECT_CATALOG", paths["catalog"])
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps(paths))
        argv += ["--config", str(config)]
    capsys.readouterr()
    assert main(argv) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (f"fpselect: invalid configuration: {label}"
                                       f" path {str(bad)!r} is not UTF-8 text\n")
    assert not out.exists()


@pytest.mark.parametrize("where", ["directory", "missing directory"])
@pytest.mark.parametrize("flag", ["--out", "--trace-csv", "--stats-out", "--stats-csv",
                                  "--write-catalog", "synth --out", "--catalog-out",
                                  "run config out",
                                  *(f"{command} FPSELECT_OUT" for command in (
                                      "select", "baseline", "oracle", "evaluate",
                                      "calibrate"))])
def test_an_unusable_output_path_is_refused_before_any_input_is_read(
    tmp_path, capsys, monkeypatch, flag, where
):
    bad, problem = ((str(tmp_path), "is a directory") if where == "directory" else
                    (str(tmp_path / "no" / "file"), "is not in an existing directory"))
    if flag.endswith("FPSELECT_OUT"):
        monkeypatch.setenv("FPSELECT_OUT", bad)
    argv, option = _path_fault(tmp_path, flag, bad)
    capsys.readouterr()
    assert main(argv) == EXIT_BAD_CONFIG
    err = capsys.readouterr().err
    assert err == f"fpselect: invalid configuration: {option}: {bad!r} {problem}\n"


def _path_fault(tmp_path, flag, bad):
    """argv that passes ``bad`` to ``flag`` (or as a run config's ``out``),
    and the option its refusal names. Every input is missing, so reading any
    of them first fails differently. For ``<command> FPSELECT_OUT`` the
    caller sets the variable to ``bad``, and argv names no report path."""
    missing = str(tmp_path / "missing")
    inputs = ["--dataset", missing, "--catalog", missing]
    run = tmp_path / "run.json"
    run.write_text(json.dumps({"dataset": missing, "catalog": missing, "out": bad}))
    search = [*inputs, "--alpha", "0.5"]
    argv = {
        "--trace-csv": ["select", *search],
        "--write-catalog": ["calibrate", *inputs],
        "synth --config": ["synth", "--out", missing],
        "synth --out": ["synth", "--config", missing],
        "--catalog-out": ["synth", "--config", missing, "--out", missing],
        "run config out": ["select", "--alpha", "0.5", "--config", str(run)],
        "select FPSELECT_OUT": ["select", *search],
        "baseline FPSELECT_OUT": ["baseline", "--method", "entropy", *search],
        "oracle FPSELECT_OUT": ["oracle", *search],
        "calibrate FPSELECT_OUT": ["calibrate", *inputs],
    }.get(flag, ["evaluate", "--attrs", "a", *search])
    if flag == "run config out":
        return argv, f"{run}: out"
    if flag.endswith("FPSELECT_OUT"):
        return argv, "FPSELECT_OUT"
    return [*argv, flag.split()[-1], bad], flag.split()[-1]


@pytest.mark.parametrize("command, source", [
    ("select", "--out"), ("select", "run config out"), ("calibrate", "--out")])
def test_an_unusable_environment_output_that_is_overridden_is_not_checked(
    tmp_path, table1_paths, monkeypatch, command, source
):
    dataset, catalog = table1_paths
    out = tmp_path / "report.json"
    monkeypatch.setenv("FPSELECT_OUT", str(tmp_path))  # a directory
    argv = [command, "--dataset", str(dataset), "--catalog", str(catalog)]
    argv += ["--alpha", "0.2"] if command == "select" else ["--windows", "2"]
    if source == "--out":
        argv += ["--out", str(out)]
    else:
        run = tmp_path / "run.json"
        run.write_text(json.dumps({"out": str(out)}))
        argv += ["--config", str(run)]
    assert main(argv) == EXIT_OK
    assert json.loads(out.read_text())


@pytest.mark.parametrize("fields, message", [
    ({"cardinality": 0}, "attribute 'alpha': cardinality must be >= 1"),
    ({"name": "\ud800x"}, "attribute name '\\ud800x' is not valid UTF-8"),
    ({"kind": "foo"}, "attribute 'alpha': unknown kind 'foo' (expected one of"
                      " text, set, number, category, dynamic)"),
    ({"copy_of": "omega"}, "attribute 'alpha' copies unknown attribute 'omega'"),
    ({"browsers": 0}, "browsers must be >= 1"),
    ({"zipf_skew": 2000}, "attribute 'alpha': zipf_skew 2000 leaves some of 6"
                          " values out"),
    ({"zipf_skew": float("nan")}, "attribute 'alpha': zipf_skew must be >= 0"),
    ({"zipf_skew": "BIG"},
     f"attribute 'alpha': zipf_skew must be <= {sys.float_info.max}"),
    ({"cardinality": "BIG"}, "attribute 'alpha': cardinality must be <= 1048576"),
    ({"cardinality": 2**20 + 1}, "attribute 'alpha': cardinality must be <= 1048576"),
    ({"mean_collect_ms": "BIG"},
     "attribute 'alpha': mean_collect_ms must be in [0, 8.988465674311579e+307]"),
    # A drawn time could reach 1.5 times this mean, past the float range.
    ({"mean_collect_ms": 1.7e308},
     "attribute 'alpha': mean_collect_ms must be in [0, 8.988465674311579e+307]"),
    ({"value_bytes": "BIG"}, "attribute 'alpha': value_bytes must be in [1, 65536]"),
    ({"value_bytes": 2**16 + 1},
     "attribute 'alpha': value_bytes must be in [1, 65536]"),
], ids=["attribute", "lone-surrogate-name", "kind", "copy", "config", "skew-underflow",
        "skew-nan", "skew-big-int", "cardinality-big-int", "cardinality-past-bound",
        "collect-ms-big-int", "collect-ms-past-bound", "value-bytes-big-int",
        "value-bytes-past-bound"])
def test_generator_config_faults_name_the_file(tmp_path, capsys, fields, message):
    out = tmp_path / "out.jsonl"
    argv = [*_synth_config(tmp_path, **fields), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == (
        f"fpselect: invalid configuration: {tmp_path / 'generator.json'}: {message}\n")
    assert not out.exists()


def test_search_commands_count_exact_population_reach(tmp_path, monkeypatch):
    """On an all-exact catalog against the population attacker, the searches
    count the top-beta groups and build no dictionary; evaluate, which lists
    the impersonated users, still builds one."""
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    # The package's ``sensitivity`` is the function, so fetch the module itself.
    module = importlib.import_module("fpselect.sensitivity")
    built = []
    original = module.build_dictionary

    def counted(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "build_dictionary", counted)
    inputs = ["--dataset", str(dataset), "--catalog", str(catalog), "--alpha", "0.4",
              "--beta", "2", "--knowledge", "population",
              "--out", str(tmp_path / "out.json")]
    for command in (["select", "--k", "2"], ["baseline", "--method", "entropy"],
                    ["baseline", "--method", "cond-entropy"], ["oracle"]):
        assert main([*command, *inputs]) == EXIT_OK
    assert built == []
    assert main(["evaluate", "--attrs", "Language,Screen", *inputs]) == EXIT_OK
    assert built


def test_uniform_attackers_list_their_dictionaries(tmp_path, monkeypatch):
    """The uniform attacker's dictionaries are the first tuples of a product:
    oracle and select on an all-exact catalog build them without coding the
    PMF. A population attacker still codes its PMF for a tolerant set."""
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    module = importlib.import_module("fpselect.sensitivity")
    built = []
    original = module.build_dictionary

    def counted(attacker, attrs):
        built.append(attacker)
        return original(attacker, attrs)

    monkeypatch.setattr(module, "build_dictionary", counted)
    inputs = ["--dataset", str(dataset), "--catalog", str(catalog), "--alpha", "0.4",
              "--beta", "2", "--out", str(tmp_path / "out.json")]
    for command in (["oracle"], ["select", "--k", "2"]):
        assert main([*command, *inputs, "--knowledge", "uniform"]) == EXIT_OK
    assert built and all(a.knowledge == "uniform" for a in built)
    assert not any("coded" in vars(a.pmf) for a in built)
    built.clear()
    argv = _catalog_entry(tmp_path, dataset, catalog, kind="text", match_threshold=1)
    assert main([*argv, "--knowledge", "population",
                 "--out", str(tmp_path / "out.json")]) == EXIT_OK
    assert any("coded" in vars(a.pmf) for a in built)


def test_a_budget_past_sys_maxsize_guesses_the_whole_product(tmp_path):
    """A uniform attacker's budget past ``sys.maxsize``, from a flag or a run
    config, guesses every tuple of the product, as a budget of 100,000 does."""
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    inputs = ["--dataset", str(dataset), "--catalog", str(catalog), "--alpha", "1",
              "--knowledge", "uniform"]
    reports = []
    for argv in (["select", *inputs, "--beta", str(10**30)],
                 _run_config(tmp_path, dataset, catalog, alpha=1, knowledge="uniform",
                             beta=10**30),
                 ["select", *inputs, "--beta", "100000"]):
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == EXIT_OK
        report = json.loads((tmp_path / "out.json").read_text())
        report["config"].pop("beta")
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("fields, warned", [
    ({}, False),
    ({"kind": "text", "match_threshold": 1}, True),
])
def test_select_warns_when_sensitivity_may_not_be_monotone(
    tmp_path, capsys, fields, warned
):
    dataset, catalog = write_table1_files(tmp_path, repeats=2)
    argv = _catalog_entry(tmp_path, dataset, catalog, **fields)
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == EXIT_OK
    err = capsys.readouterr().err
    assert ("warning: CookieEnabled match tolerantly" in err) is warned


def _file_attacker_example(tmp_path):
    """Two exact attributes, ten users and a file attacker under which {a}
    measures 0.3, {b} 0.8 and {a, b} 0.7 at beta 1: the inputs of a search
    with alpha 0.5 and that attacker."""
    catalog = tmp_path / "ab-catalog.json"
    catalog.write_text(json.dumps([{"name": "a", "kind": "category"},
                                   {"name": "b", "kind": "category"}]))
    dataset = tmp_path / "ab.jsonl"
    rows = [("0", "0"), ("0", "1"), ("0", "2")] + [("1", "0")] * 7
    dataset.write_text("".join(
        json.dumps({"browser_id": f"u{i}", "seq": seq, "values": {"a": a, "b": b}})
        + "\n" for i, (a, b) in enumerate(rows) for seq in (0, 1)))
    pmf = tmp_path / "ab-pmf.json"
    pmf.write_text(json.dumps({"attributes": ["a", "b"], "entries": [
        {"values": ["0", "0"], "p": 0.2}, {"values": ["0", "1"], "p": 0.2},
        {"values": ["0", "2"], "p": 0.2}, {"values": ["1", "0"], "p": 0.4}]}))
    return ["--dataset", str(dataset), "--catalog", str(catalog), "--alpha", "0.5",
            "--beta", "1", "--knowledge", "file", "--pmf-path", str(pmf),
            "--out", str(tmp_path / "out.json")]


@pytest.mark.parametrize("command, status, chosen", [
    ("oracle", EXIT_OK, ["a"]),
    ("select", EXIT_NO_SOLUTION, None),
    ("baseline --method entropy", EXIT_NO_SOLUTION, None),
    ("baseline --method cond-entropy", EXIT_NO_SOLUTION, None),
])
def test_every_search_warns_when_the_attacker_may_break_monotonicity(
    tmp_path, capsys, command, status, chosen
):
    """The full set measures 0.7, above alpha, yet {a} meets it: the oracle
    searches every subset and finds it; the other searches trust the full
    set, and each says why that may be wrong."""
    assert main([*command.split(), *_file_attacker_example(tmp_path)]) == status
    assert json.loads((tmp_path / "out.json").read_text())["chosen"] == chosen
    assert capsys.readouterr().err.startswith(
        "warning: the file attacker is neither the dataset's population nor"
        " uniform over a full product, so sensitivity may not be monotone")


def _paths(doc, prefix=()):
    """Every key or index path into ``doc``, containers included."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _fuzz_documents():
    """The valid input documents by file name, with the commands that read
    each. The dataset document is the first line of the worked example's
    file, which ``write_table1_files`` writes with its catalog; ``evaluate``
    is the only report that lists browser ids."""
    names = sorted(TABLE1_ATTRS)
    users = sorted({tuple(dict(zip(TABLE1_ATTRS, row))[a] for a in names)
                    for row in TABLE1_ROWS.values()})
    config = ["--config", "run.json"]
    searches = [
        ["select", *config],
        ["baseline", "--method", "cond-entropy", *config],
        ["oracle", *config],
        ["evaluate", "--attrs", "CookieEnabled", "--stats-out", "stats.json", *config],
    ]
    calibrate = ["calibrate", "--dataset", "dataset.jsonl", "--catalog",
                 "catalog.json", "--out", "calibration.json", "--write-catalog",
                 "calibrated.json"]
    synth = ["synth", "--config", "generator.json", "--out", "synth.jsonl",
             "--catalog-out", "synth-catalog.json"]
    return {
        "dataset.jsonl": ({"browser_id": "u1", "seq": 0,
                           "values": dict(zip(TABLE1_ATTRS, TABLE1_ROWS["u1"])),
                           "collect_ms": {}}, [*searches, calibrate]),
        "catalog.json": ([{"name": name, "kind": "category"} for name in TABLE1_ATTRS],
                         [*searches, calibrate]),
        "run.json": ({
            "dataset": "dataset.jsonl", "catalog": "catalog.json", "alpha": 0.5,
            "beta": 2, "k": 2, "seed": 1, "weights": [1, 10, 10000],
            "knowledge": "file", "pmf_path": "pmf.json", "out": "report.json",
        }, searches),
        "pmf.json": ({
            "attributes": names,
            "entries": [{"values": list(u), "p": 1 / len(users)} for u in users],
        }, searches),
        "generator.json": (GENERATOR_CONFIG, [synth]),
    }


FUZZ_DOCUMENTS = _fuzz_documents()


def _write_document(name, doc):
    text = _huge(doc)
    if name == "dataset.jsonl":
        text = "\n".join([text, *Path(name).read_text().splitlines()[1:]])
    Path(name).write_text(text + "\n")


FUZZ_VALUES = [None, True, 1.5, -1, "HUGE", "x", [], {}, "\ud800", math.nan,
               math.inf]
# A document by name, then a key or index path into it.
FUZZ_SITES = st.sampled_from(sorted(FUZZ_DOCUMENTS)).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.sampled_from(list(_paths(FUZZ_DOCUMENTS[name][0])))))


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _strings(doc):
    """Every key and string value in a JSON document."""
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _strings(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _strings(value)


def _check_written(directory):
    """Parse each JSON or JSON Lines file that a command wrote in
    ``directory`` as strict JSON, with only UTF-8 strings, then delete it."""
    for path in sorted(directory.iterdir()):
        if path.name in FUZZ_DOCUMENTS or path.suffix not in (".json", ".jsonl"):
            continue
        text = path.read_text(encoding="utf-8")
        for doc in [text] if path.suffix == ".json" else text.splitlines():
            for string in _strings(json.loads(doc, parse_constant=_not_json)):
                string.encode("utf-8")
        path.unlink()


@settings(max_examples=100, deadline=None)
@given(FUZZ_SITES, st.sampled_from(FUZZ_VALUES))
# The browser id no UTF-8 file can hold, which only evaluate's report lists.
@example(("dataset.jsonl", ("browser_id",)), "\ud800")
def test_one_mutated_field_never_escapes_as_a_traceback(site, value):
    """One field of one input document set to a fuzz value: every command
    that reads the document exits 0, 2, 3 or 4 without a traceback, and
    whatever it writes is strict JSON with UTF-8 strings."""
    name, path = site
    doc, commands = FUZZ_DOCUMENTS[name]
    mutated = target = copy.deepcopy(doc)
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        # The documents name each other by relative path.
        os.chdir(directory)
        try:
            write_table1_files(Path(directory), repeats=2)
            for other, (original, _) in FUZZ_DOCUMENTS.items():
                _write_document(other, mutated if other == name else original)
            for argv in commands:
                err = io.StringIO()
                with redirect_stderr(err), redirect_stdout(io.StringIO()):
                    status = main(argv)
                assert status in (EXIT_OK, EXIT_NO_SOLUTION, EXIT_SCHEMA_ERROR,
                                  EXIT_BAD_CONFIG), argv
                assert "Traceback" not in err.getvalue()
                _check_written(Path(directory))
        finally:
            os.chdir(home)


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        dataset, catalog = write_table1_files(tmp_path, repeats=2)
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "fpselect.cli", "select",
             "--dataset", str(dataset), "--catalog", str(catalog),
             "--alpha", "0.2", "--beta", "1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert out.exists()
        assert proc.stdout == ""  # machine output only goes to files/stdout
        assert "completed" in proc.stderr

    def test_calls_in_one_process_stay_independent(self, tmp_path, capsys):
        """A flag of one call, or a call that fails, leaves nothing behind
        for the next: its report is the one a fresh process writes."""
        dataset, catalog = write_table1_files(tmp_path, repeats=2)
        argv = ["select", "--dataset", str(dataset), "--catalog", str(catalog),
                "--alpha", "0.2"]
        trace = tmp_path / "t.csv"
        assert main([*argv, "--k", "3", "--trace-csv", str(trace)]) == EXIT_OK
        trace.unlink()
        assert main([*argv, "--alpha", "7"]) == EXIT_BAD_CONFIG
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        report = capsys.readouterr().out
        assert json.loads(report)["config"]["k"] == 1
        assert not trace.exists()
        proc = subprocess.run([sys.executable, "-m", "fpselect.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert proc.stdout == report

    @pytest.mark.parametrize("alpha, dataset_line, status", [
        ("0.01", None, EXIT_NO_SOLUTION),
        ("0.2", "{", EXIT_SCHEMA_ERROR),
        ("7", None, EXIT_BAD_CONFIG),
    ], ids=["no-solution", "bad-dataset-line", "alpha-7"])
    def test_module_invocation_exit_codes(self, tmp_path, alpha, dataset_line, status):
        dataset, catalog = write_table1_files(tmp_path, repeats=2)
        if dataset_line:
            with dataset.open("a") as handle:
                handle.write(dataset_line + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fpselect.cli", "select",
             "--dataset", str(dataset), "--catalog", str(catalog),
             "--alpha", alpha, "--out", str(tmp_path / "report.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == status
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        if status != EXIT_NO_SOLUTION:
            assert proc.stderr.startswith("fpselect: ")
            assert len(proc.stderr.splitlines()) == 1

    def test_a_piped_dataset_is_read_once(self, tmp_path):
        # A pipe cannot be read twice, so a dataset that only the checked
        # reading accepts, here for a seq written as a float, must get that
        # reading first.
        dataset, catalog = write_table1_files(tmp_path, repeats=2)
        rows = [json.loads(line) for line in dataset.read_text().splitlines()]
        rows[-1]["seq"] = float(rows[-1]["seq"])
        proc = subprocess.run(
            [sys.executable, "-m", "fpselect.cli", "evaluate", "--attrs", "Screen",
             "--dataset", "/dev/stdin", "--catalog", str(catalog), "--alpha", "0.2",
             "--out", str(tmp_path / "report.json")],
            input="".join(json.dumps(row) + "\n" for row in rows),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
