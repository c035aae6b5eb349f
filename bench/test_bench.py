"""Tests of the benchmark itself, on a tiny workload.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import sys
import threading
import time

import pytest

from workloads import ROOT, SRC, Command, Workload, generate_inputs, load_golden

sys.path.insert(0, str(SRC))

import make_golden  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402

TINY = Workload(
    name="tiny",
    config="tiny.json",
    commands=(
        Command(
            "select",
            ("select", "--alpha", "0.3", "--beta", "2", "--k", "2", "--threads", "2"),
            "population",
            True,
            golden_argv=("select", "--alpha", "0.3", "--beta", "2", "--k", "2",
                         "--threads", "1"),
        ),
        Command("baseline-entropy",
                ("baseline", "--method", "entropy", "--alpha", "0.3", "--beta", "2"),
                "population", True),
        Command("oracle",
                ("oracle", "--max-n", "4", "--knowledge", "uniform", "--alpha", "0.5",
                 "--beta", "2"),
                "uniform", True),
    ),
)

TINY_CONFIG = {
    "browsers": 40,
    "observations_per_browser": 2,
    "attributes": [
        {"name": "a", "cardinality": 3, "zipf_skew": 1.0, "change_prob": 0.1},
        {"name": "b", "cardinality": 4, "zipf_skew": 0.5, "mean_collect_ms": 5.0},
        {"name": "c", "cardinality": 5, "zipf_skew": 1.2, "is_async": True,
         "mean_collect_ms": 20.0},
        {"name": "d", "copy_of": "a"},
    ],
}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny")
    configs = base / "configs"
    configs.mkdir()
    (configs / "tiny.json").write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    make_golden.write_golden(TINY, base / "golden", base / "golden-work",
                             config_dir=configs, seeds=[0])
    inputs = generate_inputs(TINY, 0, base / "inputs", config_dir=configs)
    return base, inputs


def _runner(tiny, golden_dir=None):
    base, inputs = tiny
    golden = load_golden(golden_dir or base / "golden", TINY, inputs)
    out = base / "out"
    out.mkdir(exist_ok=True)
    return run.Runner(run._import_cli(), TINY, inputs, golden, out)


def _copy_golden(tiny, tmp_path):
    target = tmp_path / "golden"
    shutil.copytree(tiny[0] / "golden", target)
    return target


# -- self-time arithmetic ------------------------------------------------------


def _span(span_id, parent, name, start, end):
    return tr.Span(span_id, parent, name, start, end, "r")


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 1, "b", 3.0, 6.0),  # overlaps a, as pooled workers do
        _span(4, 1, "c", 8.0, 12.0),  # runs past the parent's end
        _span(5, 2, "leaf", 1.5, 2.0),
    ]
    children = tr.children_of(spans)
    by_id = {s.span_id: s for s in spans}
    assert tr.self_time(by_id[1], children) == pytest.approx(10 - 5 - 2)
    assert tr.self_time(by_id[2], children) == pytest.approx(2.5)
    assert tr.self_time(by_id[5], children) == pytest.approx(0.5)
    assert tr.self_time(by_id[1], children, only=("b",)) == pytest.approx(7.0)


def test_spans_nest_and_pool_threads_attach_to_the_open_span():
    tracer = tr.Tracer("r")

    def work():
        with tracer.span("worker"):
            pass

    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    with tracer.span("after"):
        pass
    parents = {s.name: s.parent for s in tracer.spans}
    outer = next(s.span_id for s in tracer.spans if s.name == "outer")
    assert parents == {"inner": outer, "worker": outer, "outer": None, "after": None}


def test_pool_wait_is_worker_wall_time_without_cpu():
    tracer = tr.Tracer("r")

    def work():
        with tracer.span("worker"):
            time.sleep(0.05)  # blocked, as on the GIL: wall time without CPU

    with tracer.span("search"):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    spans = {s.name: s for s in tracer.spans}
    assert spans["worker"].cpu < 0.02 <= spans["worker"].duration
    assert tr.pool_wait(tracer.spans, tracer.owner) == pytest.approx(
        spans["worker"].duration - spans["worker"].cpu)
    assert tr.pool_wait(tracer.spans, spans["worker"].thread) == 0


# -- wrappers --------------------------------------------------------------------


def _traced_objects():
    out = {}
    for module_name, path, _ in tr.TRACED:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        out[(module_name, path)] = vars(owner)[attr]
    return out


def test_wrappers_are_restored_after_a_traced_run(tiny):
    runner = _runner(tiny)
    before = _traced_objects()
    metrics = run.traced_run(runner, 0.0, tiny[0] / "out")
    assert runner.failed == 0 and runner.attempted == 2 * len(TINY.commands)
    assert _traced_objects() == before
    assert set(metrics) == set(tr.LAYER_UNITS)
    assert metrics["selection.measured_sets"] > 0
    assert metrics["sensitivity.build_dictionary_calls"] > 0


def test_timed_run_reports_every_end_to_end_metric(tiny):
    runner = _runner(tiny)
    metrics = run.timed_run(runner, 0.0, tiny[0] / "out")
    assert runner.failed == 0
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in metrics.values())
    summary = json.loads((tiny[0] / "out" / "run-summary.json").read_text())
    assert len(summary["passes"]) == 1


def test_wrappers_are_restored_when_the_block_raises():
    before = _traced_objects()
    with pytest.raises(RuntimeError):
        with tr.installed(tr.Tracer("r")):
            assert _traced_objects() != before
            raise RuntimeError("boom")
    assert _traced_objects() == before


# -- golden and input checks -----------------------------------------------------


def test_tampered_golden_report_is_a_failed_operation(tiny, tmp_path):
    golden = _copy_golden(tiny, tmp_path)
    report = golden / "tiny" / "seed0" / "baseline-entropy.json"
    report.write_text(report.read_text(encoding="utf-8").replace("1", "2", 1),
                      encoding="utf-8")
    runner = _runner(tiny, golden)
    runner.iteration()
    assert (runner.attempted, runner.failed) == (len(TINY.commands), 1)


@pytest.mark.parametrize("key", ["dataset_sha256", "catalog_sha256", "exit_codes"])
def test_tampered_manifest_is_a_failed_operation(tiny, tmp_path, key):
    golden = _copy_golden(tiny, tmp_path)
    manifest_path = golden / "tiny" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if key == "exit_codes":
        manifest["0"][key]["oracle"] += 1
        expected_failures = 1
    else:
        manifest["0"][key] = "0" * 64
        expected_failures = len(TINY.commands)  # unpinned inputs fail everything
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    runner = _runner(tiny, golden)
    runner.iteration()
    assert runner.failed == expected_failures


# -- metric names ----------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert per_layer == list(tr.LAYER_UNITS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {**run.END_TO_END_UNITS, **tr.LAYER_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
