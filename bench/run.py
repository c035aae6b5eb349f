"""Benchmark of the fpselect load -> attacker -> search -> report pipeline.

Usage, from the repository root:

    python3 bench/run.py --workload exact-population --seed 1 --seconds 30 --trace 0

Each command of the workload runs in-process through
``fpselect.cli.main(argv)``, exactly as a user would type it, and is
checked against its golden exit code and report. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr
from pathlib import Path

from tracer import LAYER_UNITS, Tracer, installed, layer_metrics, search_shares
from workloads import (
    GOLDEN_DIR,
    POOL_SIZE,
    SRC,
    WORK_DIR,
    WORKLOADS,
    Golden,
    Inputs,
    generate_inputs,
    load_golden,
)

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "sets_per_s": "1/s",
                    "peak_rss_mb": "MB"}
SETUP_SECONDS_PER_PASS = 0.25
# host_probe's time on the 2-core sandbox the benchmark was sized on.
PROBE_REFERENCE_S = 0.2


def _import_cli():
    """Import ``fpselect.cli`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "fpselect" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fpselect package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fpselect.cli

    if Path(fpselect.cli.__file__).resolve().parent != SRC / "fpselect":
        raise SystemExit("bench: imported fpselect from outside the checkout")
    return fpselect.cli


class Runner:
    """Runs one workload's commands and checks each against its golden."""

    def __init__(self, cli, workload, inputs: Inputs, golden: Golden | None,
                 out_dir: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.golden = golden
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0

    def setup_once(self) -> float:
        """Seconds the workload's commands spend loading and building attackers."""
        cli = self.cli
        started = time.perf_counter()
        for command in self.workload.commands:
            catalog = cli.load_catalog(self.inputs.catalog)
            dataset = cli.load_observations(self.inputs.dataset, catalog)
            if command.knowledge == "population":
                cli.population_attacker(dataset, command.beta)
            elif command.knowledge == "uniform":
                cli.uniform_attacker(dataset, command.beta)
        return time.perf_counter() - started

    def iteration(self, tracer=None) -> list[tuple[object, float, dict | None]]:
        """Run every command once; return (command, seconds, report) each."""
        results = []
        for command in self.workload.commands:
            out = self.out_dir / f"{command.name}.json"
            out.unlink(missing_ok=True)
            argv = self.inputs.argv(command, out)
            started = time.perf_counter()
            try:
                with redirect_stderr(io.StringIO()):
                    if tracer is None:
                        status = self.cli.main(argv)
                    else:
                        with tracer.span(f"command.{command.name}"):
                            status = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not a dead run
                traceback.print_exc()
                status = None
            seconds = time.perf_counter() - started
            text = out.read_text(encoding="utf-8") if out.exists() else None
            report = self._check(command, status, text)
            results.append((command, seconds, report))
        return results

    def _check(self, command, status, text) -> dict | None:
        self.attempted += 1
        normalised = None if text is None else self.inputs.normalise(text)
        if self.golden is None or not self.golden.matches(command, status, normalised):
            self.failed += 1
            print(f"bench: {self.workload.name}/{command.name}: exit {status} or"
                  " report differs from the golden", file=sys.stderr)
        return None if text is None else json.loads(text)


def _repeat(seconds: float, step) -> list:
    """Call ``step`` at least once, until another call would overrun ``seconds``."""
    results, lengths = [], []
    started = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        results.append(step(len(results)))
        lengths.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(lengths) > seconds:
            return results


def host_probe() -> float:
    """Seconds a fixed pure-Python job takes on this host right now.

    The job is shaped like fpselect's hot loops: it projects value tuples,
    counts them and ranks the counts. It never calls fpselect, so a change
    to the package cannot move it.
    """
    rng = random.Random(0)
    names = tuple(f"a{i:02d}" for i in range(31))
    rows = [tuple(str(rng.randrange(50)).zfill(8) for _ in names) for _ in range(400)]
    started = time.perf_counter()
    for k in range(150):
        wanted = set(names[k % 31:k % 31 + 5])
        counts = Counter(
            tuple(v for a, v in zip(names, row) if a in wanted) for row in rows
        )
        sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return time.perf_counter() - started


def timed_run(runner: Runner, seconds: float, work: Path) -> dict[str, float]:
    """End-to-end metrics with tracing off, as medians over repeated passes.

    The speed of a shared host drifts by tens of percent over minutes.
    Each pass therefore times ``host_probe`` before and after its commands,
    and its times are scaled by ``PROBE_REFERENCE_S`` over the probe's mean:
    they read as seconds on a host where the probe takes that long. The
    unscaled values go to ``run-summary.json``.
    """

    def step(_):
        probe = host_probe()
        # Short set-ups are repeated, so that every workload's setup_s is a
        # median over a similar amount of measured time.
        setups = [runner.setup_once()]
        while sum(setups) < SETUP_SECONDS_PER_PASS:
            setups.append(runner.setup_once())
        gc.collect()
        passes = runner.iteration()
        probe = (probe + host_probe()) / 2
        wall = sum(t for _, t, _ in passes)
        measuring = [(t, r) for c, t, r in passes if c.measures_sets]
        sets = sum(r["explored_count"] for _, r in measuring if r)
        return {"probe_s": probe, "setup_s": setups,
                "solve_s": wall - statistics.median(setups),
                "sets_per_s": sets / sum(t for t, _ in measuring)}

    steps = _repeat(seconds, step)
    (work / "run-summary.json").write_text(json.dumps(
        {"probe_reference_s": PROBE_REFERENCE_S, "passes": steps}, indent=1
    ) + "\n", encoding="utf-8")
    scale = [PROBE_REFERENCE_S / s["probe_s"] for s in steps]
    return {
        "setup_s": statistics.median(
            x * f for s, f in zip(steps, scale) for x in s["setup_s"]),
        "solve_s": statistics.median(s["solve_s"] * f for s, f in zip(steps, scale)),
        "sets_per_s": statistics.median(
            s["sets_per_s"] / f for s, f in zip(steps, scale)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(runner: Runner, seconds: float, work: Path) -> dict[str, float]:
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    tracers: list[Tracer] = []

    def step(index):
        untraced = sum(t for _, t, _ in runner.iteration())
        gc.collect()
        tracer = Tracer(f"{runner.workload.name}:{runner.inputs.synth_seed}:{index}")
        with installed(tracer):
            passes = runner.iteration(tracer)
        tracers.append(tracer)
        traced = sum(t for _, t, _ in passes)
        reports = [r for c, _, r in passes if c.measures_sets and r]
        return untraced, traced, layer_metrics(tracer, reports)

    steps = _repeat(seconds, step)
    metrics = {
        name: statistics.median(s[2][name] for s in steps)
        for name in LAYER_UNITS if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = (statistics.median(s[1] for s in steps)
                                   - statistics.median(s[0] for s in steps))
    with (work / "spans.jsonl").open("w", encoding="utf-8") as handle:
        for tracer in tracers:
            for span in tracer.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
    summary = {"metrics": metrics, "shares": search_shares(tracers[-1])}
    (work / "trace-summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_cli()

    workload = WORKLOADS[args.workload]
    synth_seed = args.seed % POOL_SIZE
    work = WORK_DIR / workload.name
    inputs = generate_inputs(workload, synth_seed, work / "inputs")
    golden = load_golden(GOLDEN_DIR, workload, inputs)
    runner = Runner(cli, workload, inputs, golden, work)
    if args.trace:
        units = LAYER_UNITS
        metrics = traced_run(runner, args.seconds, work)
    else:
        units = END_TO_END_UNITS
        metrics = timed_run(runner, args.seconds, work)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
