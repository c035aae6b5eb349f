"""Command-line interface.

Subcommands cover the full pipeline: synthesizing datasets, calibrating
matching thresholds, selecting attribute sets (greedy search, entropy
baselines, exhaustive oracle), and evaluating a hand-picked set. Reports
are deterministic JSON; progress and diagnostics go to standard error.

Exit codes: 0 success, 2 no solution exists for the requested threshold,
3 malformed input file, 4 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .catalog import load_catalog, save_catalog
from .cost import CostWeights, attribute_cost_stats
from .dataset import Dataset, load_observations, save_dataset
from .errors import ConfigError, FpselectError, SchemaError
from .matching import calibrate_thresholds
from .selection import (
    SelectionConfig,
    SelectionResult,
    evaluate,
    select_cond_entropy_baseline,
    select_entropy_baseline,
    select_exhaustive,
    select_greedy,
)
from .sensitivity import (
    AttackerInstance,
    attacker_from_file,
    population_attacker,
    uniform_attacker,
)
from .synth import load_synth_config, synth_catalog, synthesize

EXIT_OK = 0
EXIT_NO_SOLUTION = 2
EXIT_SCHEMA_ERROR = 3
EXIT_BAD_CONFIG = 4

ENV_DATASET = "FPSELECT_DATASET"
ENV_CATALOG = "FPSELECT_CATALOG"
ENV_OUT = "FPSELECT_OUT"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # documented no-solution code; surface a ConfigError instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of a selection-style run."""

    method: str
    dataset: str
    catalog: str
    alpha: float
    beta: int
    k: int
    weights: CostWeights
    knowledge: str
    pmf_path: str | None
    seed: int
    out: str | None

    def validate_paths(self) -> None:
        for label, value in (("dataset", self.dataset), ("catalog", self.catalog)):
            if not value:
                raise ConfigError(f"missing {label} path")
            if not Path(value).exists():
                raise ConfigError(f"{label} file {value!r} does not exist")
        if self.knowledge == "file":
            if not self.pmf_path:
                raise ConfigError("knowledge 'file' requires --pmf-path")
            if not Path(self.pmf_path).exists():
                raise ConfigError(f"pmf file {self.pmf_path!r} does not exist")

    def to_report_dict(self) -> dict:
        return {
            "method": self.method,
            "dataset": self.dataset,
            "catalog": self.catalog,
            "alpha": self.alpha,
            "beta": self.beta,
            "k": self.k,
            "weights": list(self.weights.as_tuple()),
            "knowledge": self.knowledge,
            "seed": self.seed,
        }


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _load_file_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: run config must be a JSON object")
    return raw


def _pick(flag, file_config: dict, key: str, env: str | None, default):
    if flag is not None:
        return flag
    if key in file_config:
        return file_config[key]
    if env and os.environ.get(env):
        return os.environ[env]
    return default


def _build_run_config(args: argparse.Namespace, method: str) -> RunConfig:
    file_config = _load_file_config(getattr(args, "config", None))
    weights_text = _pick(args.weights, file_config, "weights", None, "1,10,10000")
    weights = (
        CostWeights(*[float(w) for w in weights_text])
        if isinstance(weights_text, list)
        else CostWeights.parse(str(weights_text))
    )
    alpha = float(_pick(args.alpha, file_config, "alpha", None, None) or 0)
    if alpha == 0:
        raise ConfigError("missing --alpha")
    return RunConfig(
        method=method,
        dataset=str(_pick(args.dataset, file_config, "dataset", ENV_DATASET, "")),
        catalog=str(_pick(args.catalog, file_config, "catalog", ENV_CATALOG, "")),
        alpha=alpha,
        beta=int(_pick(args.beta, file_config, "beta", None, 1)),
        k=int(_pick(getattr(args, "k", None), file_config, "k", None, 1)),
        weights=weights,
        knowledge=str(
            _pick(args.knowledge, file_config, "knowledge", None, "population")
        ),
        pmf_path=_pick(args.pmf_path, file_config, "pmf_path", None, None),
        seed=int(_pick(args.seed, file_config, "seed", None, 0)),
        out=_pick(args.out, file_config, "out", ENV_OUT, None),
    )


def _load_inputs(config: RunConfig) -> tuple[Dataset, AttackerInstance]:
    config.validate_paths()
    catalog = load_catalog(config.catalog)
    dataset = load_observations(config.dataset, catalog)
    if config.knowledge == "population":
        attacker = population_attacker(dataset, config.beta)
    elif config.knowledge == "uniform":
        attacker = uniform_attacker(dataset, config.beta)
    elif config.knowledge == "file":
        attacker = attacker_from_file(config.pmf_path, catalog, config.beta)
    else:
        raise ConfigError(
            f"unknown attacker knowledge {config.knowledge!r}"
            " (expected population, uniform, or file)"
        )
    return dataset, attacker


def _trace_to_json(result: SelectionResult) -> list[dict]:
    out = []
    for state in result.trace:
        out.append(
            {
                "stage": state.stage,
                "expanded": [list(s) for s in state.expanded],
                "satisfying": [list(s) for s in state.satisfying],
                "frontier": [list(s) for s in state.frontier],
                "pruned": [list(s) for s in state.pruned],
                "best_satisfying_cost": (
                    None
                    if math.isinf(state.best_satisfying_cost)
                    else state.best_satisfying_cost
                ),
            }
        )
    return out


def _selection_report(result: SelectionResult, config: RunConfig) -> dict:
    return {
        "method": result.method,
        "config": config.to_report_dict(),
        "no_solution": result.is_no_solution,
        "candidate_sensitivity": result.candidate_sensitivity,
        "chosen": None if result.chosen is None else list(result.chosen),
        "cost_breakdown": (
            None if result.breakdown is None else result.breakdown.to_dict()
        ),
        "sensitivity": result.sensitivity,
        "explored_count": result.explored_count,
        "trace": _trace_to_json(result),
    }


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
        _progress(f"report written to {out}")
    else:
        sys.stdout.write(text)


def _write_trace_csv(result: SelectionResult, path: str) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["stage", "expanded_count", "satisfying_count",
             "frontier_count", "pruned_count", "best_satisfying_cost"]
        )
        for state in result.trace:
            writer.writerow(
                [
                    state.stage,
                    len(state.expanded),
                    len(state.satisfying),
                    len(state.frontier),
                    len(state.pruned),
                    "" if math.isinf(state.best_satisfying_cost)
                    else state.best_satisfying_cost,
                ]
            )


def _finish_selection(result: SelectionResult, config: RunConfig,
                      trace_csv: str | None) -> int:
    report = _selection_report(result, config)
    _write_report(report, config.out)
    if trace_csv:
        _write_trace_csv(result, trace_csv)
    if result.is_no_solution:
        _progress(
            "no solution: even the full candidate set has sensitivity"
            f" {result.candidate_sensitivity:.6g} above the threshold"
        )
        return EXIT_NO_SOLUTION
    _progress(
        f"chosen {len(result.chosen)} attributes, sensitivity"
        f" {result.sensitivity:.6g}, cost {result.breakdown.total_points:.6g} pts,"
        f" explored {result.explored_count} sets"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_select(args: argparse.Namespace) -> int:
    config = _build_run_config(args, "greedy")
    if args.threads is not None and args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    dataset, attacker = _load_inputs(config)
    selection = SelectionConfig(alpha=config.alpha, k=config.k,
                                weights=config.weights)
    result = select_greedy(dataset, attacker, selection,
                           max_workers=args.threads)
    return _finish_selection(result, config, args.trace_csv)


def _cmd_baseline(args: argparse.Namespace) -> int:
    config = _build_run_config(args, args.method)
    dataset, attacker = _load_inputs(config)
    selection = SelectionConfig(alpha=config.alpha, k=1, weights=config.weights)
    runner = (
        select_entropy_baseline
        if args.method == "entropy"
        else select_cond_entropy_baseline
    )
    result = runner(dataset, attacker, selection)
    return _finish_selection(result, config, args.trace_csv)


def _cmd_oracle(args: argparse.Namespace) -> int:
    config = _build_run_config(args, "oracle")
    dataset, attacker = _load_inputs(config)
    selection = SelectionConfig(alpha=config.alpha, k=1, weights=config.weights)
    result = select_exhaustive(dataset, attacker, selection,
                               max_attributes=args.max_n)
    return _finish_selection(result, config, args.trace_csv)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _build_run_config(args, "evaluate")
    dataset, attacker = _load_inputs(config)
    attrs = [a for a in args.attrs.split(",") if a]
    evaluation = evaluate(attrs, dataset, attacker, config.weights)
    report = {
        "method": "evaluate",
        "config": config.to_report_dict(),
        "attributes": list(dataset.catalog.canonical(attrs)),
        "cost_breakdown": evaluation.breakdown.to_dict(),
        "sensitivity": evaluation.sensitivity,
        "impersonated_users": sorted(evaluation.impersonated),
    }
    _write_report(report, config.out)
    if args.stats_out or args.stats_csv:
        stats = attribute_cost_stats(dataset, config.weights)
        if args.stats_out:
            stats.save_json(args.stats_out)
            _progress(f"attribute cost stats written to {args.stats_out}")
        if args.stats_csv:
            stats.save_csv(args.stats_csv)
            _progress(f"attribute cost stats written to {args.stats_csv}")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    dataset_path = args.dataset or os.environ.get(ENV_DATASET)
    catalog_path = args.catalog or os.environ.get(ENV_CATALOG)
    if not dataset_path or not catalog_path:
        raise ConfigError("calibrate requires --dataset and --catalog")
    catalog = load_catalog(catalog_path)
    dataset = load_observations(dataset_path, catalog)
    report = calibrate_thresholds(
        dataset, args.windows, seed=args.seed, negative_cap=args.negative_cap
    )
    payload = {"config": {"windows": args.windows, "seed": args.seed,
                          "negative_cap": args.negative_cap},
               **report.to_json()}
    _write_report(payload, args.out or os.environ.get(ENV_OUT))
    if args.write_catalog:
        save_catalog(report.apply(catalog), args.write_catalog)
        _progress(f"calibrated catalog written to {args.write_catalog}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    config = load_synth_config(args.config)
    dataset = synthesize(config, args.seed)
    save_dataset(dataset, args.out)
    _progress(
        f"wrote {len(dataset.observations)} observations"
        f" for {len(dataset.browser_ids)} browsers to {args.out}"
    )
    if args.catalog_out:
        save_catalog(synth_catalog(config), args.catalog_out)
        _progress(f"catalog written to {args.catalog_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common_selection_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="JSONL observation file"
                        f" (default: ${ENV_DATASET})")
    parser.add_argument("--catalog", help="JSON attribute catalog"
                        f" (default: ${ENV_CATALOG})")
    parser.add_argument("--config", help="run config JSON; flags override it")
    parser.add_argument("--alpha", type=float, help="sensitivity threshold in (0,1]")
    parser.add_argument("--beta", type=int, help="attacker submission budget")
    parser.add_argument("--weights", help="memory,time,instability points"
                        " (default 1,10,10000)")
    parser.add_argument("--knowledge", choices=["population", "uniform", "file"],
                        help="attacker knowledge model (default population)")
    parser.add_argument("--pmf-path", dest="pmf_path",
                        help="attacker PMF file for --knowledge file")
    parser.add_argument("--seed", type=int, help="seed recorded in the report")
    parser.add_argument("--out", help=f"report JSON path (default: ${ENV_OUT}"
                        " or stdout)")
    parser.add_argument("--trace-csv", dest="trace_csv",
                        help="also write per-stage exploration counts as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fpselect",
        description="Select fingerprinting attributes that resist a dictionary"
                    " attacker at minimal usability cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="greedy lattice search")
    _add_common_selection_flags(p_select)
    p_select.add_argument("--k", type=int, help="number of explored paths")
    p_select.add_argument("--threads", type=int, default=None,
                          help="accepted for compatibility, must be >= 1:"
                               " sets are measured one at a time, and every"
                               " value gives the same report")
    p_select.set_defaults(handler=_cmd_select)

    p_baseline = sub.add_parser("baseline", help="entropy-based selection")
    p_baseline.add_argument("--method", required=True,
                            choices=["entropy", "cond-entropy"])
    _add_common_selection_flags(p_baseline)
    p_baseline.set_defaults(handler=_cmd_baseline)

    p_oracle = sub.add_parser("oracle", help="exhaustive enumeration")
    p_oracle.add_argument("--max-n", dest="max_n", type=int, default=15,
                          help="refuse to enumerate above this attribute count")
    _add_common_selection_flags(p_oracle)
    p_oracle.set_defaults(handler=_cmd_oracle)

    p_eval = sub.add_parser("evaluate", help="measure a hand-picked set")
    p_eval.add_argument("--attrs", required=True,
                        help="comma-separated attribute names")
    p_eval.add_argument("--stats-out", dest="stats_out",
                        help="write per-attribute cost stats JSON here")
    p_eval.add_argument("--stats-csv", dest="stats_csv",
                        help="write per-attribute cost stats CSV here")
    _add_common_selection_flags(p_eval)
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_cal = sub.add_parser("calibrate", help="learn matching thresholds")
    p_cal.add_argument("--dataset", help="JSONL observation file")
    p_cal.add_argument("--catalog", help="JSON attribute catalog")
    p_cal.add_argument("--windows", type=int, default=6)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.add_argument("--negative-cap", dest="negative_cap", type=int,
                       default=1000)
    p_cal.add_argument("--out", help="calibration report JSON")
    p_cal.add_argument("--write-catalog", dest="write_catalog",
                       help="write a catalog with calibrated thresholds here")
    p_cal.set_defaults(handler=_cmd_calibrate)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--config", required=True, help="generator config JSON")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="dataset JSONL path")
    p_synth.add_argument("--catalog-out", dest="catalog_out",
                         help="also write the matching catalog here")
    p_synth.set_defaults(handler=_cmd_synth)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        status = args.handler(args)
    except SchemaError as exc:
        print(f"fpselect: schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA_ERROR
    except ConfigError as exc:
        print(f"fpselect: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except FpselectError as exc:
        print(f"fpselect: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    elapsed_ms = (time.perf_counter() - started) * 1000
    _progress(f"completed in {elapsed_ms:.0f} ms")
    return status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
