"""Command-line interface.

Subcommands cover the full pipeline: synthesizing datasets, calibrating
matching thresholds, selecting attribute sets (greedy search, entropy
baselines, exhaustive oracle), and evaluating a hand-picked set. Reports
are deterministic JSON; progress and diagnostics go to standard error.

Exit codes: 0 success, 2 no solution exists for the requested threshold,
3 malformed input file, 4 invalid configuration or an unusable path.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .catalog import as_float, as_int, dump_json, load_catalog, read_json, save_catalog
from .cost import CostWeights, attribute_cost_stats
from .dataset import Dataset, load_observations, save_dataset
from .errors import ConfigError, SchemaError
from .matching import calibrate_thresholds, check_calibration_counts
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
    non_monotone_reason,
    population_attacker,
    uniform_attacker,
)
from .synth import load_synth_config, synth_catalog, synth_observations

EXIT_OK = 0
EXIT_NO_SOLUTION = 2
EXIT_SCHEMA_ERROR = 3
EXIT_BAD_CONFIG = 4

ENV_DATASET = "FPSELECT_DATASET"
ENV_CATALOG = "FPSELECT_CATALOG"
ENV_OUT = "FPSELECT_OUT"
MAX_ORACLE_N = 20  # the oracle holds 2**n costed subsets in memory


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # documented no-solution code; surface a ConfigError instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


KNOWLEDGE = ("population", "uniform", "file")
# The keys a run config file may set: its paths, then the run's settings.
PATH_KEYS = ("dataset", "catalog", "pmf_path", "out")
RUN_CONFIG_KEYS = {*PATH_KEYS, "alpha", "beta", "k", "weights", "knowledge", "seed"}
# Every flag that names a file the command writes.
OUTPUT_FLAGS = ("out", "trace_csv", "stats_out", "stats_csv", "write_catalog",
                "catalog_out")


@dataclass(frozen=True)
class RunConfig:
    """A selection-style run's settings, each checked before any input is read."""

    method: str
    dataset: str
    catalog: str
    selection: SelectionConfig
    beta: int
    knowledge: str
    pmf_path: str | None
    seed: int
    out: str | None

    def __post_init__(self) -> None:
        _require_inputs(self.dataset, self.catalog)
        if self.knowledge not in KNOWLEDGE:
            raise ConfigError(f"unknown attacker knowledge {self.knowledge!r}"
                              f" (expected one of {', '.join(KNOWLEDGE)})")
        if self.knowledge == "file" and not self.pmf_path:
            raise ConfigError("knowledge 'file' requires --pmf-path")

    def to_report_dict(self) -> dict:
        """Every field but the PMF and report paths, the selection spelled out."""
        config = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("selection", "pmf_path", "out")}
        selection = self.selection
        return {**config, "alpha": selection.alpha, "k": selection.k,
                "weights": list(selection.weights.as_tuple())}


def _require_inputs(dataset: str, catalog: str) -> None:
    """Both paths are set, and UTF-8 text, since reports echo them: a lone
    surrogate is how a name's bytes that are not UTF-8 reach ``str``."""
    for label, value in (("dataset", dataset), ("catalog", catalog)):
        if not value:
            raise ConfigError(f"missing {label} path")
        if any("\ud800" <= c <= "\udfff" for c in value):
            raise ConfigError(f"{label} path {value!r} is not UTF-8 text")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _check_path(option: str, path: str | None, output: bool = False) -> None:
    """Refuse a path holding a NUL or a lone surrogate, which no file can have,
    and an ``output`` path that names a directory or whose directory is missing."""
    if not path:
        return
    try:
        usable = b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:
        usable = False
    if not usable:
        raise ConfigError(f"{option}: {path!r} cannot name a file")
    if output and Path(path).is_dir():
        raise ConfigError(f"{option}: {path!r} is a directory")
    if output and not Path(path).parent.is_dir():
        raise ConfigError(f"{option}: {path!r} is not in an existing directory")


def _load_file_config(path: str | None) -> dict:
    """The run config's keys that ``_build_run_config`` picks; any other key
    is named on stderr and not read."""
    if not path:
        return {}
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: run config must be a JSON object")
    if unread := sorted(raw.keys() - RUN_CONFIG_KEYS):
        _progress(f"warning: {path}: keys not read: {', '.join(map(repr, unread))}")
    for key in PATH_KEYS:
        if raw.get(key) is not None and not isinstance(raw[key], str):
            raise ConfigError(f"{key} must be a path string, got {raw[key]!r}")
        _check_path(f"{path}: {key}", raw.get(key), output=key == "out")
    return {key: raw[key] for key in RUN_CONFIG_KEYS & raw.keys()}


def _pick(flag, file_config: dict, key: str, default, env: str | None = None,
          convert=None):
    """The flag, else the config file's ``key``, else ``env``, else ``default``.

    With ``convert`` (``as_float`` or ``as_int``), the value must be a number
    that it accepts.
    """
    if flag is not None:
        value = flag
    elif key in file_config:
        value = file_config[key]
    elif env and os.environ.get(env):
        value = os.environ[env]
    else:
        value = default
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if convert is as_int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None


def _report_path(flag: str | None, file_config: dict) -> str | None:
    """The report path from ``_pick``. ``main`` and ``_load_file_config`` check
    a flag's or a config's; one from the environment is checked here."""
    if flag is None and "out" not in file_config:
        _check_path(ENV_OUT, os.environ.get(ENV_OUT), output=True)
    return _pick(flag, file_config, "out", None, ENV_OUT)


def _build_run_config(args: argparse.Namespace, method: str) -> RunConfig:
    file_config = _load_file_config(getattr(args, "config", None))
    weights_text = _pick(args.weights, file_config, "weights", "1,10,10000")
    if isinstance(weights_text, list):
        weights_text = ",".join(map(str, weights_text))
    weights = CostWeights.parse(str(weights_text))
    if _pick(args.alpha, file_config, "alpha", None) is None:
        raise ConfigError("missing --alpha")
    return RunConfig(
        method=method,
        dataset=_pick(args.dataset, file_config, "dataset", "", ENV_DATASET),
        catalog=_pick(args.catalog, file_config, "catalog", "", ENV_CATALOG),
        selection=SelectionConfig(
            alpha=_pick(args.alpha, file_config, "alpha", None, convert=as_float),
            k=_pick(getattr(args, "k", None), file_config, "k", 1, convert=as_int),
            weights=weights,
        ),
        beta=_pick(args.beta, file_config, "beta", 1, convert=as_int),
        knowledge=str(_pick(args.knowledge, file_config, "knowledge", "population")),
        pmf_path=_pick(args.pmf_path, file_config, "pmf_path", None),
        seed=_pick(args.seed, file_config, "seed", 0, convert=as_int),
        out=_report_path(args.out, file_config),
    )


def _load_inputs(config: RunConfig) -> tuple[Dataset, AttackerInstance]:
    catalog = load_catalog(config.catalog)
    dataset = load_observations(config.dataset, catalog)
    if config.knowledge == "population":
        attacker = population_attacker(dataset, config.beta)
    elif config.knowledge == "uniform":
        attacker = uniform_attacker(dataset, config.beta)
    else:
        attacker = attacker_from_file(config.pmf_path, catalog, config.beta)
    return dataset, attacker


def _trace_to_json(result: SelectionResult) -> list[dict]:
    return [
        {**vars(state), "best_satisfying_cost": (
            None if math.isinf(state.best_satisfying_cost)
            else state.best_satisfying_cost)}
        for state in result.trace
    ]


def _selection_report(result: SelectionResult, config: RunConfig) -> dict:
    report = {**vars(result), "config": config.to_report_dict(),
              "no_solution": result.is_no_solution, "trace": _trace_to_json(result)}
    breakdown = report.pop("breakdown")
    report["cost_breakdown"] = None if breakdown is None else breakdown.to_dict()
    return report


def _write_report(report: dict, out: str | None) -> None:
    text = dump_json(report)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        _progress(f"report written to {out}")
    else:
        sys.stdout.write(text)


def _write_trace_csv(trace: list[dict], path: str) -> None:
    """One row per stage of a report's ``trace``; a missing cost stays empty."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["stage", "expanded_count", "satisfying_count",
             "frontier_count", "pruned_count", "best_satisfying_cost"]
        )
        writer.writerows(
            [state["stage"],
             *(len(state[k]) for k in ("expanded", "satisfying", "frontier", "pruned")),
             state["best_satisfying_cost"]]
            for state in trace
        )


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_search(args: argparse.Namespace) -> int:
    """select, baseline and oracle: search the lattice and report the set."""
    config = _build_run_config(args, args.method)
    greedy = args.method == "greedy"
    if greedy and args.threads is not None and args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    if args.method == "oracle" and not 0 <= args.max_n <= MAX_ORACLE_N:
        raise ConfigError(f"--max-n must be in [0, {MAX_ORACLE_N}]")
    dataset, attacker = _load_inputs(config)
    if reason := non_monotone_reason(attacker, dataset):
        _progress(f"warning: {reason}, so sensitivity may not be monotone and " + (
            "the oracle searches every subset" if args.method == "oracle"
            else f"{args.method} can miss sets that meet alpha"))
    if greedy:
        result = select_greedy(dataset, attacker, config.selection,
                               max_workers=args.threads)
    elif args.method == "oracle":
        result = select_exhaustive(dataset, attacker, config.selection,
                                   max_attributes=args.max_n)
    elif args.method == "entropy":
        result = select_entropy_baseline(dataset, attacker, config.selection)
    else:
        result = select_cond_entropy_baseline(dataset, attacker, config.selection)

    report = _selection_report(result, config)
    _write_report(report, config.out)
    if args.trace_csv:
        _write_trace_csv(report["trace"], args.trace_csv)
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


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _build_run_config(args, "evaluate")
    dataset, attacker = _load_inputs(config)
    try:
        attrs = dataset.catalog.canonical(a for a in args.attrs.split(",") if a)
    except SchemaError as exc:  # the flag is at fault, not a file
        raise ConfigError(f"--attrs: {exc}") from None
    evaluation = evaluate(attrs, dataset, attacker, config.selection.weights)
    report = {
        "method": "evaluate",
        "config": config.to_report_dict(),
        "attributes": list(attrs),
        "cost_breakdown": evaluation.breakdown.to_dict(),
        "sensitivity": evaluation.sensitivity,
        "impersonated_users": sorted(evaluation.impersonated),
    }
    if args.stats_out or args.stats_csv:
        stats = attribute_cost_stats(dataset, config.selection.weights)
        stats_json = dump_json(stats.to_json())  # raises before any file is written
    _write_report(report, config.out)
    if args.stats_out:
        Path(args.stats_out).write_text(stats_json, encoding="utf-8")
        _progress(f"attribute cost stats written to {args.stats_out}")
    if args.stats_csv:
        stats.save_csv(args.stats_csv)
        _progress(f"attribute cost stats written to {args.stats_csv}")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    dataset_path = _pick(args.dataset, {}, "dataset", "", ENV_DATASET)
    catalog_path = _pick(args.catalog, {}, "catalog", "", ENV_CATALOG)
    out = _report_path(args.out, {})
    _require_inputs(dataset_path, catalog_path)
    check_calibration_counts(args.windows, args.negative_cap)
    catalog = load_catalog(catalog_path)
    dataset = load_observations(dataset_path, catalog)
    report = calibrate_thresholds(
        dataset, args.windows, seed=args.seed, negative_cap=args.negative_cap
    )
    payload = {"config": {"windows": args.windows, "seed": args.seed,
                          "negative_cap": args.negative_cap},
               **report.to_json()}
    _write_report(payload, out)
    if args.write_catalog:
        save_catalog(report.apply(catalog), args.write_catalog)
        _progress(f"calibrated catalog written to {args.write_catalog}")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    config = load_synth_config(args.config)
    save_dataset(synth_observations(config, args.seed), args.out)
    _progress(
        f"wrote {config.browsers * config.observations_per_browser} observations"
        f" for {config.browsers} browsers to {args.out}"
    )
    if args.catalog_out:
        save_catalog(synth_catalog(config), args.catalog_out)
        _progress(f"catalog written to {args.catalog_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_path_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="JSONL observation file"
                        f" (default: ${ENV_DATASET})")
    parser.add_argument("--catalog", help="JSON attribute catalog"
                        f" (default: ${ENV_CATALOG})")
    parser.add_argument("--out", help=f"report JSON path (default: ${ENV_OUT}"
                        " or stdout)")


def _add_common_selection_flags(parser: argparse.ArgumentParser) -> None:
    _add_path_flags(parser)
    parser.add_argument("--config", help="run config JSON; flags override it")
    parser.add_argument("--alpha", type=float, help="sensitivity threshold in (0,1]")
    parser.add_argument("--beta", type=int, help="attacker submission budget")
    parser.add_argument("--weights", help="memory,time,instability points"
                        " (default 1,10,10000)")
    parser.add_argument("--knowledge", choices=KNOWLEDGE,
                        help="attacker knowledge model (default population)")
    parser.add_argument("--pmf-path", dest="pmf_path",
                        help="attacker PMF file for --knowledge file")
    parser.add_argument("--seed", type=int, help="seed recorded in the report")


@functools.cache  # parse_args keeps its state in the namespace it returns
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
    p_select.set_defaults(handler=_cmd_search, method="greedy")

    p_baseline = sub.add_parser("baseline", help="entropy-based selection")
    p_baseline.add_argument("--method", required=True,
                            choices=["entropy", "cond-entropy"])
    _add_common_selection_flags(p_baseline)
    p_baseline.set_defaults(handler=_cmd_search)

    p_oracle = sub.add_parser("oracle", help="exhaustive enumeration")
    p_oracle.add_argument("--max-n", dest="max_n", type=int, default=15,
                          help="refuse to enumerate above this attribute count,"
                               f" itself at most {MAX_ORACLE_N}")
    _add_common_selection_flags(p_oracle)
    p_oracle.set_defaults(handler=_cmd_search, method="oracle")
    for p_search in (p_select, p_baseline, p_oracle):
        p_search.add_argument("--trace-csv", dest="trace_csv",
                              help="also write per-stage exploration counts as CSV")

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
    _add_path_flags(p_cal)
    p_cal.add_argument("--windows", type=int, default=6,
                       help="browser samples to average over (default: 6, at least 1)")
    p_cal.add_argument("--seed", type=int, default=0,
                       help="seed of the cross-browser pair draws (default: 0)")
    p_cal.add_argument("--negative-cap", type=int, default=1000, help="cap on the"
                       " cross-browser pairs per window (default: 1000, at least 1)")
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
    started = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        for dest in ("config", "dataset", "catalog", "pmf_path", *OUTPUT_FLAGS):
            _check_path("--" + dest.replace("_", "-"), getattr(args, dest, None),
                        output=dest in OUTPUT_FLAGS)
        status = args.handler(args)
    except SchemaError as exc:
        print(f"fpselect: schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA_ERROR
    except (ConfigError, OSError) as exc:
        print(f"fpselect: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    elapsed_ms = (time.perf_counter() - started) * 1000
    _progress(f"completed in {elapsed_ms:.0f} ms")
    return status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
