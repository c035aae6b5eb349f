"""fpselect: cost-aware selection of browser-fingerprinting attributes.

Given a fingerprint dataset, a modeled dictionary attacker, and a
sensitivity threshold, the package searches the power-set lattice of
candidate attributes for the cheapest set that keeps the attacker's reach
below the threshold, and ships entropy baselines plus an exhaustive oracle
for validation.
"""

from .catalog import AttributeCatalog, AttributeSpec, catalog_to_json, load_catalog
from .cost import (
    AttributeCostStats,
    CostBreakdown,
    CostWeights,
    attribute_cost_stats,
    ins_cost,
    mem_cost,
    time_cost,
    total_cost,
)
from .dataset import (
    Dataset,
    Observation,
    Pmf,
    consecutive_pairs,
    joint_entropy_bits,
    load_dataset,
    pmf,
    project,
)
from .errors import ConfigError, FpselectError, SchemaError
from .matching import (
    CalibrationReport,
    DistanceKind,
    attr_match,
    calibrate_thresholds,
    distance,
    fp_match,
)
from .selection import (
    Evaluation,
    SearchState,
    SelectionConfig,
    SelectionResult,
    efficiency,
    evaluate,
    greedy_lattice_search,
    select_cond_entropy_baseline,
    select_entropy_baseline,
    select_exhaustive,
    select_greedy,
)
from .sensitivity import (
    AttackerInstance,
    Dictionary,
    attacker_from_file,
    build_dictionary,
    impersonated_users,
    population_attacker,
    sensitivity,
    uniform_attacker,
)
from .synth import SynthAttribute, SynthConfig, load_synth_config, synthesize

__version__ = "0.1.0"

__all__ = [
    "AttackerInstance",
    "AttributeCatalog",
    "AttributeCostStats",
    "AttributeSpec",
    "CalibrationReport",
    "ConfigError",
    "CostBreakdown",
    "CostWeights",
    "Dataset",
    "Dictionary",
    "DistanceKind",
    "Evaluation",
    "FpselectError",
    "Observation",
    "Pmf",
    "SchemaError",
    "SearchState",
    "SelectionConfig",
    "SelectionResult",
    "SynthAttribute",
    "SynthConfig",
    "attacker_from_file",
    "attr_match",
    "attribute_cost_stats",
    "build_dictionary",
    "calibrate_thresholds",
    "catalog_to_json",
    "consecutive_pairs",
    "distance",
    "efficiency",
    "evaluate",
    "fp_match",
    "greedy_lattice_search",
    "impersonated_users",
    "ins_cost",
    "joint_entropy_bits",
    "load_catalog",
    "load_dataset",
    "load_synth_config",
    "mem_cost",
    "pmf",
    "population_attacker",
    "project",
    "select_cond_entropy_baseline",
    "select_entropy_baseline",
    "select_exhaustive",
    "select_greedy",
    "sensitivity",
    "synthesize",
    "time_cost",
    "total_cost",
    "uniform_attacker",
]
