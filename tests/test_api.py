"""The public API: every name in ``fpselect.__all__`` keeps its signature.

A class pins its constructor; an enum pins its members and an exception its
base class, since neither has a signature that holds across Python versions.
"""

from __future__ import annotations

import enum
import inspect

import fpselect

API = {
    "AttackerInstance": "(pmf: 'Pmf', beta: 'int', knowledge: 'str' = 'population')"
                        " -> None",
    "AttributeCatalog": "(attributes: 'tuple[AttributeSpec, ...]') -> None",
    "AttributeCostStats": "(per_attribute: 'dict[str, CostBreakdown]', candidate_set:"
                          " 'CostBreakdown', minimum: 'CostBreakdown', average:"
                          " 'CostBreakdown', maximum: 'CostBreakdown') -> None",
    "AttributeSpec": "(name: 'str', kind: 'str', is_async: 'bool' = False,"
                     " match_threshold: 'float' = 0.0, set_separator: 'str' = ';')"
                     " -> None",
    "CalibrationReport": "(windows: 'int', window_thresholds:"
                         " 'dict[str, tuple[float, ...]]', thresholds:"
                         " 'dict[str, float]') -> None",
    "ConfigError": "FpselectError",
    "CostBreakdown": "(memory_bytes: 'float', time_ms: 'float', instability_changes:"
                     " 'float', total_points: 'float') -> None",
    "CostWeights": "(memory_per_byte: 'float' = 1.0, time_per_ms: 'float' = 10.0,"
                   " instability_per_change: 'float' = 10000.0) -> None",
    "Dataset": "(catalog: 'AttributeCatalog', observations: 'Iterable[Observation]')"
               " -> 'None'",
    "Dictionary": "(attrs: 'tuple[str, ...]', entries: 'tuple[ValueTuple, ...]',"
                  " probabilities: 'tuple[float, ...]') -> None",
    "DistanceKind": "EDIT_DISTANCE JACCARD_ON_SETS ABSOLUTE_DIFFERENCE"
                    " KRONECKER_COMPLEMENT",
    "Evaluation": "(breakdown: 'CostBreakdown', sensitivity: 'float', impersonated:"
                  " 'frozenset[str]') -> None",
    "FpselectError": "Exception",
    "Observation": "(browser_id: 'str', seq: 'int', values: 'Mapping[str, str]',"
                   " collect_ms: 'Mapping[str, float]') -> None",
    "Pmf": "(attrs: 'tuple[str, ...]', entries: 'tuple[tuple[ValueTuple, float], ...]')"
           " -> None",
    "SchemaError": "FpselectError",
    "SearchState": "(stage: 'int', expanded: 'tuple[AttrSet, ...]', satisfying:"
                   " 'tuple[AttrSet, ...]', frontier: 'tuple[AttrSet, ...]', pruned:"
                   " 'tuple[AttrSet, ...]', best_satisfying_cost: 'float') -> None",
    "SelectionConfig": "(alpha: 'float', k: 'int' = 1, weights: 'CostWeights' ="
                       " <factory>) -> None",
    "SelectionResult": "(method: 'str', chosen: 'AttrSet | None', breakdown:"
                       " 'CostBreakdown | None', sensitivity: 'float | None',"
                       " candidate_sensitivity: 'float', explored_count: 'int',"
                       " trace: 'tuple[SearchState, ...]' = ()) -> None",
    "SynthAttribute": "(name: 'str', cardinality: 'int' = 2, zipf_skew: 'float' = 1.0,"
                      " change_prob: 'float' = 0.0, mean_collect_ms: 'float' = 0.0,"
                      " value_bytes: 'int' = 4, kind: 'str' = 'category', is_async:"
                      " 'bool' = False, copy_of: 'str | None' = None) -> None",
    "SynthConfig": "(browsers: 'int', observations_per_browser: 'int', attributes:"
                   " 'tuple[SynthAttribute, ...]') -> None",
    "attacker_from_file": "(path: 'str | Path', catalog: 'AttributeCatalog', beta:"
                          " 'int') -> 'AttackerInstance'",
    "attr_match": "(spec: 'AttributeSpec', stored: 'str', submitted: 'str') -> 'bool'",
    "attribute_cost_stats": "(dataset: 'Dataset', weights: 'CostWeights')"
                            " -> 'AttributeCostStats'",
    "build_dictionary": "(attacker: 'AttackerInstance', attrs: 'Iterable[str]')"
                        " -> 'Dictionary'",
    "calibrate_thresholds": "(dataset: 'Dataset', windows: 'int', *, seed: 'int' = 0,"
                            " negative_cap: 'int' = 1000) -> 'CalibrationReport'",
    "catalog_to_json": "(catalog: 'AttributeCatalog') -> 'list[dict]'",
    "consecutive_pairs": "(dataset: 'Dataset')"
                         " -> 'list[tuple[ValueTuple, ValueTuple]]'",
    "distance": "(kind: 'DistanceKind', x: 'str', y: 'str', separator: 'str' = ';')"
                " -> 'float'",
    "efficiency": "(attrs: 'Iterable[str]', dataset: 'Dataset', weights:"
                  " 'CostWeights', sensitivity_value: 'float') -> 'float'",
    "evaluate": "(attrs: 'Iterable[str]', dataset: 'Dataset', attacker:"
                " 'AttackerInstance', weights: 'CostWeights') -> 'Evaluation'",
    "fp_match": "(attrs: 'Sequence[str]', catalog: 'AttributeCatalog', stored:"
                " 'Sequence[str]', submitted: 'Sequence[str]') -> 'bool'",
    "greedy_lattice_search": "(attributes: 'Sequence[str]', measure: 'MeasureFn',"
                             " alpha: 'float', k: 'int', *, max_workers:"
                             " 'int | None' = 1) -> 'LatticeSearchOutcome'",
    "impersonated_users": "(attrs: 'Iterable[str]', attacker: 'AttackerInstance',"
                          " mapping: 'UserMapping', catalog: 'AttributeCatalog')"
                          " -> 'set[str]'",
    "ins_cost": "(attrs: 'Iterable[str]', dataset: 'Dataset') -> 'float'",
    "joint_entropy_bits": "(dataset: 'Dataset', attrs: 'Iterable[str]') -> 'float'",
    "load_catalog": "(path: 'str | Path') -> 'AttributeCatalog'",
    "load_dataset": "(path: 'str | Path', catalog_path: 'str | Path') -> 'Dataset'",
    "load_synth_config": "(path: 'str | Path') -> 'SynthConfig'",
    "mem_cost": "(attrs: 'Iterable[str]', dataset: 'Dataset') -> 'float'",
    "pmf": "(dataset: 'Dataset', attrs: 'Iterable[str]') -> 'Pmf'",
    "population_attacker": "(dataset: 'Dataset', beta: 'int') -> 'AttackerInstance'",
    "project": "(values: 'Sequence[str]', source: 'Sequence[str]', target:"
               " 'Iterable[str]') -> 'ValueTuple'",
    "select_cond_entropy_baseline": "(dataset: 'Dataset', attacker: 'AttackerInstance',"
                                    " config: 'SelectionConfig') -> 'SelectionResult'",
    "select_entropy_baseline": "(dataset: 'Dataset', attacker: 'AttackerInstance',"
                               " config: 'SelectionConfig') -> 'SelectionResult'",
    "select_exhaustive": "(dataset: 'Dataset', attacker: 'AttackerInstance', config:"
                         " 'SelectionConfig', max_attributes: 'int' = 15)"
                         " -> 'SelectionResult'",
    "select_greedy": "(dataset: 'Dataset', attacker: 'AttackerInstance', config:"
                     " 'SelectionConfig', *, max_workers: 'int | None' = 1)"
                     " -> 'SelectionResult'",
    "sensitivity": "(attrs: 'Iterable[str]', attacker: 'AttackerInstance', mapping:"
                   " 'UserMapping', catalog: 'AttributeCatalog') -> 'float'",
    "synthesize": "(config: 'SynthConfig', seed: 'int') -> 'Dataset'",
    "time_cost": "(attrs: 'Iterable[str]', dataset: 'Dataset') -> 'float'",
    "total_cost": "(attrs: 'Iterable[str]', dataset: 'Dataset', weights:"
                  " 'CostWeights') -> 'CostBreakdown'",
    "uniform_attacker": "(dataset: 'Dataset', beta: 'int', *, max_support: 'int' ="
                        " 200000) -> 'AttackerInstance'",
}

# The public methods of the classes whose files and reports are the contract;
# a classmethod is read from the class, so it shows no ``cls``.
METHODS = {
    "CostWeights": {
        "as_tuple": "(self) -> 'tuple[float, float, float]'",
        "combine": "(self, memory_bytes: 'float', time_ms: 'float', instability:"
                   " 'float') -> 'float'",
        "parse": "(text: 'str') -> \"'CostWeights'\"",
    },
    "CostBreakdown": {"to_dict": "(self) -> 'dict[str, float]'"},
    "AttributeCostStats": {
        "save_csv": "(self, path: 'str | Path') -> 'None'",
        "save_json": "(self, path: 'str | Path') -> 'None'",
        "to_json": "(self) -> 'dict'",
    },
    "AttributeCatalog": {
        "canonical": "(self, subset: 'Iterable[str]') -> 'tuple[str, ...]'",
        "spec": "(self, name: 'str') -> 'AttributeSpec'",
        "with_thresholds": "(self, thresholds: 'dict[str, float]')"
                           " -> \"'AttributeCatalog'\"",
    },
}


def _pinned_form(obj) -> str:
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return " ".join(obj.__members__)
    if isinstance(obj, type) and issubclass(obj, Exception):
        return obj.__base__.__name__
    return str(inspect.signature(obj))


def test_every_public_name_keeps_its_signature():
    assert sorted(fpselect.__all__) == sorted(API)
    assert {name: _pinned_form(getattr(fpselect, name)) for name in API} == API


def test_contract_classes_keep_their_public_methods():
    found = {}
    for class_name in METHODS:
        cls = getattr(fpselect, class_name)
        found[class_name] = {
            name: str(inspect.signature(getattr(cls, name)))
            for name, member in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(member) or isinstance(member, classmethod))
        }
    assert found == METHODS
