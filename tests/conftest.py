"""Shared fixtures: the six-user worked example and small helpers."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from fpselect import AttributeCatalog, AttributeSpec, Dataset, Observation

# Hypothesis imports this module, and with it libcst where that is installed,
# to suggest a patch for a failing test. libcst's import warns (a
# DeprecationWarning from mypy_extensions), which -W error turns into an
# INTERNALERROR that hides the failure. Imported here once, with that warning
# ignored, the module is cached for the plugin.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst
        pass

# Six users sharing four exact-match attributes. CookieEnabled is constant,
# Language and Timezone are correlated (Timezone is a function of Language),
# and {Language, Screen} identifies every user uniquely.
TABLE1_ATTRS = ("CookieEnabled", "Language", "Timezone", "Screen")
TABLE1_ROWS = {
    "u1": ("True", "fr", "-1", "1080"),
    "u2": ("True", "en", "-1", "1920"),
    "u3": ("True", "it", "1", "1080"),
    "u4": ("True", "sp", "0", "1920"),
    "u5": ("True", "en", "-1", "1080"),
    "u6": ("True", "fr", "-1", "1920"),
}


def table1_catalog() -> AttributeCatalog:
    return AttributeCatalog(
        tuple(AttributeSpec(name, "category") for name in TABLE1_ATTRS)
    )


def table1_dataset(repeats: int = 1) -> Dataset:
    """The worked-example population; ``repeats`` > 1 duplicates each
    observation so instability (which needs consecutive pairs) is defined."""
    observations = []
    for user, values in TABLE1_ROWS.items():
        for seq in range(repeats):
            observations.append(
                Observation(
                    browser_id=user,
                    seq=seq,
                    values=dict(zip(TABLE1_ATTRS, values)),
                    collect_ms={},
                )
            )
    return Dataset(table1_catalog(), tuple(observations))


def write_table1_files(directory: Path, repeats: int = 1) -> tuple[Path, Path]:
    catalog_path = directory / "catalog.json"
    catalog_path.write_text(
        json.dumps(
            [{"name": name, "kind": "category"} for name in TABLE1_ATTRS]
        ),
        encoding="utf-8",
    )
    dataset_path = directory / "dataset.jsonl"
    with dataset_path.open("w", encoding="utf-8") as handle:
        for user, values in TABLE1_ROWS.items():
            for seq in range(repeats):
                handle.write(
                    json.dumps(
                        {
                            "browser_id": user,
                            "seq": seq,
                            "values": dict(zip(TABLE1_ATTRS, values)),
                            "collect_ms": {},
                        }
                    )
                    + "\n"
                )
    return dataset_path, catalog_path


@pytest.fixture
def catalog() -> AttributeCatalog:
    return table1_catalog()


@pytest.fixture
def dataset() -> Dataset:
    return table1_dataset()


@pytest.fixture
def dataset_with_pairs() -> Dataset:
    return table1_dataset(repeats=2)


def make_dataset(
    specs: tuple[AttributeSpec, ...],
    rows: list[tuple[str, int, dict[str, str]]],
    collect_ms: dict[str, float] | None = None,
) -> Dataset:
    """Build a dataset from (browser, seq, values) triples."""
    base_ms = collect_ms or {}
    observations = tuple(
        Observation(browser_id=b, seq=s, values=v, collect_ms=dict(base_ms))
        for b, s, v in rows
    )
    return Dataset(AttributeCatalog(specs), observations)
