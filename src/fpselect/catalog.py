"""Attribute specifications and the candidate-attribute catalog.

A catalog fixes the candidate attributes, their value kinds, whether they
are collected asynchronously, and the distance threshold their matcher
tolerates. The catalog also fixes the canonical attribute order
(lexicographic by name) that every value tuple in the package follows.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .errors import ConfigError, SchemaError

VALUE_KINDS = ("text", "set", "number", "category", "dynamic")

# Each key of a catalog file entry and the ``AttributeSpec`` field it holds.
FILE_KEYS = {"name": "name", "kind": "kind", "async": "is_async",
             "match_threshold": "match_threshold", "set_separator": "set_separator"}


def as_int(value) -> int:
    """``int(value)``, but a boolean or a fractional number raises ``ValueError``."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def as_float(value) -> float:
    """``float(value)``, but a boolean raises ``ValueError``."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def read_json(path: str | Path):
    """The document in the JSON file at ``path``. Text that is not UTF-8, not
    JSON or nested too deeply raises ``SchemaError``; a failed read, ``OSError``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def dump_json(doc) -> str:
    """``doc`` as strict JSON text with a final newline, the one form of every
    JSON file written; a NaN or an infinity raises ``ConfigError``."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ConfigError("a reported number overflows to infinity") from None


@dataclass(frozen=True)
class AttributeSpec:
    """One candidate attribute: its value kind and matching tolerance.

    ``match_threshold`` is expressed in the distance units of the kind
    (edit operations for text, Jaccard distance for sets, absolute
    difference for numbers, 0/1 for categories). Dynamic attributes are
    always compared for strict equality regardless of the threshold.
    """

    name: str
    kind: str
    is_async: bool = False
    match_threshold: float = 0.0
    set_separator: str = ";"

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute name must be non-empty")
        if re.search("[\ud800-\udfff]", self.name):  # a lone surrogate
            raise SchemaError(f"attribute name {self.name!r} is not valid UTF-8")
        if self.kind not in VALUE_KINDS:
            raise SchemaError(
                f"attribute {self.name!r}: unknown kind {self.kind!r}"
                f" (expected one of {', '.join(VALUE_KINDS)})"
            )
        if not 0 <= self.match_threshold < math.inf:
            raise SchemaError(
                f"attribute {self.name!r}: match_threshold must be finite"
                " and non-negative"
            )
        if self.kind in ("category", "dynamic") and self.match_threshold >= 1:
            raise SchemaError(
                f"attribute {self.name!r}: {self.kind} attributes compare exactly,"
                " so the threshold must stay below 1"
            )
        if not self.set_separator:
            raise SchemaError(f"attribute {self.name!r}: empty set separator")

    @property
    def matches_exactly(self) -> bool:
        """True when matching this attribute reduces to string equality."""
        # Category and dynamic distances are 0/1 and text distances are
        # integers, so a threshold below 1 only accepts distance 0, i.e.
        # identical strings; __post_init__ keeps category and dynamic ones there.
        return self.kind in ("category", "dynamic", "text") and self.match_threshold < 1


@dataclass(frozen=True)
class AttributeCatalog:
    """The ordered candidate set. Order is lexicographic by name."""

    attributes: tuple[AttributeSpec, ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _by_name: dict[str, AttributeSpec] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("catalog must declare at least one attribute")
        ordered = tuple(sorted(self.attributes, key=lambda s: s.name))
        by_name: dict[str, AttributeSpec] = {}
        for spec in ordered:
            if spec.name in by_name:
                raise SchemaError(f"duplicate attribute name {spec.name!r} in catalog")
            by_name[spec.name] = spec
        object.__setattr__(self, "attributes", ordered)
        object.__setattr__(self, "names", tuple(by_name))
        object.__setattr__(self, "_by_name", by_name)

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def spec(self, name: str) -> AttributeSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown attribute {name!r}") from None

    def canonical(self, subset: Iterable[str]) -> tuple[str, ...]:
        """Return ``subset`` as a tuple in canonical order, validating names."""
        wanted = set(subset)
        unknown = wanted - self._by_name.keys()
        if unknown:
            raise SchemaError(f"unknown attribute {sorted(unknown)[0]!r}")
        return tuple(sorted(wanted))  # the catalog sorts its names too

    def with_thresholds(self, thresholds: dict[str, float]) -> "AttributeCatalog":
        """A copy of the catalog with per-attribute thresholds replaced."""
        specs = tuple(
            replace(s, match_threshold=thresholds.get(s.name, s.match_threshold))
            for s in self.attributes
        )
        return AttributeCatalog(specs)


def load_catalog(path: str | Path) -> AttributeCatalog:
    """Parse a catalog file (JSON array of attribute objects)."""
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: catalog must be a JSON array")
    specs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: entry {i} is not an object")
        extra = set(entry) - FILE_KEYS.keys()
        if extra:
            raise SchemaError(f"{path}: entry {i}: unknown field {sorted(extra)[0]!r}")
        for required in ("name", "kind"):
            if required not in entry:
                raise SchemaError(f"{path}: entry {i}: missing field {required!r}")
        for text in ("name", "kind", "set_separator"):
            if not isinstance(entry.get(text, ""), str):
                raise SchemaError(f"{path}: entry {i}: {text} must be a string")
        try:
            threshold = as_float(entry.get("match_threshold", 0.0))
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(
                f"{path}: entry {i}: match_threshold must be a number"
            ) from None
        if not isinstance(entry.get("async", False), bool):
            raise SchemaError(f"{path}: entry {i}: async must be true or false")
        spec_fields = {FILE_KEYS[key]: value for key, value in entry.items()}
        spec_fields["match_threshold"] = threshold
        try:
            specs.append(AttributeSpec(**spec_fields))
        except SchemaError as exc:
            raise SchemaError(f"{path}: entry {i}: {exc}") from exc
    try:
        return AttributeCatalog(tuple(specs))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def catalog_to_json(catalog: AttributeCatalog) -> list[dict]:
    """Catalog in its file representation (canonical order)."""
    return [
        {key: getattr(spec, name) for key, name in FILE_KEYS.items()}
        for spec in catalog.attributes
    ]


def save_catalog(catalog: AttributeCatalog, path: str | Path) -> None:
    Path(path).write_text(dump_json(catalog_to_json(catalog)), encoding="utf-8")
