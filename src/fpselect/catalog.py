"""Attribute specifications and the candidate-attribute catalog.

A catalog fixes the candidate attributes, their value kinds, whether they
are collected asynchronously, and the distance threshold their matcher
tolerates. The catalog also fixes the canonical attribute order
(lexicographic by name) that every value tuple in the package follows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .errors import SchemaError

VALUE_KINDS = ("text", "set", "number", "category", "dynamic")


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
        if self.kind not in VALUE_KINDS:
            raise SchemaError(
                f"attribute {self.name!r}: unknown kind {self.kind!r}"
                f" (expected one of {', '.join(VALUE_KINDS)})"
            )
        if self.match_threshold < 0:
            raise SchemaError(
                f"attribute {self.name!r}: match_threshold must be non-negative"
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
        if self.kind == "dynamic":
            return True
        # Category distances are 0/1 and text distances are integers, so a
        # threshold below 1 only accepts distance 0, i.e. identical strings.
        return self.kind in ("category", "text") and self.match_threshold < 1


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
        return tuple(n for n in self.names if n in wanted)

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
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise SchemaError(f"{path}: catalog must be a JSON array")
    specs = []
    allowed = {"name", "kind", "async", "set_separator", "match_threshold"}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: entry {i} is not an object")
        extra = set(entry) - allowed
        if extra:
            raise SchemaError(f"{path}: entry {i}: unknown field {sorted(extra)[0]!r}")
        for required in ("name", "kind"):
            if required not in entry:
                raise SchemaError(f"{path}: entry {i}: missing field {required!r}")
        specs.append(
            AttributeSpec(
                name=str(entry["name"]),
                kind=str(entry["kind"]),
                is_async=bool(entry.get("async", False)),
                match_threshold=float(entry.get("match_threshold", 0.0)),
                set_separator=str(entry.get("set_separator", ";")),
            )
        )
    return AttributeCatalog(tuple(specs))


def catalog_to_json(catalog: AttributeCatalog) -> list[dict]:
    """Catalog in its file representation (canonical order)."""
    return [
        {
            "name": s.name,
            "kind": s.kind,
            "async": s.is_async,
            "match_threshold": s.match_threshold,
            "set_separator": s.set_separator,
        }
        for s in catalog.attributes
    ]


def save_catalog(catalog: AttributeCatalog, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(catalog_to_json(catalog), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
