"""Deterministic synthetic fingerprint datasets.

The generator exists so the selection machinery can be exercised at desk
scale: attribute value frequencies follow a Zipf-like rank law, values
drift between observations with a configurable probability, and an
attribute may be declared a deterministic copy of another to reproduce
fully correlated pairs.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import AttributeCatalog, AttributeSpec, as_int, read_json
from .dataset import Dataset, Observation
from .errors import ConfigError, SchemaError

# Bounds that the rank weights and a drawn value can always be allocated at.
MAX_CARDINALITY = 2**20
MAX_VALUE_BYTES = 2**16
# A time is drawn as uniform(0.5, 1.5) * mean, whose factor can round to 1.5.
MAX_MEAN_COLLECT_MS = sys.float_info.max / 2


@dataclass(frozen=True)
class SynthAttribute:
    """Generator parameters for one attribute.

    ``copy_of`` turns the attribute into a deterministic function of the
    named source attribute: its value is the source's current rank, so its
    conditional entropy given the source is zero.
    For copies, ``cardinality``, ``zipf_skew``, and ``change_prob`` are
    inherited from the source.
    """

    name: str
    cardinality: int = 2
    zipf_skew: float = 1.0
    change_prob: float = 0.0
    mean_collect_ms: float = 0.0
    value_bytes: int = 4
    kind: str = "category"
    is_async: bool = False
    copy_of: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"attribute name {self.name!r} is not a non-empty string")
        AttributeSpec(self.name, self.kind)  # refuses what a catalog would
        for param in ("cardinality", "value_bytes"):
            if type(getattr(self, param)) is not int:
                raise ConfigError(
                    f"attribute {self.name!r}: {param} must be an integer"
                )
        for param in ("zipf_skew", "change_prob", "mean_collect_ms"):
            if isinstance(getattr(self, param), bool):
                raise ConfigError(f"attribute {self.name!r}: {param} must be a number")
        if self.copy_of is None and self.cardinality < 1:
            raise ConfigError(f"attribute {self.name!r}: cardinality must be >= 1")
        if self.copy_of is None and self.cardinality > MAX_CARDINALITY:
            raise ConfigError(
                f"attribute {self.name!r}: cardinality must be <= {MAX_CARDINALITY}"
            )
        if not self.zipf_skew >= 0:
            raise ConfigError(f"attribute {self.name!r}: zipf_skew must be >= 0")
        # An int compares exactly, so this bound refuses one past a float.
        if self.zipf_skew > sys.float_info.max:
            raise ConfigError(
                f"attribute {self.name!r}: zipf_skew must be <= {sys.float_info.max}"
            )
        if self.copy_of is None and not self.cardinality ** -self.zipf_skew > 0:
            raise ConfigError(f"attribute {self.name!r}: zipf_skew {self.zipf_skew}"
                              f" leaves some of {self.cardinality} values out")
        if not 0.0 <= self.change_prob <= 1.0:
            raise ConfigError(f"attribute {self.name!r}: change_prob outside [0, 1]")
        # An int compares exactly, so a float bound also refuses one that
        # overflows a float.
        if not 0 <= self.mean_collect_ms <= MAX_MEAN_COLLECT_MS:
            raise ConfigError(f"attribute {self.name!r}: mean_collect_ms must be"
                              f" in [0, {MAX_MEAN_COLLECT_MS}]")
        if not 1 <= self.value_bytes <= MAX_VALUE_BYTES:
            raise ConfigError(f"attribute {self.name!r}: value_bytes must be"
                              f" in [1, {MAX_VALUE_BYTES}]")
        if not isinstance(self.is_async, bool):
            raise ConfigError(
                f"attribute {self.name!r}: is_async must be true or false"
            )


@dataclass(frozen=True)
class SynthConfig:
    browsers: int
    observations_per_browser: int
    attributes: tuple[SynthAttribute, ...]

    def __post_init__(self) -> None:
        if self.browsers < 1:
            raise ConfigError("browsers must be >= 1")
        if self.observations_per_browser < 1:
            raise ConfigError("observations_per_browser must be >= 1")
        if not self.attributes:
            raise ConfigError("at least one attribute is required")
        names = {a.name for a in self.attributes}
        if len(names) != len(self.attributes):
            raise ConfigError("duplicate attribute names in generator config")
        for a in self.attributes:
            if a.copy_of is None:
                continue
            source = next(
                (s for s in self.attributes if s.name == a.copy_of), None
            )
            if source is None:
                raise ConfigError(
                    f"attribute {a.name!r} copies unknown attribute {a.copy_of!r}"
                )
            if source.copy_of is not None:
                raise ConfigError(
                    f"attribute {a.name!r} must copy a non-copy attribute"
                )


def load_synth_config(path: str | Path) -> SynthConfig:
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: generator config must be a JSON object")
    try:
        attributes = tuple(
            SynthAttribute(**entry) for entry in raw.get("attributes", [])
        )
        return SynthConfig(
            browsers=as_int(raw["browsers"]),
            observations_per_browser=as_int(raw["observations_per_browser"]),
            attributes=attributes,
        )
    except KeyError as exc:
        raise SchemaError(f"{path}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except (ConfigError, SchemaError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def synth_catalog(config: SynthConfig) -> AttributeCatalog:
    """The catalog describing a generated dataset (exact matching)."""
    return AttributeCatalog(
        tuple(
            AttributeSpec(
                name=a.name,
                kind=a.kind,
                is_async=a.is_async,
                match_threshold=0.0,
            )
            for a in config.attributes
        )
    )


def _rank_weights(cardinality: int, skew: float) -> np.ndarray:
    ranks = np.arange(1, cardinality + 1, dtype=float)
    weights = ranks ** -skew
    return weights / weights.sum()


def synthesize(config: SynthConfig, seed: int) -> Dataset:
    """Generate a dataset; identical (config, seed) pairs yield identical data."""
    return Dataset(synth_catalog(config), synth_observations(config, seed))


def synth_observations(config: SynthConfig, seed: int) -> Iterator[Observation]:
    """The observations of ``synthesize(config, seed)``, each yielded as it is
    drawn. The seed is checked here, before the first draw."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return _drawn(config, np.random.default_rng(seed))


def _drawn(config: SynthConfig, rng: np.random.Generator) -> Iterator[Observation]:
    sources = [a for a in config.attributes if a.copy_of is None]
    by_name = {a.name: a for a in config.attributes}
    # Zero-padded decimal values: fixed byte width, lexicographic order
    # agrees with rank order (rank 0 is the most probable value).
    widths = {
        a.name: max(a.value_bytes,
                    len(str(max(by_name[a.copy_of or a.name].cardinality - 1, 0))))
        for a in config.attributes
    }
    weights = {a.name: _rank_weights(a.cardinality, a.zipf_skew) for a in sources}

    for b in range(config.browsers):
        browser_id = f"b{b:05d}"
        state = {
            a.name: int(rng.choice(a.cardinality, p=weights[a.name]))
            for a in sources
        }
        for t in range(config.observations_per_browser):
            if t > 0:
                for a in sources:
                    if a.cardinality < 2 or a.change_prob == 0.0:
                        continue
                    if rng.random() < a.change_prob:
                        state[a.name] = _draw_different(
                            rng, weights[a.name], state[a.name]
                        )
            values: dict[str, str] = {}
            collect: dict[str, float] = {}
            for attr in config.attributes:
                rank = state[attr.copy_of or attr.name]
                values[attr.name] = str(rank).zfill(widths[attr.name])
                if attr.mean_collect_ms > 0:
                    collect[attr.name] = float(
                        rng.uniform(0.5, 1.5) * attr.mean_collect_ms
                    )
                else:
                    collect[attr.name] = 0.0
            yield Observation(
                browser_id=browser_id, seq=t, values=values, collect_ms=collect
            )


def _draw_different(rng: np.random.Generator, weights: np.ndarray, current: int) -> int:
    adjusted = weights.copy()
    adjusted[current] = 0.0
    adjusted /= adjusted.sum()
    return int(rng.choice(len(weights), p=adjusted))
