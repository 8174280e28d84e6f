"""Experiment configuration: one JSON file drives every command.

The schema is versioned and fully explicit: client types, revenue curve,
benchmarks, population size, seeds, mode, schemes, and the synthetic
task / training knobs for the learning experiments.  All randomness
flows from the seeds recorded here; nothing reads the clock or OS
entropy.  Validation errors name the offending field path.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .contracts import RevenueCurve, TypeProfile

SCHEMA_VERSION = 1
MODES = ("analytic", "ml")
SCHEMES = ("contract", "fedavg", "flat")
CURVE_KEYS = {"exponential": ("kind", "a", "b"), "table": ("kind", "benchmarks", "values")}


class ConfigError(ValueError):
    """Configuration failed validation; message carries the field path."""


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _section(payload: dict, key: str, default: dict | None = None) -> dict:
    value = payload[key] if default is None else payload.get(key, default)
    _require(isinstance(value, dict), key, f"must be an object, got {value!r}")
    return value


def _number(value, path: str, kind: type):
    """``value`` as ``kind``: an int field needs a JSON integer, a float
    field any JSON number; a bool or a string is neither."""
    ok = isinstance(value, int if kind is int else (int, float)) and not isinstance(value, bool)
    _require(ok, path, f"must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _numbers(values, path: str, kind: type) -> tuple:
    _require(isinstance(values, list), path, f"must be a list, got {values!r}")
    return tuple(_number(v, f"{path}[{i}]", kind) for i, v in enumerate(values))


@contextmanager
def _config_errors(path: str, **paths: str):
    """Raise the block's ValueError, KeyError or OverflowError as a ConfigError
    at ``path``; a message ``"name: rest"`` whose ``name`` is a keyword of
    ``paths`` goes to that path instead, as ``rest``."""
    try:
        yield
    except (ValueError, KeyError, OverflowError) as exc:
        message = str(exc.args[0]) if isinstance(exc, KeyError) else str(exc)
        name, _, rest = message.partition(": ")
        if name in paths:
            path, message = paths[name], rest
        raise ConfigError(f"{path}: {message}") from None


def _require_distinct(values: tuple, path: str) -> None:
    for i, value in enumerate(values):
        first = values.index(value)
        _require(first == i, f"{path}[{i}]", f"duplicates {path}[{first}] ({value!r})")


def _spec(cls, section: dict, path: str):
    """``cls`` from a config section; each field is typed like its default."""
    return cls(**{
        f.name: _number(section.get(f.name, f.default), f"{path}.{f.name}", type(f.default))
        for f in fields(cls)
    })


def _reject_unknown_keys(payload: dict, known: dict, prefix: str = "") -> None:
    """Every key of ``payload``, and of its profile, task and training
    sections, must be one that ``known`` (a config's ``to_dict``) has.
    The curve's keys depend on its kind and are checked by ``validate``."""
    for key, value in payload.items():
        _require(key in known, f"{prefix}{key}", f"unknown key, valid: {sorted(known)}")
        if key in ("profile", "task", "training"):
            _reject_unknown_keys(value, known[key], f"{key}.")


@dataclass(frozen=True)
class TaskSpec:
    """Synthetic classification task parameters."""

    dimension: int = 2
    classes: int = 2
    test_size: int = 2000
    seed: int = 7

    def validate(self, path: str = "task") -> None:
        _require(self.dimension >= 1, f"{path}.dimension", "must be >= 1")
        _require(self.classes >= 2, f"{path}.classes", "must be >= 2")
        _require(self.test_size >= 1, f"{path}.test_size", "must be >= 1")
        _require(self.seed >= 0, f"{path}.seed", "must be >= 0")


@dataclass(frozen=True)
class TrainingSpec:
    """Local-training knobs shared by all clients."""

    max_epochs: int = 50
    n_points: int = 120
    learning_rate: float = 0.8
    batch_size: int = 32

    def validate(self, path: str = "training") -> None:
        _require(self.max_epochs >= 1, f"{path}.max_epochs", "must be >= 1")
        _require(self.n_points >= 1, f"{path}.n_points", "must be >= 1")
        _require(math.isfinite(self.learning_rate) and self.learning_rate > 0,
                 f"{path}.learning_rate", "must be finite and positive")
        _require(self.batch_size >= 1, f"{path}.batch_size", "must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    thetas: tuple[float, ...]
    betas: tuple[float, ...]
    unit_cost: float
    curve: dict
    benchmarks: tuple[float, ...]
    population: int
    seeds: tuple[int, ...]
    mode: str = "analytic"
    schemes: tuple[str, ...] = SCHEMES
    c_values: tuple[float, ...] = ()
    out_dir: str = "out"
    task: TaskSpec = field(default_factory=TaskSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "thetas", tuple(float(v) for v in self.thetas))
        object.__setattr__(self, "betas", tuple(float(v) for v in self.betas))
        object.__setattr__(self, "benchmarks", tuple(float(v) for v in self.benchmarks))
        object.__setattr__(self, "seeds", tuple(int(v) for v in self.seeds))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        c_values = tuple(float(v) for v in self.c_values) or (float(self.unit_cost),)
        object.__setattr__(self, "c_values", c_values)
        self.validate()

    def validate(self) -> None:
        """Check the config's own rules; the profile's and the curve's are
        those of ``TypeProfile`` and ``RevenueCurve``, which are built here
        (the profile once per cost) and reported at their config paths."""
        _require(self.schema_version == SCHEMA_VERSION, "schema_version",
                 f"expected {SCHEMA_VERSION}")
        costs = {"profile.c": self.unit_cost} | {
            f"c_values[{i}]": c for i, c in enumerate(self.c_values)}
        for path, cost in costs.items():
            with _config_errors("profile", thetas="profile.thetas", betas="profile.betas",
                                unit_cost=path):
                self.build_profile(cost)
        n = len(self.thetas)
        _require(len(self.benchmarks) == n, "benchmarks", f"need {n} values")
        _require(all(0.0 <= m <= 1.0 for m in self.benchmarks), "benchmarks",
                 "every benchmark must lie in [0, 1]")
        _require(self.population >= 1, "population", "must be >= 1")
        _require(len(self.seeds) >= 1, "seeds", "at least one seed required")
        _require(all(s >= 0 for s in self.seeds), "seeds", "seeds must be >= 0")
        _require_distinct(self.seeds, "seeds")
        _require(self.mode in MODES, "mode", f"must be one of {MODES}")
        _require(len(self.schemes) >= 1, "schemes", "at least one scheme required")
        for s in self.schemes:
            _require(s in SCHEMES, "schemes", f"unknown scheme {s!r}, valid: {SCHEMES}")
        _require_distinct(self.schemes, "schemes")
        _require_distinct(self.c_values, "c_values")
        _require(isinstance(self.out_dir, str) and self.out_dir != "", "out_dir",
                 f"must be a non-empty string, got {self.out_dir!r}")
        kind = self.curve.get("kind")
        _require(isinstance(kind, str) and kind in CURVE_KEYS, "curve.kind",
                 f"must be 'exponential' or 'table', got {kind!r}")
        for key in self.curve:
            _require(key in CURVE_KEYS[kind], f"curve.{key}",
                     f"unknown key, valid for kind {kind!r}: {sorted(CURVE_KEYS[kind])}")
        for key in CURVE_KEYS[kind]:
            _require(key in self.curve, f"curve.{key}", "missing required field")
        with _config_errors("curve"):
            self.build_curve().check_increasing_convex(self.benchmarks)
        self.task.validate()
        self.training.validate()

    # ---- assembly -------------------------------------------------------

    def build_profile(self, unit_cost: float | None = None) -> TypeProfile:
        return TypeProfile.from_arrays(
            self.thetas, self.betas, self.unit_cost if unit_cost is None else unit_cost
        )

    def build_curve(self) -> RevenueCurve:
        if self.curve["kind"] == "exponential":
            return RevenueCurve.exponential(float(self.curve["a"]), float(self.curve["b"]))
        return RevenueCurve.from_table(
            [float(m) for m in self.curve["benchmarks"]],
            [float(v) for v in self.curve["values"]],
        )

    # ---- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "profile": {
                "thetas": list(self.thetas),
                "betas": list(self.betas),
                "c": self.unit_cost,
            },
            "curve": self.curve,
            "benchmarks": list(self.benchmarks),
            "population": self.population,
            "seeds": list(self.seeds),
            "mode": self.mode,
            "schemes": list(self.schemes),
            "c_values": list(self.c_values),
            "out_dir": self.out_dir,
            "task": asdict(self.task),
            "training": asdict(self.training),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        try:
            profile = _section(payload, "profile")
            curve = _section(payload, "curve")
            for key, check in (("a", _number), ("b", _number),
                               ("benchmarks", _numbers), ("values", _numbers)):
                if key in curve:
                    check(curve[key], f"curve.{key}", float)
            schemes = payload.get("schemes", list(SCHEMES))
            _require(isinstance(schemes, list) and all(isinstance(v, str) for v in schemes),
                     "schemes", f"must be a list of strings, got {schemes!r}")
            config = cls(
                thetas=_numbers(profile["thetas"], "profile.thetas", float),
                betas=_numbers(profile["betas"], "profile.betas", float),
                unit_cost=_number(profile["c"], "profile.c", float),
                curve=dict(curve),
                benchmarks=_numbers(payload["benchmarks"], "benchmarks", float),
                population=_number(payload["population"], "population", int),
                seeds=_numbers(payload["seeds"], "seeds", int),
                mode=payload.get("mode", "analytic"),
                schemes=tuple(schemes),
                c_values=_numbers(payload.get("c_values", []), "c_values", float),
                out_dir=payload.get("out_dir", "out"),
                task=_spec(TaskSpec, _section(payload, "task", {}), "task"),
                training=_spec(TrainingSpec, _section(payload, "training", {}), "training"),
                schema_version=_number(
                    payload.get("schema_version", SCHEMA_VERSION), "schema_version", int
                ),
            )
        except KeyError as exc:
            raise ConfigError(f"missing required field {exc.args[0]!r}") from exc
        _reject_unknown_keys(payload, config.to_dict())
        return config

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"{path}: no such config file") from exc
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read ({exc.strerror})") from exc
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return cls.from_dict(payload)

    def with_overrides(
        self, seed: int | None = None, mode: str | None = None, out_dir: str | None = None
    ) -> "ExperimentConfig":
        changes = {"seeds": None if seed is None else (seed,), "mode": mode, "out_dir": out_dir}
        return replace(self, **{key: value for key, value in changes.items() if value is not None})
