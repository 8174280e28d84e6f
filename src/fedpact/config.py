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
from dataclasses import dataclass, field
from pathlib import Path

from .contracts import RevenueCurve, TypeProfile

SCHEMA_VERSION = 1
MODES = ("analytic", "ml")
SCHEMES = ("contract", "fedavg", "flat")


class ConfigError(ValueError):
    """Configuration failed validation; message carries the field path."""


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _reject_unknown_keys(payload: dict, known: dict, prefix: str = "") -> None:
    """Every key of ``payload``, and of its profile, task and training
    sections, must be one that ``known`` (a config's ``to_dict``) has."""
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
        _require(self.learning_rate > 0, f"{path}.learning_rate", "must be positive")
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
        _require(self.schema_version == SCHEMA_VERSION, "schema_version",
                 f"expected {SCHEMA_VERSION}")
        n = len(self.thetas)
        _require(n >= 1, "profile.thetas", "at least one type required")
        _require(len(self.betas) == n, "profile.betas",
                 f"length {len(self.betas)} != {n} types")
        _require(all(0.0 < t <= 1.0 for t in self.thetas), "profile.thetas",
                 "every theta must lie in (0, 1]")
        _require(all(b > a for a, b in zip(self.thetas, self.thetas[1:])),
                 "profile.thetas", "must be strictly increasing")
        _require(all(0.0 <= b <= 1.0 for b in self.betas), "profile.betas",
                 "every beta must lie in [0, 1]")
        total = math.fsum(self.betas)
        _require(abs(total - 1.0) <= 1e-9, "profile.betas",
                 f"must sum to 1 within 1e-9, got {total!r}")
        _require(self.unit_cost > 0.0, "profile.c", "must be positive")
        _require(len(self.benchmarks) == n, "benchmarks", f"need {n} values")
        _require(all(0.0 <= m <= 1.0 for m in self.benchmarks), "benchmarks",
                 "every benchmark must lie in [0, 1]")
        _require(self.population >= 1, "population", "must be >= 1")
        _require(len(self.seeds) >= 1, "seeds", "at least one seed required")
        _require(all(s >= 0 for s in self.seeds), "seeds", "seeds must be >= 0")
        _require(self.mode in MODES, "mode", f"must be one of {MODES}")
        _require(len(self.schemes) >= 1, "schemes", "at least one scheme required")
        for s in self.schemes:
            _require(s in SCHEMES, "schemes", f"unknown scheme {s!r}, valid: {SCHEMES}")
        _require(all(c > 0.0 for c in self.c_values), "c_values", "must be positive")
        kind = self.curve.get("kind")
        if kind == "exponential":
            _require(float(self.curve.get("a", 0)) > 0, "curve.a", "must be positive")
            _require(float(self.curve.get("b", 0)) > 0, "curve.b", "must be positive")
        elif kind == "table":
            bm = self.curve.get("benchmarks", [])
            vals = self.curve.get("values", [])
            _require(len(bm) == len(vals) and len(bm) >= 1, "curve",
                     "table needs matching benchmarks and values")
        else:
            raise ConfigError(f"curve.kind: must be 'exponential' or 'table', got {kind!r}")
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
            "task": {
                "dimension": self.task.dimension,
                "classes": self.task.classes,
                "test_size": self.task.test_size,
                "seed": self.task.seed,
            },
            "training": {
                "max_epochs": self.training.max_epochs,
                "n_points": self.training.n_points,
                "learning_rate": self.training.learning_rate,
                "batch_size": self.training.batch_size,
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        try:
            profile = payload["profile"]
            task = payload.get("task", {})
            training = payload.get("training", {})
            config = cls(
                thetas=tuple(profile["thetas"]),
                betas=tuple(profile["betas"]),
                unit_cost=float(profile["c"]),
                curve=dict(payload["curve"]),
                benchmarks=tuple(payload["benchmarks"]),
                population=int(payload["population"]),
                seeds=tuple(payload["seeds"]),
                mode=payload.get("mode", "analytic"),
                schemes=tuple(payload.get("schemes", SCHEMES)),
                c_values=tuple(payload.get("c_values", ())),
                out_dir=str(payload.get("out_dir", "out")),
                task=TaskSpec(
                    dimension=int(task.get("dimension", 2)),
                    classes=int(task.get("classes", 2)),
                    test_size=int(task.get("test_size", 2000)),
                    seed=int(task.get("seed", 7)),
                ),
                training=TrainingSpec(
                    max_epochs=int(training.get("max_epochs", 50)),
                    n_points=int(training.get("n_points", 120)),
                    learning_rate=float(training.get("learning_rate", 0.8)),
                    batch_size=int(training.get("batch_size", 32)),
                ),
                schema_version=int(payload.get("schema_version", SCHEMA_VERSION)),
            )
        except KeyError as exc:
            raise ConfigError(f"missing required field {exc.args[0]!r}") from exc
        _reject_unknown_keys(payload, config.to_dict())
        return config

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"{path}: no such config file") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return cls.from_dict(payload)

    def with_overrides(
        self, seed: int | None = None, mode: str | None = None, out_dir: str | None = None
    ) -> "ExperimentConfig":
        payload = self.to_dict()
        if seed is not None:
            payload["seeds"] = [int(seed)]
        if mode is not None:
            payload["mode"] = mode
        if out_dir is not None:
            payload["out_dir"] = out_dir
        return ExperimentConfig.from_dict(payload)
