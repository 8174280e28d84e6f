"""Experiment configuration: one JSON file drives every command.

The schema is versioned and fully explicit: client types, revenue curve,
benchmarks, population size, seeds, mode, schemes, and the synthetic
task / training knobs for the learning experiments.  All randomness
flows from the seeds recorded here; nothing reads the clock or OS
entropy.  The file is read, and its objects' keys and its numbers are
checked, by the same helpers in ``contracts`` that read an audited menu;
each object's keys are checked before its values.  The config holds the
``TypeProfile`` and the ``RevenueCurve`` it builds from its ``profile``
and ``curve`` sections, and every command reads those.  Every error is a
``ConfigError`` naming the file or the offending field path.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .contracts import RevenueCurve, TypeProfile, _number, _object, _read_json

SCHEMA_VERSION = 1
MODES = ("analytic", "ml")
SCHEMES = ("contract", "fedavg", "flat")


def child_rng(root_seed: int, *path: int) -> np.random.Generator:
    """Generator for the substream identified by (root_seed, *path).

    A routine that draws from one stream takes it as a ``np.random.Generator``;
    a routine that owns several (a round, a client dataset, a task) takes an
    integer seed and derives each stream here, by ``SeedSequence`` from the
    seed plus integer path keys instead of ad-hoc arithmetic on seeds.
    """
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *map(int, path)]))


class ConfigError(ValueError):
    """Configuration failed validation; message carries the field path."""


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _numbers(values, path: str, kind: type) -> tuple:
    _require(isinstance(values, list), path, f"must be a list, got {values!r}")
    return tuple(_number(v, f"{path}[{i}]", kind) for i, v in enumerate(values))


# a curve section's kind -> the RevenueCurve constructor it calls and the
# typing of the section's other keys, which are the constructor's parameters
CURVE_KINDS = {
    "exponential": (RevenueCurve.exponential, {"a": _number, "b": _number}),
    "table": (RevenueCurve.from_table, {"benchmarks": _numbers, "values": _numbers}),
}
CURVE_KEYS = [key for _, checks in CURVE_KINDS.values() for key in checks]  # any kind's


@contextmanager
def _config_errors(path: str = "", **paths: str):
    """Raise the block's ValueError, KeyError or OverflowError as a ConfigError
    at ``path`` (as it is, if ``path`` is empty); a message ``"name: rest"``
    whose ``name`` is a keyword of ``paths`` goes to that path instead, as
    ``rest``."""
    try:
        yield
    except (ValueError, KeyError, OverflowError) as exc:
        message = str(exc.args[0]) if isinstance(exc, KeyError) else str(exc)
        name, _, rest = message.partition(": ")
        if name in paths:
            path, message = paths[name], rest
        raise ConfigError(f"{path}: {message}" if path else message) from None


def _require_distinct(values: tuple, path: str) -> None:
    for i, value in enumerate(values):
        first = values.index(value)
        _require(first == i, f"{path}[{i}]", f"duplicates {path}[{first}] ({value!r})")


def _spec(cls, section, path: str):
    """``cls`` from a config section; each field is optional and typed like its default."""
    _object(section, path, (), [f.name for f in fields(cls)])
    return cls(**{
        f.name: _number(section.get(f.name, f.default), f"{path}.{f.name}", type(f.default))
        for f in fields(cls)
    })


@dataclass(frozen=True)
class TaskSpec:
    """Synthetic classification task parameters."""

    dimension: int = 2
    classes: int = 2
    test_size: int = 2000
    seed: int = 7

    def validate(self) -> None:
        _require(self.dimension >= 1, "task.dimension", "must be >= 1")
        _require(self.classes >= 2, "task.classes", "must be >= 2")
        _require(self.test_size >= 1, "task.test_size", "must be >= 1")
        _require(self.seed >= 0, "task.seed", "must be >= 0")


@dataclass(frozen=True)
class TrainingSpec:
    """Local-training knobs shared by all clients."""

    max_epochs: int = 50
    n_points: int = 120
    learning_rate: float = 0.8
    batch_size: int = 32

    def validate(self) -> None:
        _require(self.max_epochs >= 1, "training.max_epochs", "must be >= 1")
        _require(self.n_points >= 1, "training.n_points", "must be >= 1")
        _require(math.isfinite(self.learning_rate) and self.learning_rate > 0,
                 "training.learning_rate", "must be finite and positive")
        _require(self.batch_size >= 1, "training.batch_size", "must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    profile: TypeProfile  # at the config's own cost, ``profile.c``
    curve: RevenueCurve
    benchmarks: tuple[float, ...]
    population: int
    seeds: tuple[int, ...]
    mode: str
    schemes: tuple[str, ...]
    c_values: tuple[float, ...]
    out_dir: str
    task: TaskSpec
    training: TrainingSpec

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check the config's values against its own rules; their keys and
        types, the schema version and the rules of the profile and the
        curve are checked by ``from_dict``, which builds those two.  Each
        cost in ``c_values`` is checked as the profile's unit cost."""
        for i, c in enumerate(self.c_values):
            with _config_errors(unit_cost=f"c_values[{i}]"):
                replace(self.profile, unit_cost=c)
        n = len(self.profile)
        _require(len(self.benchmarks) == n, "benchmarks", f"need {n} values")
        _require(all(0.0 <= m <= 1.0 for m in self.benchmarks), "benchmarks",
                 "every benchmark must lie in [0, 1]")
        _require(self.population >= 1, "population", "must be >= 1")
        _require(len(self.seeds) >= 1, "seeds", "at least one seed required")
        _require(all(s >= 0 for s in self.seeds), "seeds", "every seed must be >= 0")
        _require_distinct(self.seeds, "seeds")
        _require(self.mode in MODES, "mode", f"must be one of {MODES}")
        _require(len(self.schemes) >= 1, "schemes", "at least one scheme required")
        for s in self.schemes:
            _require(s in SCHEMES, "schemes", f"unknown scheme {s!r}, valid: {SCHEMES}")
        _require_distinct(self.schemes, "schemes")
        _require_distinct(self.c_values, "c_values")
        _require(isinstance(self.out_dir, str) and self.out_dir != "", "out_dir",
                 f"must be a non-empty string, got {self.out_dir!r}")
        with _config_errors("curve"):
            self.curve.check_increasing_convex(self.benchmarks)
        self.task.validate()
        self.training.validate()

    # ---- serialization --------------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """The config of a JSON object: each object's keys are checked before
        its values are typed, the schema version next, then the profile and
        the curve are built, and the other values' rules (``validate``) last."""
        with _config_errors():
            _object(payload, "", ("profile", "curve", "benchmarks", "population", "seeds"),
                    ("schema_version", "mode", "schemes", "c_values", "out_dir", "task",
                     "training"))
            types = _object(payload["profile"], "profile", ("thetas", "betas", "c"))
            section = payload["curve"]
            # a known kind takes its own keys; until the kind is known, any kind's will do
            kind = section.get("kind") if isinstance(section, dict) else None
            known = isinstance(kind, str) and kind in CURVE_KINDS
            constructor, checks = CURVE_KINDS[kind] if known else (None, {})
            _object(section, "curve", ("kind", *checks), () if known else CURVE_KEYS)
            _require(known, "curve.kind", f"must be 'exponential' or 'table', got {kind!r}")
            curve_args = {key: check(section[key], f"curve.{key}", float)
                          for key, check in checks.items()}
            schemes = payload.get("schemes", list(SCHEMES))
            _require(isinstance(schemes, list) and all(isinstance(v, str) for v in schemes),
                     "schemes", f"must be a list of strings, got {schemes!r}")
            thetas = _numbers(types["thetas"], "profile.thetas", float)
            betas = _numbers(types["betas"], "profile.betas", float)
            unit_cost = _number(types["c"], "profile.c", float)
            values = dict(
                benchmarks=_numbers(payload["benchmarks"], "benchmarks", float),
                population=_number(payload["population"], "population", int),
                seeds=_numbers(payload["seeds"], "seeds", int),
                mode=payload.get("mode", "analytic"),
                schemes=tuple(schemes),
                c_values=_numbers(payload.get("c_values", []), "c_values", float) or (unit_cost,),
                out_dir=payload.get("out_dir", "out"),
                task=_spec(TaskSpec, payload.get("task", {}), "task"),
                training=_spec(TrainingSpec, payload.get("training", {}), "training"),
            )
            schema_version = _number(
                payload.get("schema_version", SCHEMA_VERSION), "schema_version", int
            )
        _require(schema_version == SCHEMA_VERSION, "schema_version", f"expected {SCHEMA_VERSION}")
        with _config_errors("profile", thetas="profile.thetas", betas="profile.betas",
                            unit_cost="profile.c"):
            profile = TypeProfile(thetas, betas, unit_cost)
        with _config_errors("curve"):
            curve = constructor(**curve_args)
        return cls(profile=profile, curve=curve, **values)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with _config_errors():
            payload = _read_json(path)
        return cls.from_dict(payload)
