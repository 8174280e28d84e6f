"""Spans and counters for the traced run, recorded from outside the program.

``install`` wraps the public functions of each fedpact layer.  A function
imported with ``from .x import f`` is bound again in every importing module,
so each such binding is replaced, not only the defining one.  A span is
(name, start, end, parent); spans stay in memory and ``Recorder.dump``
writes them once, when the traced process ends.  Probes read arguments and
results after a span closes, so their cost stays out of the span.

``pass_metrics`` turns the span files of one traced pass into per-layer
metrics.  Importing this module loads only the standard library, so the
traced child's import span covers numpy and scipy.
"""
from __future__ import annotations

import json
import math
import os
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import update_wrapper
from time import perf_counter


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _calibration(rec: "Recorder", args, kwargs, result) -> None:
    target = _arg(args, kwargs, 1, "target_theta")
    rec.add("learning.calibration_abs_err_sum", abs(result.measured_quality - target))


def _epochs(rec: "Recorder", args, kwargs, result) -> None:
    effort = _arg(args, kwargs, 3, "effort")
    max_epochs = _arg(args, kwargs, 4, "max_epochs")
    rec.add("learning.epochs_trained", math.floor(effort * max_epochs + 0.5))


def _choice(rec: "Recorder", args, kwargs, result) -> None:
    menu = _arg(args, kwargs, 1, "menu")
    rec.menus[id(menu)] = menu  # keeps the id unique for the life of the process
    rec.choices.add((_arg(args, kwargs, 0, "theta"), id(menu), _arg(args, kwargs, 2, "c")))


def _pairs(rec: "Recorder", args, kwargs, result) -> None:
    types = len(_arg(args, kwargs, 1, "menu"))
    rec.add("contracts.ic_pairs_checked", types * (types - 1))


def _grid(rec: "Recorder", args, kwargs, result) -> None:
    rec.add("contracts.grid.n_evaluated", result.n_evaluated)
    rec.add("contracts.grid.n_feasible", result.n_feasible)


def _bytes(counter: str):
    def probe(rec: "Recorder", args, kwargs, result) -> None:
        rec.add(counter, os.path.getsize(_arg(args, kwargs, 1, "path")))
    return probe


# (module, qualified name, probe); the span is named <layer>.<qualified name>
TARGETS = (
    ("fedpact.coverage", "coverage_quality", None),
    ("fedpact.coverage", "PointCloud.nearest_distances", None),
    ("fedpact.learning", "run_scheme_comparison", None),
    ("fedpact.learning", "generate_client_dataset", _calibration),
    ("fedpact.learning", "local_train", _epochs),
    ("fedpact.learning", "server_test", None),
    ("fedpact.learning", "aggregate", None),
    ("fedpact.simulation", "run_round", None),
    ("fedpact.simulation", "sample_population", None),
    ("fedpact.simulation", "choose_contract", _choice),
    ("fedpact.simulation", "realize_success", None),
    ("fedpact.simulation", "RoundOutcome.to_json", _bytes("simulation.ledger_bytes")),
    ("fedpact.simulation", "RoundOutcome.clients_to_csv", _bytes("simulation.ledger_bytes")),
    ("fedpact.contracts", "solve_optimal_menu", None),
    ("fedpact.contracts", "verify_feasibility", _pairs),
    ("fedpact.contracts", "FeasibilityReport.to_dict", None),
    ("fedpact.contracts", "FeasibilityReport.to_json", _bytes("contracts.report_bytes")),
    ("fedpact.contracts", "grid_search_menu", _grid),
    ("fedpact.config", "ExperimentConfig.from_json", None),
)
IMPORT_SPAN = "cli.import"
TOP_SPANS = ("cli.main", "oracle.main")
SPAN_NAMES = tuple(f"{module.rsplit('.', 1)[1]}.{name}" for module, name, _ in TARGETS) + TOP_SPANS
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


class Recorder:
    """Spans in parallel arrays: name id, parent index (-1 at top), start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.choices: set = set()
        self.menus: dict = {}

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        return index

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str):
        index = self._open(self._name_id(name))
        self.start[index] = perf_counter()
        try:
            yield
        finally:
            self.end[index] = perf_counter()
            self.stack.pop()

    def wrap(self, fn, name: str, probe=None):
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.start[index] = start
                self.stack.pop()
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return update_wrapper(traced, fn)

    def dump(self, path: str) -> None:
        import numpy as np

        counters = dict(self.counters, **{"simulation.distinct_choices": len(self.choices)})
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            counters=json.dumps(counters),
        )


def install(rec: Recorder) -> None:
    """Wrap every target in TARGETS, in each fedpact module that binds it."""
    modules = [
        module for key, module in sys.modules.items()
        if key == "fedpact" or key.startswith("fedpact.")
    ]
    for module_name, qualname, probe in TARGETS:
        owner = sys.modules[module_name]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        name = f"{module_name.rsplit('.', 1)[1]}.{qualname}"
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(rec.wrap(raw.__func__, name, probe)))
        elif path:
            setattr(owner, attr, rec.wrap(raw, name, probe))
        else:
            wrapped = rec.wrap(raw, name, probe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)


@dataclass(frozen=True)
class StepTrace:
    """Spans of one traced child plus its wall clock as seen by the parent."""

    labels: object  # numpy arrays, one entry per span: name, parent index, start, end
    parent: object
    start: object
    end: object
    counters: dict
    spawned: float
    wall: float

    @classmethod
    def load(cls, path, spawned: float, wall: float) -> "StepTrace":
        import numpy as np

        with np.load(path) as data:
            return cls(data["names"][data["name"]], data["parent"], data["start"], data["end"],
                       json.loads(str(data["counters"])), spawned, wall)


def _tail(durations) -> tuple[float, int]:
    """Highest ladder percentile with TAIL_MIN_BEYOND calls beyond it (us), and that count."""
    import numpy as np

    for pct in TAIL_PERCENTILES:
        if len(durations) * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            threshold = float(np.percentile(durations, pct))
            return threshold * 1e6, int(np.sum(durations > threshold))
    return 0.0, 0


def merge(steps: list[StepTrace]) -> dict:
    """One span table for several steps: parents re-indexed, ``command`` = step number."""
    import numpy as np

    offsets = np.cumsum([0] + [len(step.labels) for step in steps])
    return {
        "name": np.concatenate([step.labels for step in steps]),
        "parent": np.concatenate([
            np.where(step.parent >= 0, step.parent + offset, -1)
            for step, offset in zip(steps, offsets)
        ]),
        "start": np.concatenate([step.start for step in steps]),
        "end": np.concatenate([step.end for step in steps]),
        "command": np.concatenate([np.full(len(step.labels), k) for k, step in enumerate(steps)]),
    }


def pass_metrics(steps: list[StepTrace]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every step's spans together)."""
    import numpy as np

    spans = merge(steps)
    labels, parent = spans["name"], spans["parent"]
    duration = spans["end"] - spans["start"]
    nested = parent >= 0
    child_time = np.zeros_like(duration)
    np.add.at(child_time, parent[nested], duration[nested])
    self_time = duration - child_time

    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        mask = labels == name
        d = duration[mask]
        m[f"{name}.calls"] = int(mask.sum())
        m[f"{name}.busy_s"] = float(d.sum())
        m[f"{name}.self_s"] = float(self_time[mask].sum())
        m[f"{name}.p50_us"] = float(np.median(d)) * 1e6 if len(d) else 0.0
        m[f"{name}.tail_us"], m[f"{name}.tail_calls"] = _tail(d)

    counters: dict[str, float] = {}
    for step in steps:
        for key, value in step.counters.items():
            counters[key] = counters.get(key, 0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    datasets = m["learning.generate_client_dataset.calls"]
    calibration_calls = int(np.sum(
        (labels == "coverage.coverage_quality") & nested
        & (labels[np.maximum(parent, 0)] == "learning.generate_client_dataset")
    ))
    epochs = counters.get("learning.epochs_trained", 0)
    pairs = counters.get("contracts.ic_pairs_checked", 0)
    evaluated = counters.get("contracts.grid.n_evaluated", 0)
    m.update({
        "learning.calibration_evals_per_dataset": ratio(calibration_calls, datasets),
        "learning.calibration_abs_err": ratio(
            counters.get("learning.calibration_abs_err_sum", 0.0), datasets),
        "learning.epochs_trained": epochs,
        "learning.local_train.epochs_per_s": ratio(epochs, m["learning.local_train.busy_s"]),
        "simulation.choice_reuse_ratio": ratio(
            counters.get("simulation.distinct_choices", 0),
            m["simulation.choose_contract.calls"]),
        "simulation.ledger_write_s": m["simulation.RoundOutcome.to_json.busy_s"]
        + m["simulation.RoundOutcome.clients_to_csv.busy_s"],
        "simulation.ledger_bytes": counters.get("simulation.ledger_bytes", 0),
        "contracts.ic_pairs_checked": pairs,
        "contracts.verify_ns_per_pair": ratio(
            m["contracts.verify_feasibility.busy_s"] * 1e9, pairs),
        "contracts.report_write_s": m["contracts.FeasibilityReport.to_json.busy_s"],
        "contracts.report_bytes": counters.get("contracts.report_bytes", 0),
        "contracts.grid.n_evaluated": evaluated,
        "contracts.grid.n_feasible": counters.get("contracts.grid.n_feasible", 0),
        "contracts.grid.evals_per_s": ratio(evaluated, m["contracts.grid_search_menu.busy_s"]),
    })

    imports, top, after_setup = [], 0.0, 0.0
    for step in steps:
        is_import = step.labels == IMPORT_SPAN
        setup_end = float(step.end[is_import][0]) if is_import.any() else step.spawned
        imports.append(float((step.end - step.start)[is_import].sum()))
        top += float((step.end - step.start)[np.isin(step.labels, TOP_SPANS) & (step.parent < 0)].sum())
        after_setup += step.spawned + step.wall - setup_end
    m["cli.import_s"] = float(np.median(imports))
    m["trace.top_span_share"] = ratio(top, after_setup)
    return m
