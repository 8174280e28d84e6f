"""The traced benchmark run (perfbench/traced.py) still finds every layer it wraps."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import CONFIGS

ROOT = Path(__file__).parent.parent


def traced_span_names(tmp_path: Path, *cli_args: str) -> set[str]:
    """Run one CLI command under the tracer; the names of the spans it recorded."""
    spans = tmp_path / "spans.npz"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(spans), "cli", *cli_args],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    with np.load(spans) as data:
        return set(data["names"][data["name"]].tolist())


def test_traced_simulate_records_round_spans(tmp_path):
    payload = json.loads((CONFIGS / "mnist_contracts.json").read_text())
    payload.update(population=2000, mode="analytic")
    config = tmp_path / "simulate.json"
    config.write_text(json.dumps(payload))
    names = traced_span_names(
        tmp_path, "simulate", "--config", str(config), "--out", str(tmp_path / "out")
    )
    assert {"simulation.run_round", "simulation.choose_contract"} <= names


def test_traced_compare_records_training_spans(tmp_path):
    payload = {
        "schema_version": 1,
        "profile": {"thetas": [0.55, 0.7, 0.85], "betas": [0.4, 0.3, 0.3], "c": 1.0},
        "curve": {"kind": "exponential", "a": 0.022, "b": 4.6},
        "benchmarks": [0.52, 0.58, 0.64],
        "population": 8,
        "seeds": [1, 2],
        "mode": "ml",
        "task": {"dimension": 2, "classes": 2, "test_size": 500, "seed": 7},
        "training": {"max_epochs": 12, "n_points": 60, "learning_rate": 0.8, "batch_size": 16},
    }
    config = tmp_path / "compare.json"
    config.write_text(json.dumps(payload))
    names = traced_span_names(
        tmp_path, "compare", "--config", str(config), "--out", str(tmp_path / "out")
    )
    assert {"simulation.choose_contract", "learning.local_train"} <= names
