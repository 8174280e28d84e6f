"""fedpact benchmark: drive the CLI on seeded workloads, check its outputs, report metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload menu_scale --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

A workload is a list of commands (workloads.py).  Each command runs in a
fresh interpreter, ``python3 -m fedpact ...`` with src/ on PYTHONPATH, so
its time includes start-up and import.  A pass runs every command once, one
at a time; passes repeat until --seconds have elapsed and times are medians
over passes.  Every pass's outputs are checked (checks.py) and digested.

--trace 0 reports the end_to_end metrics of BENCHMARK.json; setup_s is the
median, over one probe per pass, of a fresh interpreter importing fedpact.cli
and loading the workload's config.  --trace 1 alternates untraced passes with traced ones
(traced.py) and reports the per_layer metrics.  The last line of standard
output is one JSON object; a record of the run, with output digests and the
software environment, goes to perfbench/.work/records/.  Exit code 0 means
every check passed, 1 that some operation failed, 2 bad usage or no program.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench") / ".work"
SETUP_CODE = (
    "import sys\n"
    "import fedpact.cli\n"
    "from fedpact.config import ExperimentConfig\n"
    "ExperimentConfig.from_json(sys.argv[1])\n"
)
CHILD_TIMEOUT_S = 150
COMMANDS = ("compare", "simulate", "solve", "audit", "oracle")


# Children start from this small launcher, not from the benchmark process:
# on exec, Linux folds the peak RSS of the process that spawned the child
# into the child's ru_maxrss, and the benchmark process grows while it
# checks outputs.  The launcher times the child from fork to reap.
LAUNCHER = """
import json, os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.argv[2], sys.argv[2:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    json.dump({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
               "rss_mb": usage.ru_maxrss / 1024.0,
               "code": os.waitstatus_to_exitcode(status), "spawned": start}, fh)
"""


@dataclass(frozen=True)
class Proc:
    """One finished child process, measured from fork to reap."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    spawned: float


def spawn(argv: list[str], log: Path) -> Proc:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    log.parent.mkdir(parents=True, exist_ok=True)
    report = log.with_suffix(".proc.json")
    report.unlink(missing_ok=True)
    with open(log, "wb") as out:
        launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", "-c", LAUNCHER, str(report), *argv],
            cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            launcher.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
        except BaseException:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.wait()
            raise
    if not report.is_file():
        return Proc(0.0, 0.0, 0.0, launcher.returncode or -signal.SIGKILL, 0.0)
    return Proc(**json.loads(report.read_text()))


@dataclass
class Pass:
    traced: bool
    procs: list[Proc] = field(default_factory=list)
    spans: list[Path] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    ops: int = 0
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)


def _digests(directory: Path) -> dict[str, str]:
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def run_pass(plan: workloads.Plan, work: Path, number: int, traced: bool) -> Pass:
    shutil.rmtree(ROOT / work / "out", ignore_errors=True)
    result = Pass(traced)
    for k, step in enumerate(plan.steps):
        log = ROOT / work / "logs" / f"pass{number}-{k}-{step.name}.log"
        if traced:
            spans = ROOT / work / "spans" / f"pass{number}-{k}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            argv = [sys.executable, "perfbench/traced.py", str(spans), step.kind, *step.args]
            result.spans.append(spans)
        elif step.kind == "cli":
            argv = [sys.executable, "-m", "fedpact", *step.args]
        else:
            argv = [sys.executable, "perfbench/oracle_step.py", *step.args]
        result.procs.append(spawn(argv, log))
    for k, (step, proc) in enumerate(zip(plan.steps, result.procs)):
        result.ops += step.ops
        if proc.code != 0:
            tail = (ROOT / work / "logs" / f"pass{number}-{k}-{step.name}.log").read_text()[-400:]
            result.failures += [f"{step.name}: exit {proc.code}: {tail}"] * step.ops
            continue
        try:
            result.failures += step.check(ROOT)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.failures += [f"{step.name}: unreadable output: {exc!r}"] * step.ops
    result.digests = _digests(ROOT / work / "out")
    return result


def _median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(plan: workloads.Plan, passes: list[Pass], spans_out: Path) -> dict[str, float]:
    """Medians of the traced passes' layer metrics, plus untraced per-command times.

    Writes every traced step's spans to ``spans_out`` as one table.
    """
    import numpy as np

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    traces = [
        [tracer.StepTrace.load(path, proc.spawned, proc.wall)
         for path, proc in zip(p.spans, p.procs)]
        for p in traced if all(path.is_file() for path in p.spans)
    ]
    if traces:
        np.savez(spans_out, **tracer.merge([step for steps in traces for step in steps]))
    per_pass = [tracer.pass_metrics(steps) for steps in traces]
    metrics = {key: _median(m[key] for m in per_pass) for key in (per_pass[0] if per_pass else {})}
    for command in COMMANDS:
        metrics[f"cmd.{command}_s"] = _median(
            sum(proc.wall for step, proc in zip(plan.steps, p.procs) if step.name == command)
            for p in untraced
        )
    metrics["cmd.cpu_s"] = _median(sum(proc.cpu for proc in p.procs) for p in untraced)
    metrics["trace.overhead_s"] = (
        _median(p.wall for p in traced) - _median(p.wall for p in untraced)
    )
    return metrics


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(ROOT / work, ignore_errors=True)
    plan = workloads.GENERATORS[workload](ROOT, work, seed)

    # Rounds repeat while the next one is expected to finish within --seconds;
    # the first always runs.  A round is a set-up probe and a pass, or an
    # untraced and a traced pass.  Machine speed can drift over seconds on a
    # shared host, so probes are spread over the run, not taken back to back.
    setup: list[Proc] = []
    passes: list[Pass] = []
    rounds: list[float] = []
    start = perf_counter()
    while not rounds or perf_counter() - start + _median(rounds) <= seconds:
        began = perf_counter()
        if not trace:
            setup.append(spawn([sys.executable, "-c", SETUP_CODE, plan.config],
                               ROOT / work / "logs" / f"setup{len(setup)}.log"))
        passes.append(run_pass(plan, work, len(passes), traced=False))
        if trace:
            passes.append(run_pass(plan, work, len(passes), traced=True))
        rounds.append(perf_counter() - began)
    measured = perf_counter() - start

    failures = [f"set-up probe: exit {p.code}" for p in setup if p.code != 0]
    failures += [msg for p in passes for msg in p.failures]
    attempted = len(setup) + sum(p.ops for p in passes)

    if trace:
        values = layer_metrics(plan, passes, ROOT / work / "spans.npz")
        wanted = spec["per_layer"]
    else:
        untraced = [proc for p in passes for proc in p.procs] + setup
        values = {
            "wall_s": _median(p.wall for p in passes),
            "setup_s": _median(p.wall for p in setup),
            "peak_rss_mb": max(proc.rss_mb for proc in untraced),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    identical = all(p.digests == passes[0].digests for p in passes)
    record_path = ROOT / WORK / "records" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    previous = json.loads(record_path.read_text())["digests"] if record_path.is_file() else None
    record = {
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "measured_s": measured,
        "setup_walls_s": [p.wall for p in setup],
        "passes": [
            {
                "traced": p.traced,
                "wall_s": p.wall,
                "steps": [
                    {"name": s.name, "wall_s": q.wall, "cpu_s": q.cpu, "rss_mb": q.rss_mb,
                     "exit": q.code}
                    for s, q in zip(plan.steps, p.procs)
                ],
            }
            for p in passes
        ],
        "digests": passes[0].digests,
        "digests_identical_across_passes": identical,
        "failures": failures,
        "metrics": metrics,
    }
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"{workload} seed {seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced) in {measured:.1f} s; "
          f"{attempted} operations, {len(failures)} failed")
    print(f"  environment: {record['environment']}")
    print(f"  outputs: {len(passes[0].digests)} files, identical across passes: {identical}"
          + ("" if previous is None else f", identical to the previous run: {previous == passes[0].digests}"))
    for message in failures[:5]:
        print(f"  FAILED {message}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if it is not found."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(pattern):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": _blas_threads(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fedpact" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no fedpact sources (src/fedpact, configs/) under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.workload != "all":
        result = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    results = {
        name: run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        for name in workloads.GENERATORS
    }
    print(f"{'metric':<44} {'unit':<8} " + " ".join(f"{name:>18}" for name in results))
    rows = [(m["name"], m["unit"]) for m in spec["per_layer" if args.trace else "end_to_end"]]
    for name, unit in rows + [("fail_ratio", "ratio")]:
        cells = [
            r["failed"] / r["attempted"] if name == "fail_ratio" else r["metrics"][name]["value"]
            for r in results.values()
        ]
        print(f"{name:<44} {unit:<8} " + " ".join(f"{v:>18.6g}" for v in cells))
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
