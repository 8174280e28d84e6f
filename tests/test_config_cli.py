"""Config validation, normalization round-trips, and the CLI surface."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedpact import cli
from fedpact.cli import _load_config, build_parser, main
from fedpact.config import ConfigError, ExperimentConfig
from fedpact.contracts import ContractMenu, solve_optimal_menu, verify_feasibility
from fedpact.learning import CalibrationError, run_scheme_comparison
from fedpact.simulation import run_round
from conftest import random_benchmarks, random_curve_section, random_profile, src_env


def base_payload(**overrides) -> dict:
    payload = {
        "schema_version": 1,
        "profile": {"thetas": [0.5, 1.0], "betas": [0.5, 0.5], "c": 1.0},
        "curve": {"kind": "table", "benchmarks": [0.3, 0.5], "values": [1.0, 2.0]},
        "benchmarks": [0.3, 0.5],
        "population": 50,
        "seeds": [3],
        "mode": "analytic",
        "out_dir": "out/test",
    }
    payload.update(overrides)
    return payload


def ml_payload(**overrides) -> dict:
    """A two-type ``compare`` config small enough to run in a test."""
    payload = base_payload(
        profile={"thetas": [0.6, 0.9], "betas": [0.5, 0.5], "c": 1.0},
        curve={"kind": "exponential", "a": 0.1, "b": 4.0},
        benchmarks=[0.45, 0.55],
        population=6,
        seeds=[1],
        mode="ml",
        c_values=[1.0],
        task={"dimension": 2, "classes": 2, "test_size": 400, "seed": 7},
        training={"max_epochs": 10, "n_points": 50, "learning_rate": 0.8,
                  "batch_size": 16},
    )
    payload.update(overrides)
    return payload


# Python 3.10.7 and 3.11 on refuse to convert an integer literal of more
# than 4,300 digits, so the JSON decoder cannot read such a literal
DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")
HUGE_INT = "1" * 5000


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfigValidation:
    def test_valid_config_parses(self):
        config = ExperimentConfig.from_dict(base_payload())
        assert config.population == 50
        assert config.c_values == (1.0,)

    def test_betas_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="profile.betas"):
            ExperimentConfig.from_dict(
                base_payload(profile={"thetas": [0.5, 1.0], "betas": [0.5, 0.4], "c": 1.0})
            )

    def test_thetas_must_increase(self):
        with pytest.raises(ConfigError, match="profile.thetas"):
            ExperimentConfig.from_dict(
                base_payload(profile={"thetas": [0.9, 0.5], "betas": [0.5, 0.5], "c": 1.0})
            )

    def test_cost_positive(self):
        with pytest.raises(ConfigError, match="profile.c"):
            ExperimentConfig.from_dict(
                base_payload(profile={"thetas": [0.5, 1.0], "betas": [0.5, 0.5], "c": 0.0})
            )

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig.from_dict(base_payload(mode="quick"))

    def test_bad_scheme(self):
        with pytest.raises(ConfigError, match="schemes"):
            ExperimentConfig.from_dict(base_payload(schemes=["contract", "magic"]))

    def test_bad_curve_kind(self):
        with pytest.raises(ConfigError, match="curve.kind"):
            ExperimentConfig.from_dict(base_payload(curve={"kind": "linear"}))

    def test_missing_table_benchmark_named_without_quotes(self):
        # the table's KeyError reached stderr as its repr, in quotes
        curve = {"kind": "table", "benchmarks": [0.3, 0.4], "values": [1.0, 2.0]}
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(base_payload(curve=curve))
        assert str(info.value) == "curve: benchmark 0.5 not in revenue table [0.3, 0.4]"

    @pytest.mark.parametrize("curve, key", [
        ({"kind": "exponential", "b": 2.0}, "a"),
        ({"kind": "table", "benchmarks": [0.3, 0.5]}, "values"),
    ])
    def test_missing_curve_key(self, curve, key):
        with pytest.raises(ConfigError, match=f"^curve.{key}: missing required field"):
            ExperimentConfig.from_dict(base_payload(curve=curve))

    def test_missing_field(self):
        # a nested field lost its section: "missing required field 'c'"
        for path in ("population", "profile.c", "curve.a"):
            payload = base_payload(curve={"kind": "exponential", "a": 0.5, "b": 2.0})
            *section, key = path.split(".")
            del (payload[section[0]] if section else payload)[key]
            with pytest.raises(ConfigError, match=f"^{path}: missing required field$"):
                ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize("section, key", [
        (None, "modes"), ("profile", "gamma"), ("task", "noise"), ("training", "hidden"),
    ])
    def test_unknown_key_rejected(self, section, key):
        payload = base_payload(task={}, training={})
        (payload if section is None else payload[section])[key] = [8]
        path = key if section is None else f"{section}.{key}"
        with pytest.raises(ConfigError, match=f"^{path}: unknown key"):
            ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize("curve, key", [
        ({"kind": "table", "benchmarks": [0.3, 0.5], "values": [1.0, 2.0], "a": 7, "bogus": 1},
         "a"),
        ({"kind": "table", "benchmarks": [0.3, 0.5], "values": [1.0, 2.0], "bogus": 1}, "bogus"),
        ({"kind": "exponential", "a": 0.5, "b": 2.0, "values": [1.0, 2.0]}, "values"),
    ])
    def test_unknown_curve_key_rejected(self, curve, key, tmp_path, capsys):
        # a curve's keys are those of its kind; the others were loaded and ignored
        payload = base_payload(curve=curve, out_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match=f"^curve.{key}: unknown key"):
            ExperimentConfig.from_dict(payload)
        assert main(["solve", "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"config error: curve.{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("curve, message", [
        pytest.param('{"a": 0.1, "b": 4.0}', "curve.kind: missing required field",
                     id="missing-kind"),
        pytest.param('{"kind": "exponential", "kind": "bogus", "a": 0.1, "b": 4.0}',
                     "curve.kind: repeated key", id="repeated-kind"),
        pytest.param('{"kind": "bogus", "extra": 1, "a": 0.1, "b": 4.0}',
                     "curve.extra: unknown key, valid: ['a', 'b', 'benchmarks', 'kind', 'values']",
                     id="bad-kind-unknown-key"),
        pytest.param('{"kind": "bogus", "a": 0.1, "b": 4.0}',
                     "curve.kind: must be 'exponential' or 'table', got 'bogus'",
                     id="bad-kind-known-keys"),
    ])
    def test_curve_keys_checked_before_kind(self, curve, message, tmp_path):
        # until its kind is known, a curve may hold any kind's keys
        payload = base_payload()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload).replace(json.dumps(payload["curve"]), curve))
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_json(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("schemes", [5, "contract", ["contract", 3], {"contract": 1}])
    def test_schemes_must_be_list_of_strings(self, schemes, tmp_path, capsys):
        # 5 was a TypeError traceback (exit 1), "contract" was split into letters
        config = write_config(tmp_path, base_payload(schemes=schemes, out_dir=str(tmp_path / "out")))
        assert main(["solve", "--config", str(config)]) == 2
        assert "config error: schemes: must be a list of strings" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["profile", "task", "training", "curve"])
    def test_section_must_be_object(self, section, tmp_path, capsys):
        payload = base_payload(**{section: [1]})
        with pytest.raises(ConfigError, match=f"^{section}: must be an object"):
            ExperimentConfig.from_dict(payload)
        assert main(["simulate", "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"config error: {section}: " in capsys.readouterr().err

    @pytest.mark.parametrize("path, value", [
        ("population", 2.7), ("population", True), ("population", "50"),
        ("seeds", [7.9]), ("seeds", [True]), ("seeds", 3), ("schema_version", 1.0),
        ("task.dimension", 2.5), ("task.classes", 3.0), ("task.test_size", True),
        ("task.seed", "7"), ("training.max_epochs", 5.5), ("training.n_points", True),
        ("training.batch_size", 8.0), ("training.learning_rate", "0.8"),
        ("profile.c", "1"), ("profile.c", True), ("profile.thetas", [0.5, "1"]),
        ("benchmarks", [0.3, True]), ("c_values", ["1"]), ("curve.values", [1.0, "2"]),
        # str(...) wrote to directories named None, 5 and ['a'], and "" to the working one
        ("out_dir", None), ("out_dir", 5), ("out_dir", ["a"]), ("out_dir", ""),
        # an integer beyond the largest float exited 4 as "int too large to convert to float"
        pytest.param("profile.c", 10**400, id="profile.c-1e400"),
        pytest.param("c_values", [10**400], id="c_values-1e400"),
        pytest.param("training.learning_rate", 10**400, id="training.learning_rate-1e400"),
        pytest.param("curve.values", [1.0, 10**400], id="curve.values-1e400"),
    ])
    def test_number_fields_typed(self, path, value, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        payload = base_payload(task={}, training={})
        *section, key = path.split(".")
        (payload[section[0]] if section else payload)[key] = value
        config = write_config(tmp_path, payload)
        assert main(["simulate", "--config", str(config)]) == 2
        assert f"config error: {path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, command", [
        ("profile.c", "solve"), ("profile.c", "simulate"),
        ("c_values[1]", "compare"), ("training.learning_rate", "compare"),
    ])
    def test_scalar_floats_must_be_finite(self, path, command, tmp_path, capsys):
        # an infinite cost solved "feasible" and simulated a zero utility, an
        # infinite c value failed only at the JSON write (exit 4), and an
        # infinite learning rate trained every model to NaN and exited 0
        payload = ml_payload(c_values=[1.0, 2.0], out_dir=str(tmp_path / "out"))
        if path == "c_values[1]":
            payload["c_values"][1] = float("inf")
        else:
            section, key = path.split(".")
            payload[section][key] = float("inf")
        assert main([command, "--config", str(write_config(tmp_path, payload))]) == 2
        assert f"config error: {path}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, values", [
        ("seeds", [1, 2, 1]), ("c_values", [0.5, 0.5]), ("schemes", ["contract", "contract", "flat"]),
    ])
    def test_duplicates_rejected(self, key, values, tmp_path, capsys):
        # compare booked a repeated seed, c value or scheme twice and counted
        # the copies in the means
        payload = ml_payload(out_dir=str(tmp_path / "out"), **{key: values})
        assert main(["compare", "--config", str(write_config(tmp_path, payload))]) == 2
        repeat = next(i for i, value in enumerate(values) if value in values[:i])
        assert (
            f"config error: {key}[{repeat}]: duplicates {key}[{values.index(values[repeat])}]"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_integer_accepted_as_number(self):
        payload = base_payload(profile={"thetas": [0.5, 1], "betas": [0.5, 0.5], "c": 1})
        config = ExperimentConfig.from_dict(payload)
        assert config.profile.thetas.tolist() == [0.5, 1.0] and config.profile.unit_cost == 1.0

    def test_benchmark_count(self):
        with pytest.raises(ConfigError, match="benchmarks"):
            ExperimentConfig.from_dict(base_payload(benchmarks=[0.3]))

    def test_with_overrides(self, tmp_path):
        path = str(write_config(tmp_path, base_payload()))
        parse = build_parser().parse_args
        config = _load_config(parse(["simulate", "--config", path]))
        assert config.seeds == (3,) and config.out_dir == "out/test"
        out = _load_config(parse(
            ["simulate", "--config", path, "--seed-override", "99", "--out", "elsewhere"]
        ))
        assert out.seeds == (99,)
        assert out.out_dir == "elsewhere"
        with pytest.raises(ConfigError, match="^out_dir: must be a non-empty string"):
            _load_config(parse(["simulate", "--config", path, "--out", ""]))

    def test_holds_its_profile_and_curve(self, monkeypatch):
        config = ExperimentConfig.from_dict(base_payload())
        assert config.profile.thetas.tolist() == [0.5, 1.0]
        assert config.profile.unit_cost == 1.0
        assert config.curve(0.3) == 1.0
        # an override keeps what the config built
        monkeypatch.setattr(ExperimentConfig, "from_json", lambda path: config)
        overridden = _load_config(build_parser().parse_args(
            ["simulate", "--config", "config.json", "--seed-override", "9"]
        ))
        assert overridden.seeds == (9,)
        assert overridden.profile is config.profile and overridden.curve is config.curve

    @pytest.mark.parametrize("faults, message", [
        pytest.param({"schema_version": 2, "profile": {"thetas": [0.9, 0.5], "betas": [0.5, 0.5],
                                                        "c": 1.0}},
                     "schema_version: expected 1", id="schema-and-thetas"),
        pytest.param({"profile": {"thetas": [0.9, 0.5], "betas": [0.5, 0.5], "c": 1.0},
                      "benchmarks": 0.3},
                     "benchmarks: must be a list, got 0.3", id="thetas-and-benchmarks-type"),
        pytest.param({"profile": {"thetas": [0.9, 0.5], "betas": [0.5, 0.5], "c": 1.0},
                      "population": 0},
                     "profile.thetas: must be strictly increasing, got [0.9, 0.5]",
                     id="thetas-and-population"),
        pytest.param({"modes": "ml", "curve": {"kind": "exponential", "a": -1.0, "b": 2.0}},
                     "modes: unknown key, valid: ['benchmarks', 'c_values', 'curve', 'mode', "
                     "'out_dir', 'population', 'profile', 'schema_version', 'schemes', 'seeds', "
                     "'task', 'training']",
                     id="unknown-key-and-curve"),
        # the curve is built before the values of the other fields are checked
        pytest.param({"benchmarks": [0.5], "curve": {"kind": "exponential", "a": -1.0, "b": 2.0}},
                     "curve: exponential revenue curve needs finite a, b > 0, got -1.0, 2.0",
                     id="benchmark-count-and-curve"),
        # two benchmarks for no type
        pytest.param({"profile": {"thetas": [], "betas": [], "c": 1.0}},
                     "profile.thetas: at least one type required", id="no-type-and-benchmark-count"),
    ])
    def test_first_of_two_faults_is_reported(self, faults, message, tmp_path, capsys):
        payload = base_payload(out_dir=str(tmp_path / "out"), **faults)
        assert main(["solve", "--config", str(write_config(tmp_path, payload))]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(tmp_path / "nope.json")


def random_payload(seed: int, n: int) -> dict:
    """A valid config of ``n`` types from the conftest generators."""
    rng = np.random.default_rng(seed)
    profile = random_profile(rng, n)
    benchmarks = random_benchmarks(rng, n)
    return base_payload(
        profile={"thetas": profile.thetas.tolist(), "betas": profile.betas.tolist(),
                 "c": profile.unit_cost},
        curve=random_curve_section(rng, benchmarks),
        benchmarks=benchmarks.tolist(),
        population=20,
    )


NAN, INF = float("nan"), float("inf")


class TestConfigProperties:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_accepted_config_runs(self, data):
        # config benchmarks in any order (the solver pools) and a curve in
        # other revenue units; whatever the config accepts must run
        n = data.draw(st.integers(1, 6))
        payload = random_payload(data.draw(st.integers(0, 2**32 - 1)), n)
        order = data.draw(st.permutations(range(n)))
        payload["benchmarks"] = [payload["benchmarks"][i] for i in order]
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
        curve = payload["curve"]
        if curve["kind"] == "exponential":
            curve["a"] *= scale
        else:
            curve["values"] = [v * scale for v in curve["values"]]
        config = ExperimentConfig.from_dict(payload)
        profile, curve = config.profile, config.curve
        menu = solve_optimal_menu(profile, curve, config.benchmarks)
        verify_feasibility(profile, menu)
        run_round(profile, menu, curve, config.population, "analytic", config.seeds[0])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_one_broken_field_is_a_config_error(self, data):
        n = data.draw(st.integers(1, 6))
        payload = random_payload(data.draw(st.integers(0, 2**32 - 1)), n)
        k = data.draw(st.integers(0, n - 1))
        profile, curve = payload["profile"], payload["curve"]
        thetas, betas = profile["thetas"], profile["betas"]
        what = data.draw(st.sampled_from([
            "theta", "theta-order", "beta", "beta-sum", "beta-count", "c", "c_values",
            "a", "b", "table-value", "table-benchmark", "table-order", "table-duplicate",
            "table-missing", "table-count",
        ]))
        if what in ("a", "b"):
            assume(curve["kind"] == "exponential")
        elif what.startswith("table"):
            assume(curve["kind"] == "table")
        assume(n >= 2 or what not in ("theta-order", "table-order"))
        j = max(k, 1)
        if what == "theta":
            thetas[k] = data.draw(st.sampled_from([0.0, -0.5, 1.5, NAN, INF]))
        elif what == "theta-order":
            thetas[j] = thetas[j - 1]
        elif what == "beta":
            betas[k] = data.draw(st.sampled_from([-0.1, 1.5, NAN]))
        elif what == "beta-sum":
            betas[k] *= 0.5
        elif what == "beta-count":
            betas.append(0.0)
        elif what == "c":
            profile["c"] = data.draw(st.sampled_from([0.0, -1.0, NAN, INF]))
        elif what == "c_values":
            payload["c_values"] = [profile["c"], data.draw(st.sampled_from([0.0, NAN, INF]))]
        elif what in ("a", "b"):
            bad = [0.0, -1.0, NAN, INF] + ([1e5] if what == "b" else [])  # exp(5e3) overflows
            curve[what] = data.draw(st.sampled_from(bad))
        elif what == "table-value":
            curve["values"][k] = data.draw(st.sampled_from([NAN, INF]))
        elif what == "table-benchmark":
            curve["benchmarks"][k] = NAN
        elif what == "table-order":
            curve["values"][j] = curve["values"][j - 1]
        elif what == "table-duplicate":
            curve["benchmarks"].append(curve["benchmarks"][k])
            curve["values"].append(curve["values"][-1] + 1.0)
        elif what == "table-missing":
            del curve["benchmarks"][k], curve["values"][k]
        else:
            curve["values"].append(curve["values"][-1] + 1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(payload)


class TestCli:
    def test_solve_writes_menu(self, tmp_path):
        config = write_config(tmp_path, base_payload(out_dir=str(tmp_path / "out")))
        assert main(["solve", "--config", str(config)]) == 0
        menu = json.loads((tmp_path / "out" / "menu.json").read_text())
        fees = [it["f"] for it in menu["items"]]
        rewards = [it["R"] for it in menu["items"]]
        assert fees == pytest.approx([0.125, 1.625])
        assert rewards == pytest.approx([1.0, 2.0])
        report = json.loads((tmp_path / "out" / "feasibility.json").read_text())
        assert report["feasible"] is True

    def test_solve_reports_an_infeasible_menu(self, tmp_path, monkeypatch, capsys):
        # the closed form is feasible, so only a tampered solver reaches exit 3;
        # type 1's fee 0.2 breaks its IR, and type 2's 1.8 its IC against item 1
        tampered = ContractMenu([0.2, 1.8], [1.0, 2.0], [0.3, 0.5])
        monkeypatch.setattr(cli, "solve_optimal_menu", lambda profile, curve, benchmarks: tampered)
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(out_dir=str(out)))
        assert main(["solve", "--config", str(config)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:] == [
            "feasible: False; IR binding at types []",
            "  violated: IR type 1: slack -0.075",
            "  violated: IC type 2 vs item 1: slack -0.1",
        ]
        assert json.loads((out / "menu.json").read_text()) == tampered.to_dict()
        assert json.loads((out / "feasibility.json").read_text())["feasible"] is False

    def test_solve_rejects_bad_config(self, tmp_path, capsys):
        payload = base_payload(
            profile={"thetas": [0.9, 0.5], "betas": [0.5, 0.5], "c": 1.0},
            out_dir=str(tmp_path / "out"),
        )
        config = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()
        assert "profile.thetas" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", [
        "directory", "undecodable", "huge-integer", "repeated-key", "repeated-nested-key",
    ])
    def test_unreadable_config_exits_2(self, kind, tmp_path, capsys):
        # a path that is no file, or a file that is not UTF-8, is named by its
        # path; a huge integer literal exited 4 naming neither file nor field,
        # and json.load would keep the last of a repeated key, which is named
        # by its field path
        config = tmp_path / "config.json"
        named, detail = config, ""
        text = json.dumps(base_payload())
        if kind == "directory":
            config.mkdir()
        elif kind == "undecodable":
            config.write_bytes(b'{"schema_version": 1,\xff}')
        elif kind == "huge-integer":
            config.write_text(text.replace('"c": 1.0', f'"c": {HUGE_INT}'))
            named = config if DIGIT_LIMIT else "profile.c"
        elif kind == "repeated-key":
            config.write_text(text.replace('"population": 50', '"population": -5, "population": 50'))
            named, detail = "population", "repeated key"
        else:
            config.write_text(text.replace('"c": 1.0', '"c": 1.0, "c": 2.0'))
            named, detail = "profile.c", "repeated key"
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {named}: "), lines
        assert detail in lines[0]
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        # deeper than the JSON decoder's recursion limit
        config = tmp_path / "config.json"
        config.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {config}: not valid JSON ("), lines
        assert not (tmp_path / "out").exists()

    def test_audit_feasible_and_tampered(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(out_dir=str(out)))
        assert main(["solve", "--config", str(config)]) == 0
        assert main(["audit", str(out / "menu.json"), "--config", str(config)]) == 0

        menu = json.loads((out / "menu.json").read_text())
        menu["items"][1]["f"] += 1.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(menu))
        assert main(["audit", str(tampered), "--config", str(config)]) == 3
        audit = json.loads((out / "audit.json").read_text())
        # type 2's worst IC slack, against item 1
        assert audit["ic_min"][1] == pytest.approx(-1.0)
        assert audit["ic_argmin"][1] == 1

    def test_reports_stay_small_at_2000_types(self, tmp_path, capsys):
        # the shape of the benchmark's generated menu_scale config, at I = 2,000
        rng = np.random.default_rng(2000)
        n = 2000
        payload = base_payload(
            profile={"thetas": np.sort(rng.uniform(0.05, 1.0, n)).tolist(),
                     "betas": rng.dirichlet(np.ones(n)).tolist(), "c": rng.uniform(0.5, 2.0)},
            curve={"kind": "exponential", "a": rng.uniform(0.3, 1.0), "b": rng.uniform(0.5, 2.0)},
            benchmarks=np.sort(rng.uniform(0.0, 1.0, n)).tolist(),
            out_dir=str(tmp_path / "solve"),
        )
        config = write_config(tmp_path, payload)
        assert main(["solve", "--config", str(config)]) == 0
        menu = tmp_path / "solve" / "menu.json"
        assert main(["audit", str(menu), "--config", str(config), "--out", str(tmp_path / "audit")]) == 0
        assert capsys.readouterr().out.count("feasible: True") == 2
        for report in (tmp_path / "solve" / "feasibility.json", tmp_path / "audit" / "audit.json"):
            assert json.loads(report.read_text())["feasible"] is True
            assert report.stat().st_size < 1_000_000

    def test_audit_stdout(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(out_dir=str(out)))
        assert main(["solve", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["audit", str(out / "menu.json"), "--config", str(config)]) == 0
        assert capsys.readouterr().out == (
            f"audit: {out / 'audit.json'}\n"
            "feasible: True\n"
            "  IR type 1: slack 0 (binding)\n"
            "  IR type 2: slack 0.375\n"
            "  IC 2 vs 1: slack 0 (binding)\n"
        )
        menu = json.loads((out / "menu.json").read_text())
        menu["items"][1]["f"] += 1.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(menu))
        assert main(["audit", str(tampered), "--config", str(config)]) == 3
        assert capsys.readouterr().out == (
            f"audit: {out / 'audit.json'}\n"
            "feasible: False\n"
            "  IR type 1: slack 0 (binding)\n"
            "  IR type 2: slack -0.625\n"
            "  IC 2 vs 1: slack -1 (VIOLATED)\n"
        )

    def test_audit_length_mismatch(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(out_dir=str(out)))
        empty = tmp_path / "empty_menu.json"
        empty.write_text(json.dumps({"items": []}))
        assert main(["audit", str(empty), "--config", str(config)]) == 4

    def test_audit_rejects_nan_fee(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(out_dir=str(out)))
        assert main(["solve", "--config", str(config)]) == 0
        menu = json.loads((out / "menu.json").read_text())
        menu["items"][0]["f"] = float("nan")
        tampered = tmp_path / "nan_menu.json"
        tampered.write_text(json.dumps(menu))
        assert main(["audit", str(tampered), "--config", str(config)]) == 4
        assert "fee must be finite" in capsys.readouterr().err
        assert not (out / "audit.json").exists()

    # a menu file written by hand: each shape used to escape as a TypeError
    @pytest.mark.parametrize("payload, where", [
        pytest.param({"items": {"index": 1, "f": 0.1, "R": 1.0, "M": 0.3}}, "menu", id="items-object"),
        pytest.param({"items": [1, 2]}, "items[0]", id="item-number"),
        pytest.param([{"index": 1, "f": 0.1, "R": 1.0, "M": 0.3}], "menu", id="top-level-list"),
        pytest.param({"items": [{"index": 1, "f": 0.125, "R": 1.0, "M": 0.3},
                                {"index": 2, "f": None, "R": 2.0, "M": 0.5}]}, "items[1].f",
                     id="null-fee"),
        # read as numbers, although the config rejects both
        pytest.param({"items": [{"index": 1, "f": "0.1", "R": 1.0, "M": 0.3}]}, "items[0].f",
                     id="string-fee"),
        pytest.param({"items": [{"index": True, "f": 0.1, "R": 1.0, "M": 0.3}]}, "items[0].index",
                     id="bool-index"),
        # accepted as the integers 1 and 2, although the config's counts reject 1.0
        pytest.param({"items": [{"index": 1.0, "f": 0.1, "R": 1.0, "M": 0.3},
                                {"index": 2.0, "f": 0.2, "R": 2.0, "M": 0.5}]},
                     "items[0].index: must be an integer, got 1.0", id="float-index"),
        # audited as a valid one-item menu, although the config rejects unknown keys
        pytest.param({"items": [{"index": 1, "f": 0.1, "R": 1.0, "M": 0.3, "fee": 99}]},
                     "items[0].fee: unknown key", id="unknown-item-key"),
        pytest.param({"items": [{"index": 1, "f": 0.1, "R": 1.0, "M": 0.3}], "note": "x"},
                     "menu.note: unknown key", id="unknown-menu-key"),
        # a value error names its item, as a type error does
        pytest.param({"items": [{"index": 1, "f": -1.0, "R": 1.0, "M": 0.3},
                                {"index": 2, "f": 1.625, "R": 2.0, "M": 0.5}]},
                     "items[0].f: fee must be finite and non-negative, got -1.0",
                     id="negative-fee"),
        pytest.param({"items": [{"index": 1, "f": 0.125, "R": 1.0, "M": 0.3},
                                {"index": 2, "f": 1.625, "R": float("nan"), "M": 0.5}]},
                     "items[1].R: reward must be finite and non-negative, got nan",
                     id="nan-reward"),
        pytest.param({"items": [{"index": 1, "f": 0.125, "R": 1.0, "M": 1.5},
                                {"index": 2, "f": 1.625, "R": 2.0, "M": 0.5}]},
                     "items[0].M: benchmark must lie in [0, 1], got 1.5", id="benchmark-above-1"),
    ])
    def test_audit_rejects_malformed_menu(self, payload, where, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(out_dir=str(out)))
        menu = tmp_path / "bad_menu.json"
        menu.write_text(json.dumps(payload))
        assert main(["audit", str(menu), "--config", str(config)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {where}"), lines
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        pytest.param(b'{"items": [\n', "{menu}: not valid JSON (", id="truncated"),
        pytest.param(b'{"items": \xff}', "{menu}: not valid JSON (", id="undecodable"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, "{menu}: not valid JSON (",
                     id="deeply-nested"),
        # its error named neither the file nor the field
        pytest.param(f'{{"items": [{{"index": 1, "f": {HUGE_INT}, "R": 1.0, "M": 0.3}}]}}'.encode(),
                     "{menu}: not valid JSON (" if DIGIT_LIMIT else "items[0].f: ",
                     id="huge-integer"),
        # was "[Errno 2] No such file or directory: ..."
        pytest.param(None, "{menu}: no such file", id="missing"),
        # json.load would keep the second fee
        pytest.param(b'{"items": [{"index": 1, "f": 9.0, "f": 0.125, "R": 1.0, "M": 0.3}]}',
                     "items[0].f: repeated key", id="repeated-key"),
    ])
    def test_audit_names_an_undecodable_menu(self, text, message, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(out_dir=str(out)))
        menu = tmp_path / "bad_menu.json"
        if text is not None:
            menu.write_bytes(text)
        assert main(["audit", str(menu), "--config", str(config)]) == 4
        lines = capsys.readouterr().err.splitlines()
        expected = "error: " + message.format(menu=menu)
        assert len(lines) == 1 and lines[0].startswith(expected), lines
        assert not out.exists()

    def test_audit_overflow_exits_4(self, tmp_path):
        # in a subprocess, so a numpy RuntimeWarning would reach stderr.  In
        # the first menu the utilities overflow; in the second they are
        # finite (1e307 and -1.7e308 for type 1) but an IC slack, their
        # difference, is not
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(out_dir=str(out)))
        for items in (
            [{"index": 1, "f": 1e308, "R": 1e308, "M": 0.3},
             {"index": 2, "f": 1e308, "R": 1e308, "M": 0.5}],
            [{"index": 1, "f": 0.0, "R": 8e307**0.5, "M": 0.3},
             {"index": 2, "f": 1.7e308, "R": 0.0, "M": 0.5}],
        ):
            menu = tmp_path / "huge_menu.json"
            menu.write_text(json.dumps({"items": items}))
            proc = subprocess.run(
                [sys.executable, "-m", "fedpact", "audit", str(menu), "--config", str(config)],
                capture_output=True, text=True, env=src_env(),
            )
            assert proc.returncode == 4
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
            assert "overflow" in lines[0]
            assert "RuntimeWarning" not in proc.stderr
            assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_fee_overflow_exits_4(self, command, tmp_path, mnist_config_path):
        # the mnist curve times 1e160 is finite, increasing and convex, so
        # the config is valid, but the fee recursion squares theta R.  In a
        # subprocess, so a numpy RuntimeWarning would reach stderr
        payload = json.loads(mnist_config_path.read_text())
        payload["curve"]["values"] = [v * 1e160 for v in payload["curve"]["values"]]
        payload["out_dir"] = str(tmp_path / "out")
        config = write_config(tmp_path, payload)
        proc = subprocess.run(
            [sys.executable, "-m", "fedpact", command, "--config", str(config)],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 4
        assert proc.stderr.splitlines() == [
            "error: menu fees overflow: (theta R)^2 / (2c) is not a finite float"
        ], proc.stderr
        assert not (tmp_path / "out").exists()

    def test_unsatisfiable_allocation_exits_4(self, tmp_path, capsys):
        # 10**15 clients' type draws take 7 PiB, beyond the address space,
        # so numpy refuses the allocation before making it
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(population=10**15, out_dir=str(out)))
        assert main(["simulate", "--config", str(config)]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate"), lines
        assert not any(out.iterdir())

    def test_calibration_error_names_its_client(self, tmp_path, synthetic_config_path, capsys):
        # the shipped thetas at d = 5: 120 points cannot reach the top type's
        # 0.91, and the error says which seed, client, type and dimension
        payload = json.loads(synthetic_config_path.read_text())
        payload["task"]["dimension"] = 5
        payload.update(seeds=[1, 2], population=10, out_dir=str(tmp_path / "out"))
        config = write_config(tmp_path, payload)
        assert main(["compare", "--config", str(config)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: seed 1, client 9, type 10, dimension 5: coverage quality 0.9100 not "
            "reached by bisection or grid scan on the side; closest measured is 0.8742"
        ]
        with pytest.raises(CalibrationError) as err:
            run_scheme_comparison(ExperimentConfig.from_json(config))
        assert err.value.target == 0.91
        assert err.value.best == pytest.approx(0.8742, abs=5e-5)

    def test_audit_rejects_misplaced_index(self, tmp_path, mnist_config_path, capsys):
        # the solved mnist menu with 7 as every item's index
        out = tmp_path / "out"
        assert main(["solve", "--config", str(mnist_config_path), "--out", str(out)]) == 0
        menu = json.loads((out / "menu.json").read_text())
        for item in menu["items"]:
            item["index"] = 7
        tampered = tmp_path / "index_menu.json"
        tampered.write_text(json.dumps(menu))
        capsys.readouterr()
        code = main(["audit", str(tampered), "--config", str(mnist_config_path),
                     "--out", str(tmp_path / "audit")])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: items[0].index: ")
        assert not (tmp_path / "audit").exists()

    @pytest.mark.parametrize("command", ["solve", "simulate", "compare"])
    def test_revenue_overflow_exits_2(self, command, tmp_path, capsys):
        # exp(2000 * 0.55) is beyond the largest float; the config is checked
        # at every benchmark before any command runs
        curve = {"kind": "exponential", "a": 0.1, "b": 2000.0}
        config = write_config(tmp_path, ml_payload(curve=curve, out_dir=str(tmp_path / "out")))
        assert main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("config error: curve: ")
        assert not (tmp_path / "out").exists()

    def test_solve_rejects_nan_table_value(self, tmp_path, capsys):
        curve = {"kind": "table", "benchmarks": [0.3, 0.5], "values": [1.0, float("nan")]}
        config = write_config(tmp_path, base_payload(curve=curve, out_dir=str(tmp_path / "out")))
        assert main(["solve", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: curve: ")
        assert "finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "audit", "simulate"])
    @pytest.mark.parametrize("curve, reason", [
        pytest.param({"kind": "table", "benchmarks": [0.3, 0.5], "values": [2.0, 1.0]},
                     "not increasing", id="not-increasing"),
        pytest.param({"kind": "table", "benchmarks": [0.3, 0.3, 0.5], "values": [1.0, 1.5, 2.0]},
                     "distinct", id="duplicate-benchmark"),
        pytest.param({"kind": "table", "benchmarks": [0.3, 0.4], "values": [1.0, 2.0]},
                     "benchmark 0.5 not in revenue table", id="benchmark-missing"),
        pytest.param({"kind": "exponential", "a": float("inf"), "b": 1.0}, "finite a, b > 0",
                     id="infinite-a"),
        pytest.param({"kind": "table", "benchmarks": [], "values": []}, "non-empty",
                     id="empty-table"),
        # increasing and convex, but a negative reward is no reward
        pytest.param({"kind": "table", "benchmarks": [0.3, 0.5], "values": [-2.0, -1.0]},
                     "table values must be non-negative, got [-2.0, -1.0]", id="negative-values"),
        # a * exp(b * M) is beyond the largest float, although exp(b * M) is not
        pytest.param({"kind": "exponential", "a": 1e308, "b": 2.0},
                     "revenue curve not finite on [0.3, 0.5]", id="overflowing-a"),
    ])
    def test_broken_curve_exits_2(self, curve, reason, command, tmp_path, capsys):
        # each exited 4 from solve and simulate, and audit never looked at the curve
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(curve=curve, out_dir=str(out)))
        menu = tmp_path / "menu.json"
        menu.write_text(json.dumps({"items": [{"index": 1, "f": 0.125, "R": 1.0, "M": 0.3},
                                              {"index": 2, "f": 1.625, "R": 2.0, "M": 0.5}]}))
        args = [command, *([str(menu)] if command == "audit" else []), "--config", str(config)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: curve: ") and reason in err, err
        assert not out.exists()

    def test_simulate_deterministic_bytes(self, tmp_path):
        results = {}
        for run in ("a", "b"):
            out = tmp_path / run
            config = write_config(
                tmp_path, base_payload(out_dir=str(out)), name=f"config_{run}.json"
            )
            assert main(["simulate", "--config", str(config)]) == 0
            results[run] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }
        assert results["a"] == results["b"]
        assert "round_seed3.json" in results["a"]
        assert "round_seed3.csv" in results["a"]

    def test_simulate_seed_override(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, base_payload(out_dir=str(out)))
        assert main(["simulate", "--config", str(config), "--seed-override", "11"]) == 0
        assert (out / "round_seed11.json").exists()
        assert not (out / "round_seed3.json").exists()

    @pytest.mark.parametrize("seeds, flag", [
        ([4, -1], []), ([3], ["--seed-override", "-1"]),
    ], ids=["file", "override"])
    def test_negative_seed_rejected(self, seeds, flag, tmp_path, capsys):
        config = write_config(tmp_path, base_payload(seeds=seeds, out_dir=str(tmp_path / "out")))
        assert main(["simulate", "--config", str(config), *flag]) == 2
        assert capsys.readouterr().err == "config error: seeds: every seed must be >= 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", [
        ("solve", ["--seed-override", "1"]), ("solve", ["--mode", "ml"]),
        ("audit", ["--seed-override", "1"]), ("audit", ["--mode", "analytic"]),
        ("compare", ["--mode", "ml"]), ("simulate", ["--mode", "ml"]),
    ])
    def test_unread_flags_rejected(self, command, flag, tmp_path, capsys):
        # solve and audit read no seed, and no command takes --mode: a
        # round's mode is the config's
        config = write_config(tmp_path, ml_payload(out_dir=str(tmp_path / "out")))
        menu = [str(tmp_path / "menu.json")] if command == "audit" else []
        with pytest.raises(SystemExit) as exc:
            main([command, *menu, "--config", str(config), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_compare_requires_ml(self, tmp_path):
        config = write_config(tmp_path, base_payload(out_dir=str(tmp_path / "out")))
        assert main(["compare", "--config", str(config)]) == 2

    def test_compare_tiny_run(self, tmp_path):
        config = write_config(tmp_path, ml_payload(out_dir=str(tmp_path / "out")))
        assert main(["compare", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "comparison.csv").exists()
        assert (out / "clients.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "orderings" in summary

    def test_compare_prints_null_where_summary_has_null(self, tmp_path, mnist_config_path, capsys):
        # criterion 9's small compare: no client passes, so no scheme has a mean
        out = tmp_path / "out"
        payload = {
            **json.loads(mnist_config_path.read_text()),
            "mode": "ml", "population": 8, "seeds": [1, 2], "c_values": [0.5, 2.0],
            "profile": {"thetas": [0.55, 0.7, 0.85], "betas": [0.4, 0.3, 0.3], "c": 1.0},
            "curve": {"kind": "exponential", "a": 0.022, "b": 4.6},
            "benchmarks": [0.52, 0.58, 0.64],
            "task": {"dimension": 2, "classes": 2, "test_size": 400, "seed": 7},
            "training": {"max_epochs": 10, "n_points": 60, "learning_rate": 0.8,
                         "batch_size": 16},
            "out_dir": str(out),
        }
        assert main(["compare", "--config", str(write_config(tmp_path, payload))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "c=0.5: contract=null, fedavg=null, flat=null" in lines
        assert "  contract_ge_fedavg: null" in lines
        orderings = json.loads((out / "summary.json").read_text())["orderings"]
        assert orderings["per_c"]["0.5"]["means"] == {"contract": None, "fedavg": None, "flat": None}
        assert orderings["per_c"]["0.5"]["contract_ge_fedavg"] is None

    def test_cli_entrypoint_subprocess(self, tmp_path):
        config = write_config(tmp_path, base_payload(out_dir=str(tmp_path / "out")))
        proc = subprocess.run(
            [sys.executable, "-m", "fedpact", "solve", "--config", str(config)],
            capture_output=True, text=True, env=src_env(),
        )
        assert proc.returncode == 0
        assert "feasible: True" in proc.stdout

    def test_load_and_solve_leave_numpy_ma_unimported(self, mnist_config_path):
        # np.unique imported numpy.ma (13-16 ms) on the first revenue-curve check
        code = (
            "import sys\n"
            "import fedpact.cli\n"
            "from fedpact.config import ExperimentConfig\n"
            "from fedpact.contracts import solve_optimal_menu\n"
            f"config = ExperimentConfig.from_json({str(mnist_config_path)!r})\n"
            "solve_optimal_menu(config.profile, config.curve, config.benchmarks)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=src_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_solve_reference_config_ten_items(self, tmp_path, mnist_config_path):
        out = tmp_path / "out"
        assert main(["solve", "--config", str(mnist_config_path), "--out", str(out)]) == 0
        menu = json.loads((out / "menu.json").read_text())
        rewards = [it["R"] for it in menu["items"]]
        assert len(rewards) == 10
        assert all(b > a for a, b in zip(rewards, rewards[1:]))
