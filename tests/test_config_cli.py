"""Configuration documents and the command-line front end."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import donorspin as d
from donorspin import cli
from donorspin.config import (
    apply_overrides,
    config_digest,
    load_config_document,
)


def minimal_rabi_doc():
    return {
        "material": "zno-natural",
        "field": {"magnitude": "5 T"},
        "levels": {"optical_detuning": "3.57 THz"},
        "dissipators": {"radiative_lifetime": "1 ns"},
        "pulse": {"shape": "gaussian", "duration": "1.9 ps",
                  "energy": "0.1 nJ"},
        "experiment": {"kind": "rabi", "max_energy": "0.45 nJ", "count": 5},
        "output": "runs",
        "seed": 1,
    }


def minimal_ramsey_doc():
    return {
        "material": "zno-natural",
        "field": {"magnitude": "5 T"},
        "dissipators": {"radiative_lifetime": "1 ns"},
        "pulse": {"shape": "gaussian", "duration": "1.9 ps",
                  "rotation_angle": "1.5707963267948966 rad"},
        "experiment": {"kind": "ramsey", "delay_centers": ["1 ns"],
                       "periods": 2, "points_per_period": 12},
        "seed": 3,
    }


def write_config(tmp_path, doc, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


class TestOverrides:
    def test_nested_creation_and_yaml_values(self):
        doc = apply_overrides({}, ["bath.kind=gaussian", "bath.samples=64",
                                   "pulse.duration=1.9 ps"])
        assert doc == {"bath": {"kind": "gaussian", "samples": 64},
                       "pulse": {"duration": "1.9 ps"}}
        assert isinstance(doc["bath"]["samples"], int)

    def test_source_document_not_mutated(self):
        original = {"field": {"magnitude": "5 T"}}
        apply_overrides(original, ["field.magnitude=2 T"])
        assert original == {"field": {"magnitude": "5 T"}}

    def test_malformed_overrides_collected(self):
        with pytest.raises(d.ValidationError) as info:
            apply_overrides({}, ["no_equals_here", "=5"])
        assert len(info.value.problems) == 2

    def test_override_validated_like_file_content(self, tmp_path):
        path = write_config(tmp_path, minimal_rabi_doc())
        with pytest.raises(d.ValidationError) as info:
            d.load_run_config(path, ["field.magnitude=5 banana"])
        assert any("field.magnitude" in p for p in info.value.problems)


class TestParse:
    def test_minimal_document_resolves(self):
        config = d.parse_run_config(minimal_rabi_doc())
        assert config.experiment_kind == "rabi"
        assert config.levels.electron_splitting > 0
        assert config.dissipators.radiative_rate == pytest.approx(1e9)
        assert config.pulse.energy == pytest.approx(0.1e-9)
        assert config.bath is None
        assert config.ensemble_mode == "exact"
        assert config.bath_samples == 1000
        assert config.seed == 1
        assert len(config.experiment["energies"]) == 5
        # resolved must be plain YAML-serializable data
        text = yaml.safe_dump(config.resolved)
        assert yaml.safe_load(text) == config.resolved

    def test_rotation_angle_sets_pulse_energy(self):
        config = d.parse_run_config(minimal_ramsey_doc())
        template = d.PulseSpec(shape="gaussian", duration=1.9e-12,
                               energy=1e-15)
        expected = d.energy_for_rotation_angle(template, config.levels,
                                               math.pi / 2)
        assert config.pulse.energy == pytest.approx(expected, rel=1e-12)

    def test_auto_t1_rate_follows_field_model(self):
        doc = {
            "material": "zno-natural",
            "field": {"magnitude": "2.25 T"},
            "dissipators": {"t1_rate": "auto"},
            "experiment": {"kind": "t1", "max_wait": "0.5 s", "count": 5},
        }
        config = d.parse_run_config(doc)
        assert config.dissipators.t1_rate == pytest.approx(10.0, rel=1e-12)

    def test_gaussian_bath_built(self):
        doc = minimal_ramsey_doc()
        doc["bath"] = {"kind": "gaussian", "t2_star": "17 ns",
                       "ensemble": "mc", "samples": 32}
        config = d.parse_run_config(doc)
        assert config.bath is not None
        assert config.bath.envelope(17e-9) == pytest.approx(math.exp(-1.0))
        assert config.ensemble_mode == "mc"
        assert config.bath_samples == 32

    def test_material_bath_built(self):
        doc = minimal_ramsey_doc()
        doc["bath"] = {"kind": "material", "dispersion_mode": "continuum"}
        config = d.parse_run_config(doc)
        assert config.bath is not None
        assert config.bath.zn_dispersion > 0

    def test_all_problems_reported_at_once(self):
        doc = {
            "material": "zno-natural",
            "field": {"magnitude": "5 banana"},
            "dissipators": {"radiative_rate": "1 1/ns",
                            "radiative_lifetime": "1 ns"},
            "pulse": {"shape": "gaussian", "duration": "1.9 ps",
                      "energy": "0.1 nJ",
                      "rotation_angle": "1.5707963267948966 rad"},
            "experiment": {"kind": "sideways"},
            "mystery_section": {},
        }
        with pytest.raises(d.ValidationError) as info:
            d.parse_run_config(doc)
        text = "; ".join(info.value.problems)
        assert len(info.value.problems) >= 4
        assert "field.magnitude" in text
        assert "not both" in text            # exclusive dissipator pair
        assert "energy or rotation_angle" in text
        assert "experiment.kind" in text
        assert "mystery_section" in text
        # the pulse section exists, so no misleading missing-pulse report
        assert "requires a pulse" not in text

    def test_pulse_required_for_pulsed_experiments(self):
        doc = minimal_ramsey_doc()
        del doc["pulse"]
        with pytest.raises(d.ValidationError) as info:
            d.parse_run_config(doc)
        assert any("requires a pulse" in p for p in info.value.problems)

    def test_bad_ensemble_choice(self):
        doc = minimal_ramsey_doc()
        doc["bath"] = {"kind": "gaussian", "t2_star": "17 ns",
                       "ensemble": "sometimes"}
        with pytest.raises(d.ValidationError) as info:
            d.parse_run_config(doc)
        assert any("bath.ensemble" in p for p in info.value.problems)

    def test_non_mapping_and_invalid_yaml(self, tmp_path):
        listy = tmp_path / "listy.yaml"
        listy.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(d.ValidationError):
            d.load_run_config(listy)
        broken = tmp_path / "broken.yaml"
        broken.write_text("field: [unclosed\n", encoding="utf-8")
        with pytest.raises(d.ValidationError):
            d.load_run_config(broken)


class TestDigest:
    def test_output_directory_not_part_of_identity(self):
        doc_a = minimal_rabi_doc()
        doc_b = minimal_rabi_doc()
        doc_b["output"] = "elsewhere"
        resolved_a = d.parse_run_config(doc_a).resolved
        resolved_b = d.parse_run_config(doc_b).resolved
        assert resolved_a != resolved_b
        assert config_digest(resolved_a) == config_digest(resolved_b)

    def test_seed_is_part_of_identity(self):
        doc_b = minimal_rabi_doc()
        doc_b["seed"] = 2
        assert config_digest(d.parse_run_config(minimal_rabi_doc()).resolved) \
            != config_digest(d.parse_run_config(doc_b).resolved)

    def test_key_order_and_numpy_types_ignored(self):
        a = {"x": 1.5, "y": [1, 2], "z": "t"}
        b = {"z": "t", "y": [1, 2], "x": np.float64(1.5)}
        assert config_digest(a) == config_digest(b)
        assert len(config_digest(a)) == 8


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_dir_from(stdout):
    return Path(stdout.splitlines()[0].strip())


class TestSimulateCommand:
    def test_rabi_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_rabi_doc())
        out = tmp_path / "out"
        code, stdout, _ = run_cli(["simulate", "--config", config,
                                   "--out", str(out)], capsys)
        assert code == 0
        run_dir = run_dir_from(stdout)
        assert run_dir.parent == out
        trace = run_dir / "rabi_trace.csv"
        meta = run_dir / "rabi_meta.yaml"
        assert trace.exists() and meta.exists()
        lines = trace.read_text().splitlines()
        comments = [line for line in lines if line.startswith("# ")]
        assert any("config digest" in c for c in comments)
        header = [line for line in lines if not line.startswith("#")][0]
        assert header.split(",")[0] == "pulse_energy_J"
        document = yaml.safe_load(meta.read_text())
        assert document["seed"] == 1
        assert document["config"]["experiment"]["kind"] == "rabi"
        assert 0.0 <= document["summary"]["p_up_max"] <= 1.0
        digest = document["config_digest"]
        assert run_dir.name.endswith(f"-{digest}")

    def test_ramsey_summary_recovers_precession(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_ramsey_doc())
        code, stdout, _ = run_cli(["simulate", "--config", config,
                                   "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        run_dir = run_dir_from(stdout)
        meta = yaml.safe_load((run_dir / "ramsey_meta.yaml").read_text())
        summary = meta["summary"]
        expected_hz = summary["larmor_rad_per_s"] / (2 * math.pi)
        assert summary["fitted_frequency_Hz"] == pytest.approx(
            expected_hz, rel=1e-6)
        assert expected_hz == pytest.approx(137.9e9, rel=0.01)
        assert (run_dir / "ramsey_visibility.csv").exists()

    def test_identical_seeds_identical_bytes(self, tmp_path, capsys):
        doc = minimal_ramsey_doc()
        doc["bath"] = {"kind": "gaussian", "t2_star": "17 ns",
                       "ensemble": "mc", "samples": 32}
        config = write_config(tmp_path, doc)

        def trace_bytes(seed, out_name):
            code, stdout, _ = run_cli(
                ["simulate", "--config", config, "--seed", str(seed),
                 "--out", str(tmp_path / out_name)], capsys)
            assert code == 0
            run_dir = run_dir_from(stdout)
            return ((run_dir / "ramsey_trace.csv").read_bytes(),
                    (run_dir / "ramsey_visibility.csv").read_bytes())

        first = trace_bytes(11, "a")
        second = trace_bytes(11, "b")
        other = trace_bytes(12, "c")
        assert first == second
        assert first[0] != other[0]

    def test_echo_artifacts(self, tmp_path, capsys):
        doc = minimal_ramsey_doc()
        doc["bath"] = {"kind": "gaussian", "t2_star": "17 ns"}
        doc["experiment"] = {"kind": "echo",
                             "tau1_values": ["50 ns", "100 ns"],
                             "periods": 2, "points_per_period": 9}
        config = write_config(tmp_path, doc)
        code, stdout, _ = run_cli(["simulate", "--config", config,
                                   "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        run_dir = run_dir_from(stdout)
        meta = yaml.safe_load((run_dir / "echo_meta.yaml").read_text())
        assert meta["summary"]["amplitude_first"] > 0.05
        assert meta["summary"]["total_time_span_s"] == pytest.approx(
            2 * 50e-9, rel=1e-6)
        assert (run_dir / "echo_trace.csv").exists()

    def test_pump_artifacts(self, tmp_path, capsys):
        doc = {
            "material": "zno-natural",
            "field": {"magnitude": "5 T"},
            "dissipators": {"radiative_lifetime": "1 ns"},
            "experiment": {"kind": "pump", "rabi_frequency": "20 MHz",
                           "duration": "10 us", "samples": 128},
        }
        config = write_config(tmp_path, doc)
        code, stdout, _ = run_cli(["simulate", "--config", config,
                                   "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        run_dir = run_dir_from(stdout)
        meta = yaml.safe_load((run_dir / "pump_meta.yaml").read_text())
        assert meta["summary"]["fidelity"] > 0.95
        assert (run_dir / "pump_trace.csv").exists()

    def test_validation_failure_exits_2(self, tmp_path, capsys):
        doc = minimal_rabi_doc()
        doc["field"]["magnitude"] = "banana"
        config = write_config(tmp_path, doc)
        code, _, stderr = run_cli(["simulate", "--config", config], capsys)
        assert code == 2
        assert "validation error" in stderr
        assert "field.magnitude" in stderr

    def test_missing_config_flag_exits_2(self, capsys):
        code, _, stderr = run_cli(["simulate"], capsys)
        assert code == 2
        assert "--config" in stderr

    @pytest.mark.parametrize("value", ["1e400 T", "inf T", "nan T"])
    def test_non_finite_quantity_exits_2(self, tmp_path, capsys, value):
        config = write_config(tmp_path, minimal_rabi_doc())
        code, _, stderr = run_cli(
            ["simulate", "--config", config, "--set",
             f"field.magnitude={value}", "--out", str(tmp_path / "out")],
            capsys)
        assert code == 2
        assert "field.magnitude" in stderr
        assert "Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
    @pytest.mark.parametrize("key", ["seed", "experiment.points_per_period",
                                     "pulse.calibration",
                                     "experiment.periods"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, minimal_ramsey_doc())
        code, _, stderr = run_cli(
            ["simulate", "--config", config, "--set", f"{key}={value}",
             "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert f"{key} must be finite" in stderr
        assert "Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["ramsey", "echo"])
    def test_zero_field_fringe_experiment_exits_2(self, tmp_path, capsys,
                                                  kind):
        doc = minimal_ramsey_doc()
        doc["field"]["magnitude"] = "0 T"
        if kind == "echo":
            doc["experiment"] = {"kind": "echo", "tau1_values": ["5 us"]}
        config = write_config(tmp_path, doc)
        code, _, stderr = run_cli(["simulate", "--config", config,
                                   "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "positive spin precession frequency" in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("experiment.count", "3"),
        ("experiment.waits", "[0 s, 0.1 s, 0.2 s]"),
    ])
    def test_short_t1_scan_exits_2_before_running(self, tmp_path, capsys,
                                                  monkeypatch, key, value):
        # the recovery fit has three parameters: a shorter scan is listed
        # as a config problem before the pump and the waits run
        def must_not_run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_t1_recovery", must_not_run)
        code, _, stderr = run_cli(
            ["simulate", "--config", "configs/t1.yaml", "--set",
             f"{key}={value}", "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert key in stderr
        assert "4" in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("dissipators.branching", '[["a", "b"], ["c", "d"]]'),
        ("field.orientation", '["x", 0, 0]'),
    ])
    def test_non_numeric_entry_exits_2(self, tmp_path, capsys, key, value):
        code, _, stderr = run_cli(
            ["simulate", "--config", "configs/rabi.yaml", "--set",
             f"{key}={value}", "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert f"- {key.split('.')[0]}:" in stderr
        assert "Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, override", [
        ("configs/rabi.yaml", 'experiment.energies=["0 nJ", "1e300 nJ"]'),
        ("configs/pump.yaml", "experiment.rabi_frequency=1e300 MHz"),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_exits_3(self, tmp_path, capsys, config,
                                       override):
        code, _, stderr = run_cli(
            ["simulate", "--config", config, "--set", override,
             "--out", str(tmp_path / "out")], capsys)
        assert code == 3
        assert "numerical failure" in stderr
        assert "Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    def test_stray_linalg_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def singular(config):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "_execute", singular)
        config = write_config(tmp_path, minimal_rabi_doc())
        code, _, stderr = run_cli(["simulate", "--config", config], capsys)
        assert code == 3
        assert "numerical failure" in stderr

    def test_stray_floating_point_error_exits_3(self, tmp_path, capsys,
                                                monkeypatch):
        def overflow(config):
            raise FloatingPointError("overflow encountered in exp")

        monkeypatch.setattr(cli, "_execute", overflow)
        config = write_config(tmp_path, minimal_rabi_doc())
        code, _, stderr = run_cli(["simulate", "--config", config], capsys)
        assert code == 3
        assert "numerical failure" in stderr
        assert "Traceback" not in stderr


class TestEstimateCommand:
    def test_budget_report(self, tmp_path, capsys):
        doc = {
            "material": "zno-natural",
            "field": {"magnitude": "5 T"},
            "experiment": {"kind": "pump"},
            "fit": {"theta2": "1.5707963267948966 rad",
                    "variant": "numerator-pi"},
        }
        config = write_config(tmp_path, doc)
        code, stdout, _ = run_cli(["estimate", "--config", config,
                                   "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        run_dir = run_dir_from(stdout)
        report = yaml.safe_load((run_dir / "estimate_report.yaml").read_text())
        budget = report["budget"]
        assert budget["t2_id_s"] > 0
        assert budget["t2_sd_s"] > 0
        assert budget["t2_id_variant"] == "numerator-pi"
        table = (run_dir / "estimate_report.txt").read_text()
        assert "us" in table and "ns" in table
        assert "us" in stdout

    def test_bad_variant_exits_2(self, tmp_path, capsys):
        doc = {
            "material": "zno-natural",
            "field": {"magnitude": "5 T"},
            "experiment": {"kind": "pump"},
            "fit": {"variant": "extra-pi"},
        }
        config = write_config(tmp_path, doc)
        code, _, stderr = run_cli(["estimate", "--config", config], capsys)
        assert code == 2
        assert "fit.variant" in stderr


class TestFitCommand:
    def write_decay_trace(self, tmp_path):
        x = np.linspace(0.0, 8e-6, 30)
        y = 0.1 + 0.8 * np.exp(-x / 2e-6)
        path = tmp_path / "decay.csv"
        cli.write_trace_file(path, ["tau_s", "p_up", "p_up_stderr"],
                             list(zip(x, y, np.full_like(y, 0.01))),
                             comments=["synthetic decay"])
        return path

    def test_compare_selects_generating_model(self, tmp_path, capsys):
        data = self.write_decay_trace(tmp_path)
        code, stdout, _ = run_cli(
            ["fit", "--data", str(data), "--compare", "exp,gaussian,cubed_exp",
             "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        run_dir = run_dir_from(stdout)
        report = yaml.safe_load((run_dir / "fit_report.yaml").read_text())
        entry = report["fits"][0]
        assert entry["best_model"] == "exp_decay"
        fit = entry["models"]["exp_decay"]
        assert fit["converged"]
        assert fit["parameters"]["t_decay"] == pytest.approx(2e-6, rel=1e-6)
        assert set(entry["models"]) == {"exp_decay", "gaussian_decay",
                                        "cubed_exp_decay"}
        assert "best model exp_decay" in stdout

    def test_unknown_model_lists_options(self, tmp_path, capsys):
        data = self.write_decay_trace(tmp_path)
        code, _, stderr = run_cli(
            ["fit", "--data", str(data), "--compare", "stretchy"], capsys)
        assert code == 2
        assert "exp_decay" in stderr and "aliases" in stderr

    def test_missing_data_file_exits_4_without_outputs(self, tmp_path,
                                                       capsys):
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["fit", "--data", str(tmp_path / "nope.csv"),
             "--out", str(out)], capsys)
        assert code == 4
        assert "i/o failure" in stderr
        assert not out.exists()

    def test_fit_requires_data(self, capsys):
        code, _, stderr = run_cli(["fit"], capsys)
        assert code == 2
        assert "--data" in stderr


class TestSweepCommand:
    def t1_doc(self):
        return {
            "material": "zno-natural",
            "field": {"magnitude": "2.25 T"},
            "dissipators": {"t1_rate": "10 1/s"},
            "experiment": {"kind": "t1", "max_wait": "0.5 s", "count": 7,
                           "pump": {"rabi_frequency": "20 MHz",
                                    "duration": "10 us", "samples": 96}},
            "seed": 5,
        }

    def test_t1_rate_sweep_recovers_exponent(self, tmp_path, capsys):
        config = write_config(tmp_path, self.t1_doc())
        code, stdout, _ = run_cli(
            ["sweep", "--config", config, "--axis", "dissipators.t1_rate",
             "--values", "10 1/s,20 1/s", "--jobs", "2",
             "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        sweep_dir = run_dir_from(stdout)
        meta = yaml.safe_load((sweep_dir / "sweep_meta.yaml").read_text())
        assert meta["rate_exponent"] == pytest.approx(1.0, abs=1e-6)
        assert set(meta["summaries"]) == {"10 1/s", "20 1/s"}
        t1_10 = meta["summaries"]["10 1/s"]["fitted_t1_s"]
        assert t1_10 == pytest.approx(0.1, rel=1e-6)
        summary = (sweep_dir / "sweep_summary.csv").read_text().splitlines()
        header = [line for line in summary if not line.startswith("#")][0]
        assert header.split(",")[0] == "dissipators.t1_rate"
        sub_dirs = [p for p in sweep_dir.iterdir() if p.is_dir()]
        assert len(sub_dirs) == 2
        for sub in sub_dirs:
            assert (sub / "t1_trace.csv").exists()
            assert (sub / "t1_meta.yaml").exists()

    def test_base_document_read_once(self, tmp_path, capsys, monkeypatch):
        reads = []

        def counted(*args):
            reads.append(args)
            return load_config_document(*args)

        monkeypatch.setattr(cli, "load_config_document", counted)
        config = write_config(tmp_path, self.t1_doc())
        code, _, _ = run_cli(
            ["sweep", "--config", config, "--axis", "dissipators.t1_rate",
             "--values", "10 1/s,20 1/s", "--jobs", "1", "--seed", "4",
             "--set", "experiment.count=5", "--out", str(tmp_path / "out")],
            capsys)
        assert code == 0
        assert reads == [(config, ["experiment.count=5", "seed=4",
                                   f"output={tmp_path / 'out'}"])]

    def test_zero_field_t1_sweep_exits_2_before_writing(self, tmp_path,
                                                        capsys):
        doc = self.t1_doc()
        doc["dissipators"]["t1_rate"] = "auto"
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["sweep", "--config", config, "--axis", "field.magnitude",
             "--values", "0 T,3 T", "--jobs", "1", "--out", str(out)], capsys)
        assert code == 2
        assert "finite positive sweep values" in stderr
        assert not out.exists()

    def test_loglog_fit_rejects_non_finite_t1(self):
        with pytest.raises(d.NumericsError, match="fitted T1"):
            cli._loglog_slope([2.0, 3.0], [math.inf, 0.1])

    def test_single_value_sweep_matches_simulate(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_rabi_doc())
        code, stdout, _ = run_cli(
            ["sweep", "--config", config, "--axis", "seed", "--values", "7",
             "--jobs", "1", "--out", str(tmp_path / "sweep_out")], capsys)
        assert code == 0
        sweep_dir = run_dir_from(stdout)
        sweep_trace = (sweep_dir / "seed-7" / "rabi_trace.csv").read_bytes()

        code, stdout, _ = run_cli(
            ["simulate", "--config", config, "--seed", "7",
             "--out", str(tmp_path / "sim_out")], capsys)
        assert code == 0
        sim_trace = (run_dir_from(stdout) / "rabi_trace.csv").read_bytes()
        assert sweep_trace == sim_trace

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_rabi_doc())
        code, _, stderr = run_cli(
            ["sweep", "--config", config, "--axis", "bath.samples",
             "--values", "8,16"], capsys)
        assert code == 2
        assert "does not name an existing config key" in stderr

    def test_non_numeric_axis_value_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_rabi_doc())
        code, _, stderr = run_cli(
            ["sweep", "--config", config, "--axis", "seed",
             "--values", "fast,slow"], capsys)
        assert code == 2
        assert "numeric" in stderr

    def test_unparsable_axis_value_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_rabi_doc())
        code, _, stderr = run_cli(
            ["sweep", "--config", config, "--axis", "seed",
             "--values", "[1,2]"], capsys)
        assert code == 2
        assert "numeric" in stderr
        assert "Traceback" not in stderr

    def test_axis_values_parsed_with_their_numbers(self):
        assert cli._axis_values(" 2 T, 3,1e3 Hz,") == (
            ["2 T", "3", "1e3 Hz"], [2.0, 3.0, 1000.0])

    def test_sweep_requires_axis_and_values(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_rabi_doc())
        code, _, stderr = run_cli(["sweep", "--config", config], capsys)
        assert code == 2
        assert "--axis" in stderr


def test_cli_import_leaves_out_the_ode_solver():
    # scipy.integrate serves only the adaptive integrator, so a CLI start
    # does not pay for importing it
    src = Path(d.__file__).resolve().parents[1]
    code = ("import sys, donorspin.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert result.returncode == 0
