"""Configuration documents and the command-line front end."""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import donorspin as d
from donorspin import cli
from donorspin.config import (
    _KEYS,
    _KINDS,
    _Kind,
    apply_overrides,
    config_digest,
    load_config_document,
)
from donorspin.sequences import _MC_SAMPLES_CAP


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

    def test_bare_zero_in_a_quantity_list_is_zero(self):
        doc = minimal_rabi_doc()
        doc["experiment"] = {"kind": "rabi", "energies": [0, "0.1 nJ"]}
        energies = d.parse_run_config(doc).experiment["energies"]
        assert energies == pytest.approx([0.0, 1e-10], rel=1e-12, abs=0.0)
        doc["experiment"] = {"kind": "t1",
                             "waits": [0, "1 ms", "2 ms", "3 ms"]}
        waits = d.parse_run_config(doc).experiment["waits"]
        assert waits == pytest.approx([0.0, 1e-3, 2e-3, 3e-3], rel=1e-12,
                                      abs=0.0)

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


_PROFILE = Path(d.__file__).parent / "materials" / "zno-natural.yaml"
_MATERIAL_BATH = ("bath.kind=material", "bath.ensemble=exact")
_LATTICE_BATH = _MATERIAL_BATH + ("bath.dispersion_mode=lattice-sum",)
# dotted key -> (shipped config where the key is in effect, the override
# that gives it another value, overrides that put the key in effect).
# "output" is exempt: it says where the artifacts land, not what is
# computed, so the digest leaves it out on purpose.
_DIGEST_ALTERNATES = {
    "material": ("estimate", "material=PROFILE"),
    "seed": ("ramsey", "seed=10"),
    "field.magnitude": ("rabi", "field.magnitude=4 T"),
    "field.orientation": ("estimate", "field.orientation=[0, 0, 1]"),
    "levels.optical_detuning": ("rabi", "levels.optical_detuning=3 THz"),
    "dissipators.radiative_rate": ("rabi", "dissipators.radiative_rate=2 1/ns",
                                   "dissipators.radiative_lifetime=null"),
    "dissipators.radiative_lifetime": ("rabi",
                                       "dissipators.radiative_lifetime=2 ns"),
    "dissipators.t1_rate": ("t1", "dissipators.t1_rate=20 1/s"),
    "dissipators.ground_dephasing_rate": (
        "ramsey", "dissipators.ground_dephasing_rate=1 1/us"),
    "dissipators.laser_dephasing_linear": (
        "rabi", "dissipators.laser_dephasing_linear=0.001"),
    "dissipators.laser_dephasing_quadratic": (
        "rabi", "dissipators.laser_dephasing_quadratic=1 fs"),
    "dissipators.branching": ("pump",
                              "dissipators.branching=[[0.3, 0.7], [0.5, 0.5]]"),
    "pulse.shape": ("rabi", "pulse.shape=sech2"),
    "pulse.duration": ("rabi", "pulse.duration=2.4 ps"),
    "pulse.energy": ("rabi", "pulse.energy=0.2 nJ"),
    "pulse.rotation_angle": ("ramsey", "pulse.rotation_angle=1 rad"),
    "pulse.calibration": ("rabi", "pulse.calibration=3.0e+23"),
    "bath.kind": ("ramsey", "bath.kind=material"),
    "bath.ensemble": ("ramsey", "bath.ensemble=exact"),
    "bath.samples": ("ramsey", "bath.samples=500"),
    "bath.dispersion_mode": ("ramsey", "bath.dispersion_mode=lattice-sum",
                             *_MATERIAL_BATH),
    "bath.cutoff": ("ramsey", "bath.cutoff=12 nm", *_LATTICE_BATH),
    "bath.t2_star": ("ramsey", "bath.t2_star=30 ns"),
    # a kind brings its own keys, so the alternate is a whole section
    "experiment.kind": ("ramsey", "experiment={kind: echo, "
                                  "tau1_values: ['1 ns'], periods: 2}"),
    "experiment.energies": ("rabi", "experiment.energies=['0 nJ', '0.2 nJ']"),
    "experiment.max_energy": ("rabi", "experiment.max_energy=0.3 nJ"),
    "experiment.count": ("rabi", "experiment.count=21"),
    "experiment.pump.rabi_frequency": ("rabi",
                                       "experiment.pump.rabi_frequency=10 MHz"),
    "experiment.pump.duration": ("t1", "experiment.pump.duration=5 us"),
    "experiment.pump.samples": ("t1", "experiment.pump.samples=128"),
    "experiment.delay_centers": ("ramsey",
                                 "experiment.delay_centers=['1 ns', '3 ns']"),
    "experiment.delays": ("ramsey", "experiment.delays=['1 ns', '1.1 ns']"),
    "experiment.periods": ("ramsey", "experiment.periods=3"),
    "experiment.points_per_period": ("echo",
                                     "experiment.points_per_period=12"),
    "experiment.injected.time_constant": (
        "echo", "experiment.injected.time_constant=40 us"),
    "experiment.injected.exponent": ("echo", "experiment.injected.exponent=2"),
    "experiment.tau1_values": ("echo",
                               "experiment.tau1_values=['5 us', '10 us']"),
    "experiment.waits": ("t1", "experiment.waits=['0 s', '0.1 s', '0.2 s', "
                               "'0.3 s']"),
    "experiment.max_wait": ("t1", "experiment.max_wait=0.4 s"),
    "experiment.rabi_frequency": ("pump", "experiment.rabi_frequency=10 MHz"),
    "experiment.duration": ("pump", "experiment.duration=5 us"),
    "experiment.samples": ("pump", "experiment.samples=300"),
    "fit.theta2": ("estimate", "fit.theta2=1 rad"),
    "fit.variant": ("estimate", "fit.variant=denominator-pi"),
    "fit.model": ("t1", "fit.model=gaussian_decay"),
    "fit.compare": ("t1", "fit.compare=[exp_decay, gaussian_decay]"),
}


def write_profile(path, **changes):
    """The bundled material profile with some entries replaced."""
    profile = yaml.safe_load(_PROFILE.read_text(encoding="utf-8"))
    path.write_text(yaml.safe_dump(dict(profile, **changes)),
                    encoding="utf-8")
    return str(path)


def shipped_digest(config, overrides=()):
    return config_digest(
        d.load_run_config(f"configs/{config}.yaml", overrides).resolved)


def test_the_digest_table_names_every_config_key():
    sections = set(_KEYS) | {"experiment"}
    keys = {f"{path}.{key}" if path else key
            for path, names in _KEYS.items() for key in names}
    keys |= {f"experiment.{key}" for kind in _KINDS.values()
             for key in ("kind",) + kind.keys}
    assert set(_DIGEST_ALTERNATES) == keys - sections - {"output"}


@pytest.mark.parametrize("key", sorted(_DIGEST_ALTERNATES))
def test_every_config_key_moves_the_digest(tmp_path, key):
    config, alternate, *setup = _DIGEST_ALTERNATES[key]
    alternate = alternate.replace(
        "PROFILE", write_profile(tmp_path / "host.yaml", g_electron="1.98"))
    assert shipped_digest(config, [*setup, alternate]) \
        != shipped_digest(config, setup)


def test_a_material_file_edit_moves_the_digest(tmp_path):
    path = tmp_path / "host.yaml"
    overrides = [f"material={write_profile(path)}"]
    before = shipped_digest("estimate", overrides)
    write_profile(path, bohr_radius="1.8 nm")
    assert shipped_digest("estimate", overrides) != before


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prepare_after_every_window(monkeypatch, p_down, p_up):
    """Make every pulse window the trace-keeping map rho -> tr(rho)
    diag(p_down, p_up, 1 - p_down - p_up, 0), so that the populations
    read after it are known exactly."""
    target = np.diag([p_down, p_up, 1.0 - p_down - p_up, 0.0]).reshape(16, 1)
    window = target @ np.eye(4).reshape(1, 16)
    monkeypatch.setattr(d.sequences, "pulse_window_propagator",
                        lambda *args, **kwargs: window)


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

    def test_monte_carlo_echo_tracks_the_exact_one(self, tmp_path, capsys):
        # 1/sqrt(samples) is two worst-case standard errors of a mean of
        # per-donor values in [0, 1]
        amplitudes = {}
        for mode in ("exact", "mc"):
            code, stdout, _ = run_cli(
                ["simulate", "--config", "configs/echo.yaml",
                 "--set", f"bath.ensemble={mode}", "--set", "bath.samples=2000",
                 "--out", str(tmp_path / mode)], capsys)
            assert code == 0
            amplitudes[mode] = np.loadtxt(
                run_dir_from(stdout) / "echo_trace.csv", delimiter=",",
                skiprows=5)[:, 1]
        error = np.abs(amplitudes["mc"] - amplitudes["exact"]).max()
        assert 0.0 < error <= 1.0 / math.sqrt(2000)

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

    def test_negative_rotation_angle_names_the_pulse(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["simulate", "--config", "configs/ramsey.yaml", "--set",
             "pulse.rotation_angle=-1", "--out", str(tmp_path / "out")],
            capsys)
        assert code == 2
        assert "- pulse: rotation angle must be non-negative" in stderr
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("value", ["5", "abc", "[1]"])
    @pytest.mark.parametrize("kind", ["ramsey", "echo"])
    def test_non_mapping_injected_exits_2(self, tmp_path, capsys, kind,
                                          value):
        doc = minimal_ramsey_doc()
        if kind == "echo":
            doc["experiment"] = {"kind": "echo", "tau1_values": ["5 us"]}
        config = write_config(tmp_path, doc)
        code, _, stderr = run_cli(
            ["simulate", "--config", config, "--set",
             f"experiment.injected={value}", "--out", str(tmp_path / "out")],
            capsys)
        assert code == 2
        assert "section 'experiment.injected' must be a mapping" in stderr
        assert "Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["rabi", "t1"])
    def test_non_mapping_pump_names_its_path(self, tmp_path, capsys, kind):
        code, _, stderr = run_cli(
            ["simulate", "--config", f"configs/{kind}.yaml", "--set",
             "experiment.pump=5",
             "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "section 'experiment.pump' must be a mapping" in stderr
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

        monkeypatch.setattr(d.sequences, "run_t1_recovery", must_not_run)
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
        assert f"- {key}[0]" in stderr and "must be a number" in stderr
        assert "Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    def test_exponent_numbers_without_a_sign_are_numbers(self, tmp_path,
                                                         capsys):
        # YAML 1.1 reads 3.5e23 and 5e-1 as strings, 3.5e+23 as a float
        def trace(calibration):
            code, stdout, stderr = run_cli(
                ["simulate", "--config", "configs/rabi.yaml",
                 "--set", "experiment.count=3",
                 "--set", f"pulse.calibration={calibration}",
                 "--out", str(tmp_path / calibration)], capsys)
            assert code == 0, stderr
            return (run_dir_from(stdout) / "rabi_trace.csv").read_bytes()

        assert trace("3.5e23") == trace("3.5e+23")
        config = d.load_run_config(
            "configs/pump.yaml", ["dissipators.branching=[[5e-1, 0.5], "
                                  "[0.5, 0.5]]"])
        assert config.dissipators.branching == ((0.5, 0.5), (0.5, 0.5))

    @pytest.mark.parametrize("key, value, problem", [
        ("dissipators.branching", "[[true, false], [0.5, 0.5]]",
         "[0][1] must be a number"),
        ("field.orientation", "[true, false, false]", "[2] must be a number"),
        ("dissipators.branching", "[[0.5], [0.5, 0.5]]",
         "[0] must be a list of 2"),
        ("dissipators.branching", "[[0.5, 0.5], [0.5, .nan]]",
         "[1][1] must be finite"),
        ("field.orientation", "[1, 0]", " must be a list of 3"),
    ])
    def test_each_bad_list_element_is_named(self, tmp_path, capsys, key,
                                            value, problem):
        code, _, stderr = run_cli(
            ["simulate", "--config", "configs/rabi.yaml", "--set",
             f"{key}={value}", "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert f"- {key}{problem}" in stderr
        assert "inhomogeneous" not in stderr and "Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, override", [
        ("configs/rabi.yaml", 'experiment.energies=["0 nJ", "1e300 nJ"]'),
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

    def test_a_population_pair_above_one_exits_3(self, tmp_path, capsys,
                                                 monkeypatch):
        # each row stays within [0, 1]; only their sum leaves it
        prepare_after_every_window(monkeypatch, p_down=0.6, p_up=0.6)
        code, _, stderr = run_cli(
            ["simulate", "--config", "configs/ramsey.yaml", "--set",
             "bath.ensemble=exact", "--out", str(tmp_path / "out")], capsys)
        assert code == 3
        assert stderr.startswith(
            "numerical failure: p_up + p_down exceeds 1 by ")
        assert stderr.splitlines() == [
            "numerical failure: p_up + p_down exceeds 1 by 2.000e-01, "
            "more than 1e-06"]
        assert not (tmp_path / "out").exists()

    def test_a_population_excursion_states_its_size(self, tmp_path, capsys,
                                                    monkeypatch):
        prepare_after_every_window(monkeypatch, p_down=1.0 + 2.567e-4,
                                   p_up=0.0)
        code, _, stderr = run_cli(
            ["simulate", "--config", "configs/rabi.yaml", "--set",
             "experiment.count=5", "--out", str(tmp_path / "out")], capsys)
        assert code == 3
        assert stderr.splitlines() == [
            "numerical failure: p_down left [0, 1] by 2.567e-04, "
            "more than 1e-06"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("ramsey", "levels.optical_detuning", "1e+300 MHz"),
        ("ramsey", "pulse.calibration", "1e-300"),
        ("pump", "experiment.rabi_frequency", "1e+300 MHz"),
        ("pump", "experiment.rabi_frequency", "1e+36 MHz"),
        ("t1", "experiment.pump.rabi_frequency", "1e+300 MHz"),
        ("rabi", "experiment.pump.rabi_frequency", "1e+300 MHz"),
    ], ids=["detuning", "calibration", "pump", "pump-1e36", "t1-pump",
            "rabi-pump"])
    def test_overflowing_drive_exits_2(self, tmp_path, kind, key, value):
        # one process, so that a numpy warning would reach stderr; the
        # bad seed shows that the drive is listed with the other problems
        root = Path(d.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        sets = [f"{key}={value}", "seed=.nan"]
        if key == "pulse.calibration":
            sets.append("levels.optical_detuning=1e+300 MHz")
        result = subprocess.run(
            [sys.executable, "-m", "donorspin", "simulate", "--config",
             str(root / "configs" / f"{kind}.yaml"),
             *[arg for item in sets for arg in ("--set", item)],
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 2
        lines = result.stderr.splitlines()
        named = "levels.optical_detuning" if kind == "ramsey" else key
        assert len(lines) == 3 and lines[0] == "validation error:"
        assert lines[1].startswith(f"  - {named}") and "non-finite" in lines[1]
        assert lines[2].startswith("  - seed")
        assert not (tmp_path / "out").exists()

    def test_huge_pulse_energy_stderr_holds_only_the_message(self, tmp_path):
        # a separate process, so that a numpy RuntimeWarning would reach
        # stderr as a user sees it
        root = Path(d.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "donorspin", "simulate", "--config",
             str(root / "configs" / "rabi.yaml"), "--set",
             'experiment.energies=["0 nJ", "1e300 nJ"]',
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 3
        assert result.stderr.splitlines() == [
            "numerical failure: pulse energy 1e+291 J makes the generator "
            "at the envelope peak non-finite"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["ramsey", "echo"])
    def test_detuning_inside_the_pulse_bandwidth_exits_2(self, tmp_path,
                                                         capsys, kind):
        # at 20 MHz the far-detuned "pi/2" pulse would rotate by 5.8e-4 rad
        code, _, stderr = run_cli(
            ["simulate", "--config", f"configs/{kind}.yaml", "--set",
             "levels.optical_detuning=20 MHz", "--set", "bath.ensemble=exact",
             "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert stderr.splitlines() == [
            "validation error:",
            "  - levels.optical_detuning: 1.25664e+08 rad/s is below 5 x "
            "(1/pulse.duration + hole splitting) = 3.37908e+12 rad/s, where "
            "pulse.rotation_angle sets the pulse energy"]
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


def write_lattice_profile(tmp_path, lattice_a="0.01 angstrom",
                          lattice_c="5.21 angstrom"):
    """A valid material profile with other lattice constants; by default
    its lattice sum would need ~1e19 sites."""
    return write_profile(tmp_path / "tiny.yaml", lattice_a=lattice_a,
                         lattice_c=lattice_c)


class TestEstimateCommand:
    def test_tiny_lattice_exits_2_before_enumerating(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["estimate", "--config", "configs/estimate.yaml", "--set",
             f"material={write_lattice_profile(tmp_path)}",
             "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "zinc sites" in stderr
        assert not (tmp_path / "out").exists()

    def test_sparse_lattice_exits_3(self, tmp_path, capsys):
        # 15 times ZnO's spacing leaves 4.8% of the dipolar sum beyond
        # the 10 nm cutoff
        profile = write_lattice_profile(tmp_path, "50 angstrom", "80 angstrom")
        code, _, stderr = run_cli(
            ["estimate", "--config", "configs/estimate.yaml", "--set",
             f"material={profile}",
             "--out", str(tmp_path / "out")], capsys)
        assert code == 3
        assert "continuum tail" in stderr and "more than 1%" in stderr
        assert "Traceback" not in stderr

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

    @pytest.mark.parametrize("orientation, t2_sd", [
        ("[1, 0, 0]", 196.35e-6), ("[0, 0, 1]", 190.09e-6)])
    def test_field_orientation_sets_the_lattice_sum_axis(
            self, tmp_path, capsys, orientation, t2_sd):
        code, stdout, _ = run_cli(
            ["estimate", "--config", "configs/estimate.yaml", "--set",
             f"field.orientation={orientation}",
             "--out", str(tmp_path / "out")], capsys)
        assert code == 0
        report = yaml.safe_load(
            (run_dir_from(stdout) / "estimate_report.yaml").read_text())
        assert report["budget"]["t2_sd_s"] == pytest.approx(t2_sd, abs=5e-9)

    @pytest.mark.parametrize("sets, mode", [
        ((), "continuum"),
        (("bath.kind=material", "bath.dispersion_mode=lattice-sum"),
         "lattice-sum"),
        (("bath.kind=gaussian", "bath.t2_star=20 ns"), "continuum")])
    def test_t2_star_row_is_the_material_bath(self, tmp_path, capsys,
                                              monkeypatch, material, sets,
                                              mode):
        expected = d.t2_star_theory(material, mode).quadrature_time
        enumerate_sites, calls = d.lattice.zn_sites_within, []

        def counted(*args):
            calls.append(args)
            return enumerate_sites(*args)

        monkeypatch.setattr(d.lattice, "zn_sites_within", counted)
        argv = ["estimate", "--config", "configs/estimate.yaml"]
        for override in sets:
            argv += ["--set", override]
        code, stdout, _ = run_cli(argv + ["--out", str(tmp_path / "out")],
                                  capsys)
        assert code == 0
        report = yaml.safe_load(
            (run_dir_from(stdout) / "estimate_report.yaml").read_text())
        assert report["budget"]["t2_star_quadrature_s"] == pytest.approx(
            expected, rel=1e-12)
        # the dipolar sum, and the lattice-sum bath's sum once, at parse
        assert len(calls) == 1 + (mode == "lattice-sum")

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


def write_decay_trace(tmp_path):
    x = np.linspace(0.0, 8e-6, 30)
    y = 0.1 + 0.8 * np.exp(-x / 2e-6)
    path = tmp_path / "decay.csv"
    cli.write_trace_file(path, ["tau_s", "p_up", "p_up_stderr"],
                         list(zip(x, y, np.full_like(y, 0.01))),
                         comments=["synthetic decay"])
    return path


class TestFitCommand:
    def test_compare_selects_generating_model(self, tmp_path, capsys):
        data = write_decay_trace(tmp_path)
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
        data = write_decay_trace(tmp_path)
        code, _, stderr = run_cli(
            ["fit", "--data", str(data), "--compare", "stretchy"], capsys)
        assert code == 2
        assert "exp_decay" in stderr and "aliases" in stderr

    def test_empty_compare_is_a_listed_problem(self, tmp_path, capsys):
        data = write_decay_trace(tmp_path)
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["fit", "--data", str(data), "--compare", "", "--out", str(out)],
            capsys)
        assert code == 2
        assert "--compare: unknown model ''" in stderr
        assert not out.exists()

    def test_power_law_on_a_decay_from_zero_is_a_listed_problem(
            self, tmp_path, capsys):
        data = write_decay_trace(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, stderr = run_cli(
                ["fit", "--data", str(data), "--compare", "power",
                 "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "  - power_law needs every abscissa > 0" in stderr
        assert not caught and "Warning" not in stderr

    def test_compare_reports_a_model_that_cannot_fit(self, tmp_path, capsys):
        data = write_decay_trace(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run_cli(
                ["fit", "--data", str(data), "--compare", "exp,power",
                 "--out", str(tmp_path / "out")], capsys)
        assert code == 0, stderr
        assert not caught and "Warning" not in stderr
        report = yaml.safe_load(
            (run_dir_from(stdout) / "fit_report.yaml").read_text())
        entry = report["fits"][0]
        assert entry["best_model"] == "exp_decay"
        assert "abscissa > 0" in entry["models"]["power_law"]["error"]
        assert "power_law: cannot fit" in stdout

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


@pytest.mark.parametrize("command, config, override, path", [
    ("simulate", "ramsey", "bath.sample=50", "bath.sample"),
    ("simulate", "ramsey", "pulse.energie=0.1 nJ", "pulse.energie"),
    ("simulate", "ramsey", "field.magnitud=5 T", "field.magnitud"),
    ("simulate", "ramsey", "experiment.point_per_period=9",
     "experiment.point_per_period"),
    ("simulate", "ramsey", "dissipators.t1rate=auto", "dissipators.t1rate"),
    ("simulate", "echo", "experiment.injected={exponent: 2}",
     "experiment.injected.time_constant"),
    ("simulate", "rabi", "experiment.pump.rabi_frequncy=20 MHz",
     "experiment.pump.rabi_frequncy"),
    ("simulate", "t1", "field.magnitude=null", "field.magnitude"),
    ("fit", "t1", "fit.model=5", "fit.model"),
    ("fit", "t1", "fit.compare=5", "fit.compare"),
    ("fit", "t1", "fit.compare=exp", "fit.compare"),
])
def test_unknown_or_missing_key_exits_2_naming_its_path(
        tmp_path, capsys, command, config, override, path):
    argv = [command, "--config", f"configs/{config}.yaml", "--set", override,
            "--out", str(tmp_path / "out")]
    if command == "fit":
        argv += ["--data", str(write_decay_trace(tmp_path))]
    code, _, stderr = run_cli(argv, capsys)
    assert code == 2
    assert path in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


def test_lattice_sum_cutoff_is_capped_before_enumerating(tmp_path, capsys,
                                                         monkeypatch):
    def no_sites(*args):
        raise AssertionError("zn_sites_within must not be called")

    monkeypatch.setattr(d.lattice, "zn_sites_within", no_sites)
    code, _, stderr = run_cli(
        ["simulate", "--config", "configs/ramsey.yaml",
         "--set", "bath.kind=material",
         "--set", "bath.dispersion_mode=lattice-sum",
         "--set", "bath.cutoff=1 um", "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert "- bath:" in stderr and "zinc sites" in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t2_star, problem", [
    ("null", "bath.t2_star is required"),
    ("0 s", "bath: t2_star must be positive")])
def test_gaussian_bath_t2_star_is_listed_with_every_problem(tmp_path, capsys,
                                                            t2_star, problem):
    # without t2_star a gaussian bath once ran as no bath at all, and a
    # bad t2_star hid every other problem of the document
    code, _, stderr = run_cli(
        ["simulate", "--config", "configs/ramsey.yaml",
         "--set", f"bath.t2_star={t2_star}", "--set", "bath.ensemble=exact",
         "--set", "experiment.periods=-1", "--out", str(tmp_path / "out")],
        capsys)
    assert code == 2
    assert problem in stderr and "experiment.periods" in stderr
    assert not (tmp_path / "out").exists()


def test_a_bad_pulse_is_listed_with_every_problem(tmp_path, capsys):
    # the pulse was once built only when no other problem was listed
    bad_pulse = "pulse: invalid pulse: pulse duration must be positive"
    with pytest.raises(d.ValidationError) as err:
        d.load_run_config("configs/rabi.yaml", [
            "pulse.duration=-1 ps", "dissipators.ground_dephasing_rate=abc"])
    assert len(err.value.problems) == 2
    assert any(p.startswith(bad_pulse) for p in err.value.problems)
    code, _, stderr = run_cli(
        ["simulate", "--config", "configs/ramsey.yaml",
         "--set", "field.magnitude=abc", "--set", "pulse.duration=-1 ps",
         "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert "field.magnitude" in stderr and bad_pulse in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, override, problems", [
    ("rabi", "experiment.count=1", ["experiment.count must be >= 2"]),
    ("rabi", "experiment.max_energy=0.45 parsec",
     ["experiment.max_energy: unknown unit 'parsec'; known energy units: "
      "J, fJ, mJ, nJ, pJ, uJ"]),
    ("rabi", "experiment.max_energy=null",
     ["experiment: rabi needs energies or max_energy"]),
    ("t1", "experiment.count=3", ["experiment.count must be >= 4"]),
    ("t1", "experiment.max_wait=0.5 parsec",
     ["experiment.max_wait: unknown unit 'parsec'; known time units: "
      "fs, ms, ns, ps, s, us, \u00b5s"]),
    ("t1", "experiment.max_wait=null",
     ["experiment: t1 needs waits or max_wait"]),
])
def test_a_grid_needs_its_keys_only_when_both_are_absent(config, override,
                                                         problems):
    # a malformed count or top value once also listed "needs X or Y"
    # although the top value was given
    with pytest.raises(d.ValidationError) as err:
        d.load_run_config(f"configs/{config}.yaml", [override])
    assert err.value.problems == problems


@pytest.mark.parametrize("command", ["simulate", "estimate", "fit"])
def test_only_sweep_takes_jobs(command):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--jobs", "2"])
    assert cli.build_parser().parse_args(["sweep", "--jobs", "2"]).jobs == 2


def test_one_table_entry_is_all_a_kind_needs(tmp_path, capsys,
                                             monkeypatch):
    def toy(config):
        return {"toy_trace.csv": (["x_s", "y"], [(0.0, 1.0)])}, {"rows": 1}

    monkeypatch.setitem(_KINDS, "toy", _Kind(("width",), toy, ("pulse",)))
    doc = minimal_rabi_doc()
    doc["experiment"] = {"kind": "toy", "width": 3, "height": 2}
    with pytest.raises(d.ValidationError) as info:
        d.parse_run_config(doc)
    assert info.value.problems == [
        "unknown key 'experiment.height' (known: ['kind', 'width'])"]

    del doc["experiment"]["height"]
    code, stdout, _ = run_cli(["simulate", "--config",
                               write_config(tmp_path, doc), "--out",
                               str(tmp_path / "out")], capsys)
    assert code == 0
    written = sorted(p.name for p in run_dir_from(stdout).iterdir())
    assert written == ["toy_meta.yaml", "toy_trace.csv"]

    del doc["pulse"]
    code, _, stderr = run_cli(["simulate", "--config",
                               write_config(tmp_path, doc), "--out",
                               str(tmp_path / "refused")], capsys)
    assert code == 2
    assert "experiment 'toy' requires a pulse section" in stderr
    assert not (tmp_path / "refused").exists()


def test_readme_lists_the_keys_of_each_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Configuration files\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| (.+?) \| (.+?) \|$", section, re.M)
    listed = {label: re.findall(r"`(\w+)`", keys) for label, keys in rows[1:]}
    expected = {f"`{path}`" if path else "top level": list(keys)
                for path, keys in _KEYS.items()}
    expected.update({f"`experiment`, kind `{name}`": ["kind", *kind.keys]
                     for name, kind in _KINDS.items()})
    assert listed == expected


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

    def sweep_files(self, tmp_path, capsys, config, axis, values, jobs):
        """Each file of a sweep by its path in the sweep directory, less
        the meta's output line."""
        code, stdout, _ = run_cli(
            ["sweep", "--config", config, "--axis", axis, "--values", values,
             "--jobs", jobs, "--out", str(tmp_path / f"jobs{jobs}")], capsys)
        assert code == 0
        sweep_dir = run_dir_from(stdout)
        return {path.relative_to(sweep_dir): b"".join(
            line for line in path.read_bytes().splitlines(True)
            if not line.lstrip().startswith(b"output:"))
            for path in sorted(sweep_dir.rglob("*")) if path.is_file()}

    def test_parallel_sweep_writes_the_serial_bytes(self, tmp_path, capsys):
        # a t1 sweep runs in this process at any --jobs, so every file
        # keeps its bytes; only the meta's output line differs
        config = write_config(tmp_path, self.t1_doc())
        files = {jobs: self.sweep_files(tmp_path, capsys, config,
                                        "dissipators.t1_rate",
                                        "10 1/s,20 1/s", jobs)
                 for jobs in ("1", "2")}
        assert len(files["1"]) == 6
        assert files["1"] == files["2"]

    def test_pool_sweep_writes_the_serial_bytes(self, tmp_path, capsys):
        # pool workers run the same code on the same values as this
        # process, so a rabi sweep keeps its bytes as well
        doc = minimal_rabi_doc()
        doc["experiment"]["count"] = 3
        config = write_config(tmp_path, doc)
        files = {jobs: self.sweep_files(tmp_path, capsys, config,
                                        "field.magnitude", "4 T,5 T", jobs)
                 for jobs in ("1", "2")}
        assert len(files["1"]) == 6
        assert files["1"] == files["2"]

    def test_only_pulse_sweeps_start_a_pool(self, tmp_path, capsys,
                                            monkeypatch):
        pools = []

        def recording_pool(max_workers):
            pools.append(max_workers)
            return contextlib.nullcontext(mock.Mock(map=map))

        # cmd_sweep imports the pool class only when it starts a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            recording_pool)
        rabi = minimal_rabi_doc()
        rabi["experiment"]["count"] = 3
        for doc, axis, values, started in [
                (self.t1_doc(), "dissipators.t1_rate", "10 1/s,20 1/s", []),
                (load_config_document("configs/pump.yaml", []),
                 "experiment.rabi_frequency", "15 MHz,25 MHz", []),
                (rabi, "field.magnitude", "4 T,5 T", [2])]:
            pools.clear()
            code, _, _ = run_cli(
                ["sweep", "--config", write_config(tmp_path, doc), "--axis",
                 axis, "--values", values, "--jobs", "2",
                 "--out", str(tmp_path / "out")], capsys)
            assert code == 0
            assert pools == started, doc["experiment"]["kind"]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_exits_2_before_any_run(self, tmp_path, capsys,
                                                   monkeypatch, jobs):
        runs = []
        monkeypatch.setattr(cli, "_sweep_one", lambda *args: runs.append(args))
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["sweep", "--config", "configs/t1.yaml", "--axis",
             "field.magnitude", "--values", "2 T,3 T", "--jobs", jobs,
             "--out", str(out)], capsys)
        assert code == 2
        assert f"- --jobs must be at least 1, got {jobs}" in stderr
        assert runs == []
        assert not out.exists()

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

    def test_t1_sweep_checks_its_axis_before_any_run(self, tmp_path,
                                                     capsys, monkeypatch):
        runs, sweep_one = [], cli._sweep_one

        def counted(document, axis, value):
            runs.append(value)
            return sweep_one(document, axis, value)

        monkeypatch.setattr(cli, "_sweep_one", counted)
        config = write_config(tmp_path, self.t1_doc())
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["sweep", "--config", config, "--axis", "field.magnitude",
             "--values", "0 T,2 T", "--jobs", "1", "--out", str(out)], capsys)
        assert code == 2
        assert "the log-log T1 fit needs finite positive sweep values, got " \
            "[0.0, 2.0]" in stderr
        assert runs == []
        assert not out.exists()

    @pytest.mark.parametrize("values, problem", [
        ("2 T,3000 mT,4 T", "sweep values must share one unit (the text "
         "after their number), got ['2 T', '3000 mT', '4 T']"),
        ("2 T,2.0 T", "the log-log T1 fit needs distinct sweep values, got "
         "[2.0, 2.0]"),
    ])
    def test_t1_sweep_values_are_checked_before_any_run(
            self, tmp_path, capsys, monkeypatch, values, problem):
        # mixed units fit the numbers without their units, and a repeated
        # number leaves the log-log fit rank-deficient
        runs = []
        monkeypatch.setattr(cli, "_sweep_one", lambda *args: runs.append(args))
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["sweep", "--config", "configs/t1.yaml", "--axis",
             "field.magnitude", "--values", values, "--jobs", "1",
             "--out", str(out)], capsys)
        assert code == 2
        assert f"- {problem}" in stderr
        assert runs == []
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

    def test_repeated_value_exits_2_before_running(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, stderr = run_cli(
            ["sweep", "--config", "configs/t1.yaml", "--axis",
             "field.magnitude", "--values", "3 T,2 T,3 T", "--jobs", "1",
             "--out", str(out)], capsys)
        assert code == 2
        assert "distinct" in stderr
        assert not out.exists()

    def test_axis_values_parsed_with_their_numbers(self):
        assert cli._axis_values(" 2 T, 3,1e3 Hz,") == (
            ["2 T", "3", "1e3 Hz"], [2.0, 3.0, 1000.0])

    def test_sweep_requires_axis_and_values(self, tmp_path, capsys):
        config = write_config(tmp_path, minimal_rabi_doc())
        code, _, stderr = run_cli(["sweep", "--config", config], capsys)
        assert code == 2
        assert "--axis" in stderr

    def test_sweep_values_may_start_with_a_negative_number(self, tmp_path,
                                                          capsys):
        config = write_config(tmp_path, minimal_rabi_doc())
        for values in ("-1.5e-07", "-3,5"):
            code, _, stderr = run_cli(
                ["sweep", "--config", config, "--axis", "experiment.count",
                 "--values", values, "--out", str(tmp_path / "out")], capsys)
            assert code == 2
            assert "validation error" in stderr


@settings(max_examples=15, deadline=None)
@given(st.one_of(st.integers(min_value=-5, max_value=1500),
                 st.sampled_from([".nan", ".inf", "abc", "1.5"])))
@example(samples=10 ** 12)
def test_mc_sample_count_keeps_the_exit_code_contract(tmp_path_factory,
                                                      samples):
    # drawn counts stay small; a count past the cap is listed before
    # any draw, so no draw can exhaust memory
    out = tmp_path_factory.mktemp("mc")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["simulate", "--config", "configs/ramsey.yaml",
                         "--set", "bath.ensemble=mc",
                         "--set", f"bath.samples={samples}",
                         "--out", str(out)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        meta = yaml.safe_load(
            (run_dir_from(stdout.getvalue()) / "ramsey_meta.yaml").read_text())
        assert meta["config"]["bath_samples"] == samples
    else:
        assert not isinstance(samples, int) or samples < 1 \
            or samples > _MC_SAMPLES_CAP


_INJECTED = st.one_of(
    st.sampled_from(["5", "abc", "[1]", "null"]),
    st.builds(lambda tc, ex: f"{{time_constant: '{tc:g} us', "
                             f"exponent: {ex:g}}}",
              st.one_of(st.just(0.0),
                        st.floats(min_value=1e-3, max_value=200.0)),
              st.floats(min_value=0.5, max_value=3.0)))


@settings(max_examples=12, deadline=None)
@given(injected=_INJECTED,
       periods=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]),
       points_per_period=st.integers(min_value=4, max_value=16),
       ensemble=st.sampled_from(["exact", "mc", "sampled"]),
       samples=st.integers(min_value=-1, max_value=300))
@example(injected="5", periods=2.0, points_per_period=9, ensemble="exact",
         samples=300)
@example(injected="{time_constant: '50 us', exponent: 1}", periods=2.0,
         points_per_period=8, ensemble="exact", samples=300)
@example(injected="{time_constant: '50 us', exponent: 1}", periods=0.5,
         points_per_period=9, ensemble="mc", samples=300)
def test_echo_inputs_keep_the_exit_code_contract(
        tmp_path_factory, injected, periods, points_per_period, ensemble,
        samples):
    out = tmp_path_factory.mktemp("echo")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["simulate", "--config", "configs/echo.yaml",
                         "--set", f"experiment.injected={injected}",
                         "--set", f"experiment.periods={periods}",
                         "--set", f"experiment.points_per_period="
                                  f"{points_per_period}",
                         "--set", f"bath.ensemble={ensemble}",
                         "--set", f"bath.samples={samples}",
                         "--out", str(out)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    parsed = yaml.safe_load(injected)
    valid = (parsed is None or (
        isinstance(parsed, dict)
        and float(parsed["time_constant"].split()[0]) > 0.0
        and parsed["exponent"] >= 1.0)) \
        and periods >= 0.5 and points_per_period >= 8 \
        and ensemble in ("exact", "mc") and samples >= 1
    assert code == (0 if valid else 2), stderr.getvalue()


def test_cli_import_leaves_out_the_ode_solver():
    # scipy serves only the adaptive integrator, which imports
    # scipy.integrate when it runs, so neither the package nor the CLI
    # loads any scipy module at start; nor the sweep's worker pool,
    # which only a pool sweep imports
    src = Path(d.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    for module in ("donorspin", "donorspin.cli"):
        code = (f"import sys, {module}; "
                "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] "
                "in ('scipy', 'concurrent', 'multiprocessing')) or None)")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, (module, result.stderr)


@settings(max_examples=15, deadline=None)
@given(theta2=st.one_of(
           st.sampled_from(["'90 deg'", "'1.2 rad'", "'4 rad'", "'-1 rad'",
                            "'5 T'", "'abc'", ".nan", ".inf", "-.inf",
                            "null", "[1, 2]", "{a: 1}"]),
           st.floats(min_value=-4.0, max_value=4.0).map(repr)),
       variant=st.sampled_from(["numerator-pi", "denominator-pi", "pi", "5",
                                "[1]"]),
       magnitude=st.sampled_from(["'5 T'", "'0 T'", "'-1 T'", "'1e400 T'",
                                  "'5 Hz'", "5", "abc"]),
       material=st.sampled_from(["zno-natural", "no-such-profile", "5",
                                 "[1]", "{a: 1}", "tiny-lattice",
                                 "sparse-lattice"]))
@example(theta2="'1.5707963267948966 rad'", variant="numerator-pi",
         magnitude="'5 T'", material="tiny-lattice")
def test_estimate_inputs_keep_the_exit_code_contract(
        tmp_path_factory, theta2, variant, magnitude, material):
    out = tmp_path_factory.mktemp("estimate")
    if material == "tiny-lattice":
        material = write_lattice_profile(out)
    elif material == "sparse-lattice":
        material = write_lattice_profile(out, "50 angstrom", "80 angstrom")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["estimate", "--config", "configs/estimate.yaml",
                         "--set", f"fit.theta2={theta2}",
                         "--set", f"fit.variant={variant}",
                         "--set", f"field.magnitude={magnitude}",
                         "--set", f"material={material}",
                         "--out", str(out / "runs")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()


# a power law cannot fit the decay, which starts at zero: alone it is a
# listed problem, and beside another model it is reported as unfitted
_MODEL_NAMES = ["exp", "exp_decay", "gaussian", "cubed_exp_decay", "power",
                "stretchy"]


@settings(max_examples=15, deadline=None)
@given(model=st.sampled_from(_MODEL_NAMES + ["5", "null", "[exp]", "{a: 1}"]),
       compare=st.one_of(
           st.sampled_from(["null", "exp", "5", "[]", "{a: 1}", "[[1]]"]),
           st.lists(st.sampled_from(_MODEL_NAMES), min_size=1,
                    max_size=3).map(lambda names: f"[{', '.join(names)}]")))
@example(model="exp", compare="null")
@example(model="5", compare="[gaussian, exp]")
@example(model="exp", compare="[power, exp]")
@example(model="power", compare="null")
def test_fit_inputs_keep_the_exit_code_contract(tmp_path_factory, model,
                                                compare):
    out = tmp_path_factory.mktemp("fit")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["fit", "--config", "configs/t1.yaml",
                         "--data", str(write_decay_trace(out)),
                         "--set", f"fit.model={model}",
                         "--set", f"fit.compare={compare}",
                         "--out", str(out / "runs")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    names = yaml.safe_load(compare)
    if names is None:
        names = [yaml.safe_load(model) or "exp_decay"]
    known = {"exp", "exp_decay", "gaussian", "cubed_exp_decay", "power"}
    valid = isinstance(names, list) and bool(names) \
        and all(isinstance(n, str) and n in known for n in names) \
        and set(names) != {"power"}
    assert code == (0 if valid else 2), stderr.getvalue()


_QUANTITIES = {
    "energy": ["'0.45 nJ'", "'0 nJ'", "'-1 nJ'", "'1e300 nJ'"],
    "time": ["'1.9 ps'", "'10 us'", "'0 s'", "'-1 s'", "'1e400 s'"],
    "field": ["'5 T'", "'0.1 T'", "'0 T'", "'-1 T'"],
    "frequency": ["'20 MHz'", "'0 MHz'", "'-5 MHz'", "'1e300 MHz'"],
    "rate": ["auto", "'10 1/s'", "'0 1/s'", "'-1 1/s'", "'1e300 1/s'"],
    "angle": ["'90 deg'", "'1.2 rad'", "0", "'-1 rad'", "-1"],
}
_JUNK = ["abc", "'5 T'", ".nan", ".inf", "null", "[1]", "{a: 1}"]
_BRANCHING = ("[[0.3, 0.7], [0.5, 0.5]]", "[[1, 0], [0, 1]]",
              "[[true, false], [0.5, 0.5]]", "[[0.5], [0.5, 0.5]]",
              "[[0.5, 0.5]]", "[[0.5, 0.5], [0.5, .nan]]",
              "[[0.9, 0.9], [0.5, 0.5]]", "[[-0.5, 1.5], [0.5, 0.5]]")
_ORIENTATION = ("[0, 0, 1]", "[1, 1, 0]", "[true, false, false]",
                "[0, 0, 0]", "[1, 0]", "[1, 0, 0, 0]", "[.inf, 0, 0]",
                "[1.0e+308, 1.0e+308, 0]", "[[1], 0, 0]")
# lists of at most 3 energies and 2 first delays, several holding a bare 0
_ENERGY_LISTS = ("[0, '0.1 nJ']", "[0, 0.0, '0.45 nJ']", "['0 nJ', 0]", "[0]",
                 "[]", "[0, '-1 nJ']", "[0, abc]", "['0.2 nJ', 1e300]")
_TAU1_LISTS = ("['5 us']", "[0, '10 us']", "['5 us', '10 us']", "[0]", "[]",
               "['-5 us', '10 us']", "['1e400 s']")


def _draw_of(kind, high=5):
    """Values for one key, a quarter of them junk: ``kind`` is a quantity
    kind, ``count`` (integers from -2 to ``high``) or a tuple of choices.
    A null count would restore the default of dozens of points, so
    counts draw no null."""
    if kind == "count":
        good = st.integers(min_value=-2, max_value=high).map(str)
        junk = [j for j in _JUNK if j != "null"]
    else:
        good = st.sampled_from(_QUANTITIES.get(kind, kind))
        junk = _JUNK
    return st.one_of(good, good, good, st.sampled_from(junk + ["1.5"]))


# every draw stays small: at most 5 rabi points, 2 echo first delays and
# a few hundred waits, pump or bath samples, so no run can exhaust memory
_SET_DRAWS = {
    "rabi": {"experiment.count": _draw_of("count"),
             "experiment.max_energy": _draw_of("energy"),
             "experiment.energies": _draw_of(_ENERGY_LISTS),
             "pulse.shape": _draw_of(("gaussian", "sech2", "rectangular",
                                      "square")),
             "pulse.duration": _draw_of("time"),
             "experiment.pump.samples": _draw_of("count", high=300),
             "field.magnitude": _draw_of("field"),
             "field.orientation": _draw_of(_ORIENTATION)},
    "t1": {"experiment.count": _draw_of("count", high=300),
           "experiment.max_wait": _draw_of("time"),
           "dissipators.t1_rate": _draw_of("rate"),
           "dissipators.branching": _draw_of(_BRANCHING),
           "experiment.pump.duration": _draw_of("time"),
           "field.magnitude": _draw_of("field")},
    "pump": {"experiment.samples": _draw_of("count", high=400),
             "experiment.rabi_frequency": _draw_of("frequency"),
             "experiment.duration": _draw_of("time"),
             "dissipators.radiative_lifetime": _draw_of("time"),
             "dissipators.branching": _draw_of(_BRANCHING),
             "field.orientation": _draw_of(_ORIENTATION),
             "field.magnitude": _draw_of("field")},
    "ramsey": {"bath.kind": _draw_of(("none", "material", "gaussian",
                                      "junk")),
               "bath.t2_star": _draw_of("time"),
               "bath.ensemble": _draw_of(("exact", "mc")),
               "bath.samples": _draw_of("count", high=300),
               "levels.optical_detuning": _draw_of("frequency")},
    "echo": {"experiment.tau1_values": _draw_of(_TAU1_LISTS),
             "experiment.periods": _draw_of(("0.5", "2", "0.1")),
             "experiment.points_per_period": _draw_of(("8", "9", "7")),
             "experiment.injected.time_constant": _draw_of("time"),
             "experiment.injected.exponent": _draw_of(("1", "2", "0.5")),
             "bath.ensemble": _draw_of(("exact", "mc")),
             "bath.samples": _draw_of("count", high=300),
             "pulse.rotation_angle": _draw_of("angle")},
    "estimate": {"fit.theta2": _draw_of("angle"),
                 "fit.variant": _draw_of(("numerator-pi", "denominator-pi",
                                          "pi")),
                 "field.magnitude": _draw_of("field"),
                 "field.orientation": _draw_of(_ORIENTATION),
                 "experiment.rabi_frequency": _draw_of("frequency")},
}


def _run_main(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


@pytest.mark.parametrize("config", sorted(_SET_DRAWS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_set_overrides_keep_the_exit_code_contract(tmp_path_factory, config,
                                                   data):
    overrides = data.draw(st.fixed_dictionaries(
        {}, optional=_SET_DRAWS[config]))
    command = "estimate" if config == "estimate" else "simulate"
    argv = [command, "--config", f"configs/{config}.yaml"]
    if config == "rabi" and "experiment.count" not in overrides:
        argv += ["--set", "experiment.count=3"]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    code, stderr = _run_main(
        argv + ["--out", str(tmp_path_factory.mktemp(config))])
    assert code in (0, 2, 3, 4), stderr
    assert "Traceback" not in stderr


# axis -> the unit its drawn numbers carry
_SWEEP_AXES = {"field.magnitude": " T", "dissipators.t1_rate": " 1/s",
               "experiment.max_wait": " s", "experiment.count": "",
               "seed": ""}


@settings(max_examples=15, deadline=None)
@given(axis=st.sampled_from(sorted(_SWEEP_AXES)), data=st.data())
def test_sweep_values_keep_the_exit_code_contract(tmp_path_factory, axis,
                                                  data):
    unit = _SWEEP_AXES[axis]
    number = st.one_of(st.integers(min_value=-3, max_value=60).map(str),
                       st.floats(min_value=-1.0, max_value=60.0).map(repr))
    value = st.one_of(number.map(lambda v: v + unit),
                      st.sampled_from(["abc", "", "[1, 2]", ".nan", ".inf",
                                       "1e400", "5 Hz", "auto"]))
    values = data.draw(st.lists(value, min_size=1, max_size=3))
    code, stderr = _run_main(
        ["sweep", "--config", "configs/t1.yaml", "--axis", axis,
         "--values", ",".join(values), "--jobs", "1",
         "--set", "experiment.count=5",
         "--out", str(tmp_path_factory.mktemp("sweep"))])
    assert code in (0, 2, 3, 4), stderr
    assert "Traceback" not in stderr


@settings(max_examples=10, deadline=None)
@given(cutoff=st.one_of(
    st.sampled_from(["'1 um'", "'60 nm'", "'-5 nm'", "'5 T'", "'1e400 nm'",
                     ".nan", "abc", "0", "null"]),
    st.one_of(st.floats(min_value=0.0, max_value=8.0),
              st.floats(min_value=9.0, max_value=20.0)).map(
        lambda nm: f"'{nm:g} nm'")))
@example(cutoff="'12 nm'")
def test_lattice_sum_cutoff_keeps_the_exit_code_contract(tmp_path_factory,
                                                         cutoff):
    # accepted draws stay at or below 20 nm, about 1.4e6 sites, and the
    # guard keeps a cutoff past the site cap from being enumerated
    enumerate_sites = d.lattice.zn_sites_within

    def bounded(lattice_a, lattice_c, radius):
        assert radius <= 25e-9, "a cutoff past the site cap was enumerated"
        return enumerate_sites(lattice_a, lattice_c, radius)

    out = tmp_path_factory.mktemp("cutoff")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), \
            mock.patch.object(d.lattice, "zn_sites_within", bounded):
        code = cli.main(["simulate", "--config", "configs/ramsey.yaml",
                         "--set", "bath.kind=material",
                         "--set", "bath.dispersion_mode=lattice-sum",
                         "--set", f"bath.cutoff={cutoff}",
                         "--set", "bath.ensemble=exact",
                         "--out", str(out)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    parsed = yaml.safe_load(cutoff)
    # null leaves the default of ten Bohr radii, 17 nm
    valid = parsed is None or (isinstance(parsed, str)
                               and parsed.endswith(" nm")
                               and 8.5 < float(parsed.split()[0]) <= 20.0)
    assert code == (0 if valid else 2), stderr.getvalue()
