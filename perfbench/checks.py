"""Output checks, one per request kind, and the fit's input data.

The checks run in the client process after each request, outside the
timed phase. Their tolerances are those of the seed's tests, except for
the Monte Carlo echo, which the tests do not cover. Each check returns
``None`` when the output is right, else a one-line reason.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

import donorspin as d
from workloads import SIMFIT_FIELD_T, T1_EXPONENT

# test_fixed_matches_adaptive: 1024-step propagators against DOP853
RABI_ORACLE_TOL = 5e-5
# acceptance criterion 1
RAMSEY_FREQ_REL = 5e-3
# acceptance criteria 6 and 7, and the t1 round trip
DECAY_REL = 0.05
# acceptance criterion 8
PUMP_FIDELITY = 0.95
# acceptance criterion 3: T2_ID(pi/2) = 240 us, scaling as 1/sin^2(theta/2)
ID_ANCHOR_S = 240e-6
# TestSimultaneousFit
SIMFIT_CAL_REL = 1e-4
SIMFIT_BETA1_REL = 1e-3

# The one failure the baseline is known to show; see README.md.
KNOWN_DEFECT = ("simultaneous fit stops early: _lm_minimize divides the step "
                "by max(|p|, 1), so beta1 << 1 always looks converged")

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _yaml(path):
    with open(path, encoding="utf-8") as handle:
        return yaml.load(handle, Loader=_LOADER)


def read_csv(path):
    """Columns of a donorspin trace file, by header name."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, k] for k, name in enumerate(header)}


def _rel(value, target):
    return abs(value / target - 1.0)


def _levels(field):
    return d.LevelScheme.from_material(d.load_material("zno-natural"),
                                       d.FieldConfig(field),
                                       2 * math.pi * 3.57e12)


# -- simultaneous fit --------------------------------------------------


def simfit_data(expect):
    """Rabi and fringe data at the true parameters, made untimed in the
    client; the fit starts from 0.9 x calibration and beta1 = 1e-3."""
    levels = _levels(SIMFIT_FIELD_T)
    pulse = d.PulseSpec(shape="gaussian", duration=1.9e-12, energy=1e-15,
                        calibration=expect["calibration"])
    truth = d.DissipatorSet(laser_dephasing_linear=expect["beta1"])
    e_half = d.energy_for_rotation_angle(pulse, levels, math.pi / 2)
    rabi_energies = np.linspace(0.2, 2.2, 5) * e_half
    fringe_energies = np.array([0.6, 1.0, 1.5]) * e_half
    return {
        "rabi_energies": rabi_energies.tolist(),
        "rabi_p_up": d.rabi_populations(rabi_energies, levels, pulse,
                                        truth).tolist(),
        "fringe_energies": fringe_energies.tolist(),
        "fringe_visibility": d.fringe_visibilities(fringe_energies, levels,
                                                   pulse, truth).tolist(),
        "initial": {"calibration": 0.9 * expect["calibration"],
                    "beta1": 1e-3},
    }


def check_simfit(expect, result):
    p = result["parameters"]
    if (_rel(p["calibration"], expect["calibration"]) <= SIMFIT_CAL_REL
            and _rel(p["beta1"], expect["beta1"]) <= SIMFIT_BETA1_REL):
        return None
    return (f"fit gave calibration {p['calibration']:.6e} (true "
            f"{expect['calibration']:.6e}), beta1 {p['beta1']:.4e} (true "
            f"{expect['beta1']:.4e}) after {result['iterations']} "
            f"iterations: {result['message']}")


def is_known_defect(request, reason):
    return request["op"] == "simfit" and reason is not None \
        and "relative parameter step below tolerance" in reason


# -- CLI requests ------------------------------------------------------


def _check_rabi(run_dir, argv, expect):
    trace = read_csv(run_dir / "rabi_trace.csv")
    if len(trace["p_up"]) != expect["count"]:
        return f"rabi trace has {len(trace['p_up'])} rows"
    config = d.load_run_config("configs/rabi.yaml", _overrides(argv))
    pump = config.experiment["pump"]
    rho0 = d.optical_pump(d.DensityMatrix.scrambled().matrix, config.levels,
                          pump.rabi, pump.duration, config.dissipators,
                          pump.samples).final.matrix
    points = expect["check_points"]
    oracle = d.rabi_populations(
        trace["pulse_energy_J"][points], config.levels, config.pulse,
        config.dissipators, rho0,
        integrator=d.IntegratorConfig(method="adaptive-rk"))
    error = float(np.max(np.abs(trace["p_up"][points] - oracle)))
    if error > RABI_ORACLE_TOL:
        return f"rabi p_up is {error:.2e} from the adaptive-rk oracle"
    return None


def _check_ramsey(run_dir, argv, expect):
    summary = _yaml(run_dir / "ramsey_meta.yaml")["summary"]
    larmor_hz = summary["larmor_rad_per_s"] / (2 * math.pi)
    fitted = summary["fitted_frequency_Hz"]
    if not (isinstance(fitted, float) and
            _rel(fitted, larmor_hz) <= RAMSEY_FREQ_REL):
        return f"ramsey fringe at {fitted} Hz, larmor {larmor_hz:.6e} Hz"
    return None


def _overrides(argv):
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]


def _check_echo_mc(trace, argv):
    """A Monte Carlo echo must match the exact contraction of the same
    config within 1/sqrt(samples): two worst-case standard errors of a
    mean of per-donor values in [0, 1]."""
    config = d.load_run_config("configs/echo.yaml",
                               _overrides(argv) + ["bath.ensemble=exact"])
    exp = config.experiment
    exact = d.run_echo_decay(
        np.asarray(exp["tau1_values"]), config.levels, config.pulse,
        config.dissipators, periods=exp["periods"],
        points_per_period=exp["points_per_period"], bath=config.bath,
        ensemble_mode="exact", injected=exp.get("injected")).amplitudes
    error = float(np.max(np.abs(trace["amplitude"] - exact)))
    if error > 1.0 / math.sqrt(config.bath_samples):
        return f"mc echo amplitude {error:.2e} from the exact contraction"
    return None


def _check_echo(run_dir, argv, expect):
    """Exact mode must recover the injected time constant within 5%.
    Monte Carlo noise alone moves that fit by up to 22% at 2,000 samples,
    and the trace's standard errors understate it because one sample set
    serves every delay, so mc mode is checked against exact mode."""
    trace = read_csv(run_dir / "echo_trace.csv")
    if "bath.ensemble=mc" in argv:
        return _check_echo_mc(trace, argv)
    fit = d.fit_curve("exp_decay", trace["echo_total_s"], trace["amplitude"])
    t_decay = fit.parameters["t_decay"]
    target = expect["time_constant"]
    if not fit.converged or _rel(t_decay, target) > DECAY_REL:
        return (f"echo decay fitted {t_decay:.4e} s, injected {target:.4e} s"
                f" ({fit.message})")
    return None


def _check_t1(run_dir, argv, expect):
    fitted = _yaml(run_dir / "t1_meta.yaml")["summary"]["fitted_t1_s"]
    if _rel(fitted, expect["t1"]) > DECAY_REL:
        return f"t1 fitted {fitted:.4e} s, model {expect['t1']:.4e} s"
    return None


def _check_fit(run_dir, argv, expect):
    entry = _yaml(run_dir / "fit_report.yaml")["fits"][0]
    exp = entry["models"]["exp_decay"]
    t_decay = exp["parameters"]["t_decay"]
    if entry["best_model"] != "exp_decay" or not exp["converged"] \
            or _rel(t_decay, expect["t1"]) > DECAY_REL:
        return (f"fit chose {entry['best_model']}, exp t_decay "
                f"{t_decay:.4e} s, model {expect['t1']:.4e} s")
    return None


def _check_pump(run_dir, argv, expect):
    fidelity = _yaml(run_dir / "pump_meta.yaml")["summary"]["fidelity"]
    if fidelity < PUMP_FIDELITY:
        return f"pump fidelity {fidelity:.4f}"
    return None


def _check_estimate(run_dir, argv, expect):
    budget = _yaml(run_dir / "estimate_report.yaml")["budget"]
    theta2 = expect["theta2"]
    anchor = ID_ANCHOR_S * math.sin(math.pi / 4) ** 2 \
        / math.sin(theta2 / 2) ** 2
    if _rel(budget["t2_id_s"], anchor) > DECAY_REL:
        return f"T2_ID {budget['t2_id_s']:.4e} s, anchor {anchor:.4e} s"
    return None


def _check_sweep(run_dir, argv, expect):
    exponent = _yaml(run_dir / "sweep_meta.yaml")["rate_exponent"]
    if _rel(exponent, T1_EXPONENT) > DECAY_REL:
        return f"sweep rate exponent {exponent:.4f}"
    return None


_CLI_CHECKS = {"rabi": _check_rabi, "ramsey": _check_ramsey,
               "echo": _check_echo, "t1": _check_t1, "fit": _check_fit,
               "pump": _check_pump, "estimate": _check_estimate,
               "sweep": _check_sweep}


def check(request, reply):
    """``None`` if the request succeeded and its output is right."""
    if reply["error"]:
        return "exception: " + reply["error"].strip().splitlines()[-1]
    if reply["rc"] != 0:
        return f"exit code {reply['rc']}"
    if request["kind"] == "simfit":
        return check_simfit(request["expect"], reply["result"])
    return _CLI_CHECKS[request["op"]](Path(reply["run_dir"]), request["argv"],
                                      request["expect"])
