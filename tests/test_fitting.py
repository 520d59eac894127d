"""Least-squares machinery: models, fringe extraction, ingestion."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import donorspin as d
from donorspin import fitting
from donorspin.fitting import (_CATALOGUE, ParameterSpec, _grid_costs,
                               _inverse_variance)
from reference import fringe_grid_costs

TWO_PI = 2.0 * math.pi

ROUNDTRIPS = {
    "sinusoid": (
        np.linspace(0.0, 600e-9, 61),
        {"amplitude": 0.3, "angular_frequency": TWO_PI * 5e6, "phase": 0.7,
         "offset": 0.45},
    ),
    "exp_decay": (
        np.linspace(0.0, 8e-6, 40),
        {"amplitude": 0.8, "t_decay": 2e-6, "offset": 0.1},
    ),
    "gaussian_decay": (
        np.linspace(0.0, 50e-9, 35),
        {"amplitude": 0.5, "t_decay": 17e-9, "offset": 0.02},
    ),
    "cubed_exp_decay": (
        np.linspace(0.0, 500e-6, 35),
        {"amplitude": 0.6, "t_decay": 200e-6, "offset": 0.05},
    ),
    "power_law": (
        np.linspace(1.0, 5.0, 25),
        {"amplitude": 2.5, "exponent": 3.5},
    ),
    "damped_sinusoid": (
        np.linspace(0.0, 2e-6, 121),
        {"amplitude": 0.4, "angular_frequency": TWO_PI * 3e6, "phase": -0.4,
         "offset": 0.5, "t_decay": 1.2e-6},
    ),
}


def evaluate(kind, params, x):
    names, model, _, _ = _CATALOGUE[kind]
    return model(np.array([params[n] for n in names]),
                 np.asarray(x, dtype=float))


def synthesize(kind):
    x, params = ROUNDTRIPS[kind]
    return x, evaluate(kind, params, x), params


class TestRoundtrips:
    @pytest.mark.parametrize("kind", sorted(ROUNDTRIPS))
    def test_noiseless_recovery(self, kind):
        x, y, params = synthesize(kind)
        result = d.fit_curve(kind, x, y)
        assert result.converged, result.message
        for name, value in params.items():
            assert result.parameters[name] == pytest.approx(
                value, rel=1e-6, abs=1e-12), name
        assert result.residual_norm < 1e-8

    @pytest.mark.parametrize("kind", ["exp_decay", "gaussian_decay"])
    def test_noisy_recovery_within_uncertainty(self, kind):
        x, y, params = synthesize(kind)
        rng = np.random.default_rng(8)
        sigma = 0.005
        noisy = y + rng.normal(0.0, sigma, size=y.shape)
        result = d.fit_curve(kind, x, noisy,
                             weights=np.full_like(y, sigma**-2))
        assert result.converged
        pull = abs(result.parameters["t_decay"] - params["t_decay"]) \
            / result.uncertainties["t_decay"]
        assert pull < 5.0

    def test_permutation_invariance(self):
        x, y, _ = synthesize("exp_decay")
        result = d.fit_curve("exp_decay", x, y)
        order = np.random.default_rng(0).permutation(len(x))
        shuffled = d.fit_curve("exp_decay", x[order], y[order])
        for name in result.parameters:
            assert shuffled.parameters[name] == pytest.approx(
                result.parameters[name], rel=1e-8)

    def test_weights_pin_the_fit(self):
        x, y, params = synthesize("exp_decay")
        corrupted = y.copy()
        corrupted[5] += 0.5
        weights = np.ones_like(y)
        weights[5] = 0.0
        result = d.fit_curve("exp_decay", x, corrupted, weights=weights)
        assert result.parameters["t_decay"] == pytest.approx(
            params["t_decay"], rel=1e-6)
        biased = d.fit_curve("exp_decay", x, corrupted)
        assert abs(biased.parameters["t_decay"] - params["t_decay"]) > \
            100.0 * abs(result.parameters["t_decay"] - params["t_decay"])


class TestFitDiagnostics:
    def test_singular_jacobian_reported_not_raised(self):
        x = np.linspace(0.0, 1.0, 20)
        y = np.full_like(x, 0.3)
        result = d.fit_curve("sinusoid", x, y)
        assert not result.converged
        assert "rank" in result.message
        assert result.parameters["offset"] == pytest.approx(0.3, abs=1e-9)

    def test_bounds_respected(self):
        x = np.linspace(0.0, 1e-6, 20)
        y = np.linspace(1.0, 1.5, 20)  # rising: a decay fit wants t < 0
        result = d.fit_curve("exp_decay", x, y)
        assert result.parameters["t_decay"] > 0

    def test_parameter_spec_validates_bounds(self):
        with pytest.raises(d.ValidationError):
            ParameterSpec("t_decay", init=-1.0, lower=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(d.ValidationError):
            d.fit_curve("stretchy_decay", [0, 1, 2, 3], [1, 2, 3, 4])
        with pytest.raises(d.ValidationError):
            d.fit_curve("sinusoid", [0, 1, 2, 3, 4], [1, 2, 3, 4, 5],
                        init={"frequency": 1.0})

    def test_data_validation(self):
        with pytest.raises(d.ValidationError):
            d.fit_curve("exp_decay", [0.0, 1.0], [1.0, 0.5])  # too short
        with pytest.raises(d.ValidationError):
            d.fit_curve("exp_decay", [0.0, 1.0, 2.0, math.nan],
                        [1.0, 0.5, 0.2, 0.1])
        with pytest.raises(d.ValidationError):
            d.fit_curve("exp_decay", [0.0, 1.0, 2.0, 3.0],
                        [1.0, 0.5, 0.2, 0.1], weights=[1.0, -1.0, 1.0, 1.0])

    def test_model_kinds_catalogue(self):
        assert set(ROUNDTRIPS) == set(d.MODEL_KINDS)

    @pytest.mark.parametrize("kind", ["exp_decay", "gaussian_decay",
                                      "cubed_exp_decay", "damped_sinusoid"])
    def test_tiny_decay_time_evaluates_without_warning(self, kind):
        # x / t_decay overflows to inf, which the bounded exponential
        # turns into exp(-745)
        p = {"amplitude": 1.0, "t_decay": 1e-300, "offset": 0.25,
             "angular_frequency": 1.0, "phase": 0.0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = evaluate(kind, p, [0.0, 1e-6, 1e9])
        assert values[0] == 1.25 and values[2] == pytest.approx(0.25)

    def test_mismatched_lengths_are_a_validation_error(self):
        # the initial guess once ran before the data were checked and
        # raised a bare IndexError
        with pytest.raises(d.ValidationError, match="equal length"):
            d.fit_curve("exp_decay", [0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(d.ValidationError, match="equal length"):
            d.compare_models(["exp_decay", "gaussian_decay"], [0.0, 1.0],
                             [1.0, 2.0, 3.0])

    def test_init_is_clamped_into_the_bounds(self):
        x, y, params = synthesize("exp_decay")
        result = d.fit_curve("exp_decay", x, y,
                             init={**params, "t_decay": -1.0})
        assert result.parameters["t_decay"] > 0


class TestCompareModels:
    def test_identifies_generating_model(self):
        x, y, _ = synthesize("gaussian_decay")
        rng = np.random.default_rng(4)
        noisy = y + rng.normal(0.0, 1e-3, size=y.shape)
        results = d.compare_models(
            ["exp_decay", "gaussian_decay", "cubed_exp_decay"], x, noisy)
        norms = {k: r.residual_norm for k, r in results.items()}
        assert min(norms, key=norms.get) == "gaussian_decay"

    def test_unknown_or_no_kind_raises_instead_of_listing(self):
        x, y, _ = synthesize("exp_decay")
        with pytest.raises(d.ValidationError, match="stretchy_decay"):
            d.compare_models(["exp_decay", "stretchy_decay"], x, y)
        # an empty list once raised a bare StopIteration
        with pytest.raises(d.ValidationError, match="no model kind"):
            d.compare_models([], x, y)


class TestFitFringe:
    def test_fixed_frequency_exact(self):
        omega = TWO_PI * 137.9e9
        x = np.linspace(0.0, 3.0 * TWO_PI / omega, 25)
        y = 0.42 + 0.17 * np.cos(omega * x - 0.6)
        fringe = d.fit_fringe(x, y, known_frequency=omega)
        assert fringe.visibility == pytest.approx(0.17, abs=1e-12)
        assert fringe.frequency == omega

    def test_fixed_frequency_uses_stderr_weights(self):
        omega = TWO_PI * 1e9
        x = np.linspace(0.0, 4e-9, 30)
        y = 0.5 + 0.2 * np.cos(omega * x)
        y[3] += 1.0  # outlier
        stderr = np.full_like(y, 0.01)
        stderr[3] = 1e6  # effectively excluded
        fringe = d.fit_fringe(x, y, known_frequency=omega, stderr=stderr)
        assert fringe.visibility == pytest.approx(0.2, abs=1e-6)

    def test_free_frequency_recovery(self):
        omega = TWO_PI * 137.9e9
        x = np.linspace(0.0, 4.0 * TWO_PI / omega, 41)
        y = 0.5 + 0.3 * np.cos(omega * x + 0.2)
        fringe = d.fit_fringe(x, y, frequency_guess=1.05 * omega)
        assert fringe.frequency == pytest.approx(omega, rel=1e-9)
        assert fringe.visibility == pytest.approx(0.3, rel=1e-6)

    @pytest.mark.parametrize("guess, ffts", [(1.05, 0), (None, 1)])
    def test_free_fit_runs_the_fft_only_without_a_guess(self, monkeypatch,
                                                         guess, ffts):
        # the LM polish once guessed a sinusoid, FFT included, and then
        # replaced every guessed value
        calls = []
        fft = fitting._dominant_frequency
        monkeypatch.setattr(fitting, "_dominant_frequency",
                            lambda x, y: calls.append(1) or fft(x, y))
        omega = TWO_PI * 137.9e9
        x = np.linspace(0.0, 4.0 * TWO_PI / omega, 41)
        y = 0.5 + 0.3 * np.cos(omega * x + 0.2)
        fringe = d.fit_fringe(x, y, frequency_guess=guess and guess * omega)
        assert len(calls) == ffts
        assert fringe.frequency == pytest.approx(omega, rel=1e-9)

    def test_free_frequency_needs_two_periods(self):
        omega = TWO_PI * 1e9
        x = np.linspace(0.0, 1.2 * TWO_PI / omega, 24)
        y = 0.5 + 0.3 * np.cos(omega * x)
        with pytest.raises(d.ValidationError):
            d.fit_fringe(x, y, frequency_guess=omega)

    def test_validation(self):
        with pytest.raises(d.ValidationError):
            d.fit_fringe([0.0, 1.0, 2.0], [1.0, 2.0, 1.0],
                         known_frequency=1.0)
        with pytest.raises(d.ValidationError):
            d.fit_fringe([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 1.0, 0.0],
                         known_frequency=-1.0)
        with pytest.raises(d.ValidationError):
            d.fit_fringe([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 1.0, 0.0],
                         known_frequency=1.0, stderr=[0.1, -0.1, 0.1, 0.1])


def shipped_first_window(field, ensemble):
    """Delays, p_up and its stderr of the first window of
    configs/ramsey.yaml at ``field`` tesla, and the Larmor frequency."""
    root = Path(d.__file__).resolve().parents[2]
    config = d.load_run_config(str(root / "configs" / "ramsey.yaml"), [
        f"field.magnitude={field} T", f"bath.ensemble={ensemble}"])
    exp, larmor = config.experiment, config.levels.electron_splitting
    window = d.ramsey_window_plan(exp["delay_centers"][:1], larmor,
                                  exp["periods"], exp["points_per_period"])
    trace = d.run_ramsey(window, config.levels, config.pulse,
                         config.dissipators, bath=config.bath,
                         ensemble_mode=config.ensemble_mode,
                         bath_samples=config.bath_samples,
                         seed=config.seed).trace
    return window[0], trace.p_up, trace.p_up_stderr, larmor


def assert_grid_matches_the_loop(x, y, stderr, guess):
    w = _inverse_variance(stderr, y)
    omegas = guess * np.linspace(0.7, 1.3, 4001)  # the grid of fit_fringe
    costs = _grid_costs(x, y, w, omegas)
    want = fringe_grid_costs(x, y, w, omegas)
    assert np.argmin(costs) == np.argmin(want)
    # a cost is the squared norm of what is left of data b of squared
    # norm |b|^2, so any route rounds it by about eps * sqrt(cost * |b|^2);
    # near a close fit that exceeds 1e-12 of the cost, for the oracle too.
    # The bound is 1e-12 relative where the cost is of the order |b|^2.
    b_norm2 = np.sum(w * y * y)
    assert np.all(np.abs(costs - want) <= 1e-12 * np.sqrt(want * b_norm2))


class TestFringeGrid:
    @pytest.mark.parametrize("ensemble, weighted", [
        ("exact", False), ("mc", False), ("mc", True)],
        ids=["noise-free", "mc", "mc-stderr"])
    @pytest.mark.parametrize("field", [4.0, 5.0, 6.0])
    def test_shipped_first_window(self, field, ensemble, weighted):
        x, y, stderr, larmor = shipped_first_window(field, ensemble)
        assert (stderr is not None) == (ensemble == "mc")
        assert_grid_matches_the_loop(x, y, stderr if weighted else None,
                                     larmor)

    def test_free_frequency_recovery_data(self):
        omega = TWO_PI * 137.9e9
        x = np.linspace(0.0, 4.0 * TWO_PI / omega, 41)
        y = 0.5 + 0.3 * np.cos(omega * x + 0.2)
        assert_grid_matches_the_loop(x, y, None, 1.05 * omega)

    def test_rank_deficient_window(self):
        # every delay twice, on half periods of the grid's 41st frequency,
        # where the design therefore has rank 2; the grid's centre lies
        # far from the mirror image of the cost about that frequency
        guess = TWO_PI * 1e9
        pivot = guess * np.linspace(0.7, 1.3, 4001)[40]
        x = np.repeat(np.arange(9) * math.pi / pivot, 2)
        design = np.stack([np.ones_like(x), np.cos(pivot * x),
                           np.sin(pivot * x)], axis=1)
        assert np.linalg.matrix_rank(design) == 2
        y = 0.5 + 0.3 * np.cos(guess * x) \
            + np.random.default_rng(2).normal(0.0, 0.05, x.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_grid_matches_the_loop(x, y, None, guess)
            d.fit_fringe(x, y, frequency_guess=guess)

    def test_long_window_memory_is_bounded_by_the_chunk(self):
        # one design of the 4,001 frequencies at once would take 4.8 GB;
        # the chunk holds 2**17 frequency-points, a few MB per array
        omega = TWO_PI * 1e9
        x = np.linspace(0.0, 4.0 * TWO_PI / omega, 50_000)
        y = 0.5 + 0.3 * np.cos(omega * x + 0.2)
        tracemalloc.start()
        try:
            fringe = d.fit_fringe(x, y, frequency_guess=1.05 * omega)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fringe.frequency == pytest.approx(omega, rel=1e-9)
        assert peak < 32e6


class TestIngestTrace:
    def write(self, path, text):
        path.write_text(text)
        return str(path)

    def test_roundtrip_with_comments_and_stderr(self, tmp_path):
        source = self.write(tmp_path / "trace.csv", "\n".join([
            "# experiment: ramsey",
            "# seed: 9",
            "tau_s,p_up,p_up_stderr,p_down",
            "1e-09,0.5,0.01,0.5",
            "2e-09,0.4,0.01,0.6",
            "",
        ]))
        trace = d.ingest_trace(source)
        assert tuple(trace.columns) == ("tau_s", "p_up", "p_up_stderr",
                                        "p_down")
        assert np.allclose(trace.abscissa, [1e-9, 2e-9])
        assert np.allclose(trace.ordinate, [0.5, 0.4])
        assert np.allclose(trace.stderr, [0.01, 0.01])

    def test_experiment_trace_rows_ingest_cleanly(self, tmp_path):
        trace = d.ExperimentTrace(
            abscissa=np.array([1e-9, 2e-9]), abscissa_name="tau_s",
            p_up=np.array([0.3, 0.4]), p_down=np.array([0.7, 0.6]))
        header, rows = trace.as_rows()
        lines = [",".join(header)]
        lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
        source = self.write(tmp_path / "t.csv", "\n".join(lines) + "\n")
        back = d.ingest_trace(source)
        assert np.array_equal(back.columns["p_up"], trace.p_up)
        assert np.array_equal(back.columns["tau_s"], trace.abscissa)

    def test_all_problems_reported_at_once(self, tmp_path):
        source = self.write(tmp_path / "bad.csv", "\n".join([
            "tau,p_up,p_up",
            "1e-9,0.5",
            "2e-9,abc,0.1",
            "",
        ]))
        with pytest.raises(d.ValidationError) as info:
            d.ingest_trace(source)
        problems = info.value.problems
        text = "; ".join(problems)
        assert len(problems) >= 4
        assert "line 2" in text          # ragged row
        assert "line 3" in text          # non-numeric cell
        assert "'tau'" in text           # missing unit suffix
        assert "duplicate" in text

    def test_empty_and_missing_files(self, tmp_path):
        empty = self.write(tmp_path / "empty.csv", "")
        with pytest.raises(d.ValidationError):
            d.ingest_trace(empty)
        headers_only = self.write(tmp_path / "h.csv", "tau_s,p_up\n")
        with pytest.raises(d.ValidationError):
            d.ingest_trace(headers_only)
        with pytest.raises(OSError):
            d.ingest_trace(tmp_path / "nope.csv")


class TestNumericJacobian:
    def test_never_evaluates_at_the_held_point(self):
        from donorspin.fitting import _numeric_jacobian

        a = np.array([[1.0, 2.0, -1.0], [0.5, -3.0, 4.0],
                      [2.0, 0.0, 1.0], [-1.0, 1.0, 0.5]])
        b = np.array([0.3, -0.2, 1.0, 0.0])
        seen = []

        def residual_fn(q):
            seen.append(q.copy())
            return a @ q - b

        # the last parameter sits on its lower bound, as beta2 does in
        # the joint fit, so its downward side is clamped back to p
        p = np.array([0.7, -1.2, 0.0])
        lower = np.array([-np.inf, -np.inf, 0.0])
        upper = np.full(3, np.inf)
        jac = _numeric_jacobian(residual_fn, p, lower, upper, a @ p - b)
        assert not any(np.array_equal(q, p) for q in seen)
        assert len(seen) == 5
        assert np.allclose(jac, a, rtol=1e-6)


class TestSimultaneousFit:
    def test_roundtrip_recovers_calibration_and_dephasing(
            self, levels_low_field, half_pi_pulse):
        pulse = half_pi_pulse
        true_calibration = pulse.calibration
        true_beta1 = 5e-3
        diss_true = d.DissipatorSet(laser_dephasing_linear=true_beta1)
        e_half = d.energy_for_rotation_angle(pulse, levels_low_field,
                                             math.pi / 2)
        rabi_energies = np.linspace(0.2, 2.2, 5) * e_half
        fringe_energies = np.array([0.6, 1.0, 1.5]) * e_half
        rabi_data = d.rabi_populations(rabi_energies, levels_low_field,
                                       pulse, diss_true, expm_steps=64)
        fringe_data = d.fringe_visibilities(fringe_energies, levels_low_field,
                                            pulse, diss_true, expm_steps=64)

        template = d.DissipatorSet()
        result = d.simultaneous_fit_rabi_fringe(
            rabi_energies, rabi_data, fringe_energies, fringe_data,
            levels_low_field, pulse, template,
            initial={"calibration": 0.9 * true_calibration,
                     "beta1": 1e-3},
            expm_steps=64)
        assert result.fit.converged, result.fit.message
        assert result.fit.parameters["calibration"] == pytest.approx(
            true_calibration, rel=1e-4)
        assert result.fit.parameters["beta1"] == pytest.approx(
            true_beta1, rel=1e-3)
        assert result.fit.parameters["beta2"] == pytest.approx(0.0, abs=1e-14)

    def test_forward_model_runs_once_per_distinct_point(
            self, monkeypatch, levels_low_field, half_pi_pulse):
        # a cheap analytic stand-in for the four-level forward model
        points = []

        def rabi(energies, levels, pulse, diss, expm_steps):
            points.append((pulse.calibration, diss.laser_dephasing_linear,
                           diss.laser_dephasing_quadratic))
            x = pulse.calibration * energies / half_pi_pulse.calibration
            return np.sin(x) ** 2 * np.exp(-diss.laser_dephasing_linear * x)

        def fringe(energies, levels, pulse, diss, expm_steps):
            x = pulse.calibration * energies / half_pi_pulse.calibration
            return 0.5 * np.exp(-(diss.laser_dephasing_linear
                                  + diss.laser_dephasing_quadratic) * x)

        monkeypatch.setattr(d.sequences, "rabi_populations", rabi)
        monkeypatch.setattr(d.sequences, "fringe_visibilities", fringe)
        energies = np.linspace(0.3, 2.5, 6)
        diss = d.DissipatorSet(laser_dephasing_linear=0.2)
        rabi_data = rabi(energies, None, half_pi_pulse, diss, 0)
        fringe_data = fringe(energies[:3], None, half_pi_pulse, diss, 0)
        points.clear()
        result = d.simultaneous_fit_rabi_fringe(
            energies, rabi_data, energies[:3], fringe_data,
            levels_low_field, half_pi_pulse, d.DissipatorSet(),
            initial={"calibration": 0.95 * half_pi_pulse.calibration,
                     "beta1": 0.1})
        assert result.fit.converged, result.fit.message
        assert len(points) == len(set(points))
        assert result.fit.parameters["beta1"] == pytest.approx(0.2, rel=1e-6)
        p = result.fit.parameters
        best = (p["calibration"], p["beta1"], p["beta2"])
        assert best in points

    def test_failure_at_the_result_raises(self, monkeypatch,
                                          levels_low_field, half_pi_pulse):
        # every trial is penalized, so the fit ends where it started, at
        # parameters the forward model failed at: that error surfaces
        def broken(*args, **kwargs):
            raise d.NumericsError("forward model diverged")

        monkeypatch.setattr(d.sequences, "rabi_populations", broken)
        energies = np.linspace(0.3, 2.5, 6)
        with pytest.raises(d.NumericsError, match="forward model diverged"):
            d.simultaneous_fit_rabi_fringe(
                energies, np.full(6, 0.5), energies[:3], np.full(3, 0.2),
                levels_low_field, half_pi_pulse, d.DissipatorSet())

    def test_shape_validation(self, levels_low_field, half_pi_pulse):
        with pytest.raises(d.ValidationError):
            d.simultaneous_fit_rabi_fringe(
                np.array([1e-10, 2e-10]), np.array([0.1]),
                np.array([1e-10]), np.array([0.2]),
                levels_low_field, half_pi_pulse, d.DissipatorSet())
        with pytest.raises(d.ValidationError):
            d.simultaneous_fit_rabi_fringe(
                np.array([1e-10]), np.array([0.1]),
                np.array([1e-10]), np.array([0.2]),
                levels_low_field, half_pi_pulse, d.DissipatorSet(),
                initial={"beta3": 1.0})
