"""Acceptance gate: ten end-to-end quantitative behaviors.

Each test pins one headline capability of the toolkit against an
independent expectation: closed-form anchors for the stock material,
roundtrips through the full simulation-then-fit pipeline, and
randomized structural invariants of the master-equation engine. The
tolerances are part of the contract; they must not be loosened to
absorb a regression.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

import donorspin as d
from donorspin.lindblad import liouvillian
from conftest import pulse_for_angle, random_density_matrix
import reference

TWO_PI = 2.0 * math.pi


def random_dissipators(rng):
    branching = rng.uniform(0.1, 1.0, size=(2, 2))
    branching /= branching.sum(axis=1, keepdims=True)
    return d.DissipatorSet(
        radiative_rate=float(rng.uniform(0, 2e9)),
        branching=tuple(map(tuple, branching)),
        t1_rate=float(rng.uniform(0, 1e5)),
        ground_dephasing_rate=float(rng.uniform(0, 1e7)),
        laser_dephasing_linear=float(rng.uniform(0, 1e-2)),
        laser_dephasing_quadratic=float(rng.uniform(0, 1e-15)),
    )


def random_hamiltonian(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (h + h.conj().T) * 1e9


class TestCriterion1RamseyFrequency:
    def test_fringe_frequency_at_five_tesla(self, levels_5t, quiet,
                                            half_pi_pulse):
        larmor = levels_5t.electron_splitting
        window = d.ramsey_window_plan([8e-9], larmor, periods=4.0,
                                      points_per_period=12)[0]
        result = d.run_ramsey(window, levels_5t, half_pi_pulse, quiet)
        fringe = d.fit_fringe(window, result.trace.p_up,
                              frequency_guess=1.05 * larmor)
        fitted_hz = fringe.frequency / TWO_PI
        assert fitted_hz == pytest.approx(137.9e9, rel=5e-3)


class TestCriterion2InhomogeneousDephasing:
    def test_stock_material_estimate_in_window(self, material):
        summary = d.t2_star_theory(material)
        assert 6e-9 <= summary.t2_star <= 14e-9

    def test_dispersion_modes_agree(self, material):
        continuum = d.t2_star_theory(material, mode="continuum")
        lattice = d.t2_star_theory(material, mode="lattice-sum",
                                   cutoff=12e-9)
        ratio = lattice.t2_star / continuum.t2_star
        assert abs(ratio - 1.0) <= 0.15


class TestCriterion3InstantaneousDiffusion:
    def test_half_pi_and_fifth_pi_anchors(self, material):
        at_half_pi = d.t2_instantaneous_diffusion(material, math.pi / 2)
        at_fifth_pi = d.t2_instantaneous_diffusion(material, math.pi / 5)
        assert at_half_pi.t2 == pytest.approx(240e-6, rel=0.05)
        assert at_fifth_pi.t2 == pytest.approx(1.27e-3, rel=0.05)

    @pytest.mark.parametrize("variant", d.ID_VARIANTS)
    def test_angle_ratio_for_both_variants(self, material, variant):
        t_half = d.t2_instantaneous_diffusion(material, math.pi / 2,
                                              variant=variant).t2
        t_fifth = d.t2_instantaneous_diffusion(material, math.pi / 5,
                                               variant=variant).t2
        expected = math.sin(math.pi / 4) ** 2 / math.sin(math.pi / 10) ** 2
        assert t_fifth / t_half == pytest.approx(expected, abs=1e-6)
        assert t_fifth / t_half == pytest.approx(5.24, abs=5e-3)


class TestCriterion4SpectralDiffusion:
    def test_estimate_within_factor_of_anchor(self, material):
        estimate = d.t2_spectral_diffusion(material)
        assert 200e-6 / 1.5 <= estimate.t2 <= 200e-6 * 1.5
        assert estimate.decay_exponent == 3

    def test_lattice_sum_converged(self, material):
        result = d.dipolar_lattice_sum(material)
        assert result.converged
        assert result.growth_change <= 0.01


class TestCriterion5EnsembleDephasingRoundtrip:
    def test_monte_carlo_ramsey_recovers_dephasing_time(self, material,
                                                        levels_5t, quiet,
                                                        half_pi_pulse):
        target = 17e-9
        bath = d.BathModel.gaussian(target,
                                    electron_g=material.g_electron)
        centers = np.linspace(1e-9, 22e-9, 12)
        windows = d.ramsey_window_plan(centers,
                                       levels_5t.electron_splitting,
                                       periods=2.0, points_per_period=9)
        result = d.run_ramsey(windows, levels_5t, half_pi_pulse, quiet,
                              bath=bath, ensemble_mode="mc",
                              bath_samples=1000, seed=9)
        fit = d.fit_curve("gaussian_decay", result.window_centers,
                          result.visibilities)
        assert fit.converged, fit.message
        assert fit.parameters["t_decay"] == pytest.approx(target, rel=0.05)


class TestCriterion6EchoRoundtripAndDiscrimination:
    def test_injected_exponential_channel_recovered(self, levels_5t, quiet,
                                                    half_pi_pulse):
        # the nanosecond bath confines the free-induction and anti-echo
        # pathways to short times, so at microsecond delays the echo
        # amplitude decays only through the injected channel
        bath = d.BathModel.gaussian(17e-9, 1.97)
        injected = d.InjectedDecoherence(50e-6, 1.0)
        tau1_values = np.linspace(5e-6, 80e-6, 6)
        decay = d.run_echo_decay(tau1_values, levels_5t, half_pi_pulse,
                                 quiet, bath=bath, injected=injected)
        fit = d.fit_curve("exp_decay", decay.total_times, decay.amplitudes)
        assert fit.converged, fit.message
        assert fit.parameters["t_decay"] == pytest.approx(50e-6, rel=0.05)

    def test_cubed_model_wins_on_noisy_cubed_decays(self):
        rng = np.random.default_rng(777)
        t_decay = 50e-6
        x = np.linspace(0.0, 120e-6, 25)
        clean = 0.1 + 0.4 * np.exp(-((x / t_decay) ** 3))
        wins = 0
        trials = 200
        for _ in range(trials):
            noisy = clean + rng.normal(0.0, 0.05 * 0.4, size=x.shape)
            results = d.compare_models(["exp_decay", "cubed_exp_decay"],
                                       x, noisy)
            if results["cubed_exp_decay"].residual_norm \
                    < results["exp_decay"].residual_norm:
                wins += 1
        assert wins >= 0.95 * trials


class TestCriterion7SpinRelaxationSweep:
    def test_field_sweep_recovers_exponent_and_reference(self, material):
        fields = np.array([2.25, 3.0, 4.0, 5.0])
        pump = d.PumpSettings(rabi=TWO_PI * 20e6, duration=10e-6,
                              samples=200)
        fitted = []
        for magnitude in fields:
            rate = d.t1_rate_model(magnitude)
            levels = d.LevelScheme.from_material(
                material, d.FieldConfig(float(magnitude)), TWO_PI * 3.57e12)
            dissipators = d.DissipatorSet(radiative_rate=1e9, t1_rate=rate)
            waits = np.linspace(0.0, 3.0 / rate, 8)
            recovery = d.run_t1_recovery(waits, levels, dissipators, pump)
            fitted.append(recovery.fitted_t1)
        slope = np.polyfit(np.log(fields), np.log(fitted), 1)[0]
        assert -slope == pytest.approx(3.5, abs=0.1)
        assert fitted[0] == pytest.approx(0.1, rel=0.05)


class TestCriterion8OpticalPumping:
    def test_resonant_pump_reaches_fidelity(self, levels_5t):
        dissipators = d.DissipatorSet(radiative_rate=1e9)  # 1 ns lifetime
        result = d.optical_pump(d.DensityMatrix.scrambled().matrix,
                                levels_5t, TWO_PI * 20e6, 10e-6,
                                dissipators, samples=400)
        assert result.fidelity >= 0.95


class TestCriterion9NumericalIntegrity:
    def test_randomized_evolution_invariants(self):
        rng = np.random.default_rng(2026)
        start = time.monotonic()
        unitary_cases = 0
        oracle_cases = 0
        for case in range(1000):
            rho0 = random_density_matrix(rng)
            hamiltonian = random_hamiltonian(rng)
            unitary = case % 5 == 0
            dissipators = d.DissipatorSet() if unitary \
                else random_dissipators(rng)
            rabi = 0.0 if unitary else float(rng.uniform(0, 1e9))
            span = float(rng.uniform(0.2e-9, 2.0e-9))
            generator = liouvillian(hamiltonian, dissipators, rabi=rabi)
            final = (expm(generator * span)
                     @ rho0.reshape(16)).reshape(4, 4)
            state = d.DensityMatrix(final)
            assert reference.trace_error(state.matrix) < 1e-9
            assert reference.hermiticity_error(state.matrix) < 1e-10
            assert reference.min_eigenvalue(state.matrix) > -1e-7
            if unitary:
                before = reference.purity(d.DensityMatrix(rho0).matrix)
                assert abs(reference.purity(state.matrix) - before) < 1e-8
                unitary_cases += 1
            if case % 16 == 0:
                config = d.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
                current = rho0
                vec = rho0.reshape(16).astype(complex)
                for _ in range(3):
                    h_seg = random_hamiltonian(rng)
                    seg = float(rng.uniform(0.1e-9, 0.5e-9))
                    evolved = reference.integrate_master(current, h_seg, dissipators,
                                                 config, (0.0, seg))
                    vec = expm(liouvillian(h_seg, dissipators) * seg) @ vec
                    current = evolved.final.matrix
                assert np.max(np.abs(current - vec.reshape(4, 4))) < 1e-8
                oracle_cases += 1
        assert unitary_cases == 200
        assert oracle_cases == 63
        assert time.monotonic() - start < 300.0


class TestCriterion10FarDetunedEquivalence:
    def test_rotation_angle_tracks_two_level_reduction(self, material):
        # The optical detuning is set high enough that the residual
        # beyond-elimination correction (which grows with peak drive,
        # so with SHORTER pulses at fixed angle) stays far below the
        # precession-during-pulse error this sweep is probing. At the
        # stock 3.57 THz detuning the two error channels cross near a
        # period/duration ratio of 80 and the curve is U-shaped.
        levels = d.LevelScheme.from_material(material, d.FieldConfig(0.1),
                                             TWO_PI * 10e12)
        period = TWO_PI / levels.electron_splitting
        target = 0.3
        ratios = [100.0, 60.0, 40.0, 25.0, 15.0]
        deviations = []
        for ratio in ratios:
            pulse = pulse_for_angle(levels, target, duration=period / ratio)
            measured = reference.extracted_rotation_angle(levels, pulse)
            deviations.append(abs(measured - target) / target)
        for ratio, deviation in zip(ratios, deviations):
            if ratio >= 40.0:
                assert deviation <= 0.02, (ratio, deviation)
        # accuracy degrades monotonically as the pulse stops being
        # impulsive relative to the spin precession
        assert all(a < b for a, b in zip(deviations, deviations[1:])), \
            deviations
        assert deviations[0] < 2e-3
