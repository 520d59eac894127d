"""Open-system engine: superoperators, integrators, silence propagation."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import donorspin as d
import donorspin.lindblad as lindblad
from donorspin.hamiltonian import envelope_value
from donorspin.lindblad import (
    DensityMatrix,
    SilencePropagator,
    liouvillian,
    pulse_liouvillian_parts,
    pulse_window_propagator,
)
from conftest import pulse_for_angle, random_density_matrix
from reference import (evolve, hermiticity_error, integrate_master,
                       lindblad_rhs, min_eigenvalue, purity, trace_error)

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


def silence_step(silence, rho, tau, delta=0.0):
    """The 4x4 state after a drive-free gap ``tau`` at detuning ``delta``:
    the split's groups summed with their phases exp(-i*delta*s*tau)."""
    split = silence.split_by_detuning(np.reshape(rho, 16), [tau])
    return sum(np.exp(-1j * delta * s * tau) * v[0]
               for s, v in split.items()).reshape(4, 4)


def random_hamiltonian(rng):
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (h + h.conj().T) * 1e9


def exact_expm(a):
    """exp(a) by mpmath at 40 digits, rounded to a numpy array."""
    with mpmath.workdps(40):
        out = mpmath.expm(mpmath.matrix(a.tolist())).tolist()
    return np.array(out, dtype=complex if np.iscomplexobj(a) else float)


class TestDensityMatrix:
    def test_pure_state(self):
        rho = DensityMatrix.pure(d.GROUND_UP)
        assert rho.matrix[d.GROUND_UP, d.GROUND_UP] == 1.0
        assert rho.matrix[d.GROUND_DOWN, d.GROUND_DOWN] == 0.0
        assert purity(rho.matrix) == pytest.approx(1.0)

    def test_scrambled_state(self):
        rho = DensityMatrix.scrambled()
        assert rho.matrix[d.GROUND_UP, d.GROUND_UP] == pytest.approx(0.5)
        assert rho.matrix[d.GROUND_DOWN, d.GROUND_DOWN] == pytest.approx(0.5)
        assert not np.any(np.diag(rho.matrix)[[d.EXCITED_LOWER,
                                               d.EXCITED_UPPER]])
        assert purity(rho.matrix) == pytest.approx(0.5)


class TestDissipatorSet:
    def test_branching_rows_must_sum_to_one(self):
        with pytest.raises(d.ValidationError):
            d.DissipatorSet(radiative_rate=1e9,
                            branching=((0.7, 0.7), (0.5, 0.5)))

    def test_negative_rate_rejected(self):
        with pytest.raises(d.ValidationError):
            d.DissipatorSet(radiative_rate=-1.0)

    def test_laser_dephasing_polynomial(self):
        diss = d.DissipatorSet(laser_dephasing_linear=0.01,
                               laser_dephasing_quadratic=1e-15)
        rabi = 1e12
        assert diss.laser_dephasing_rate(rabi) == pytest.approx(
            0.01 * rabi + 1e-15 * rabi**2)

    def test_jump_operator_count(self, lossy):
        # two radiative branches per exciton, two spin flips, ground
        # dephasing, laser dephasing at nonzero drive
        assert len(lossy.jump_operators(rabi=0.0)) == 7
        assert len(lossy.jump_operators(rabi=1e12)) == 8


class TestLiouvillian:
    def test_matches_direct_rhs_on_random_states(self, lossy):
        rng = np.random.default_rng(11)
        h = random_hamiltonian(rng)
        gen = liouvillian(h, lossy, rabi=1e11)
        for _ in range(20):
            rho = random_density_matrix(rng)
            direct = lindblad_rhs(rho, h, lossy, rabi=1e11)
            via_super = (gen @ rho.reshape(16)).reshape(4, 4)
            assert np.allclose(direct, via_super, atol=1e-6 * 1e9)

    def test_preserves_trace_hermiticity_positivity(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            h = random_hamiltonian(rng)
            diss = random_dissipators(rng)
            gen = liouvillian(h, diss, rabi=float(rng.uniform(0, 1e12)))
            rho = random_density_matrix(rng)
            dt = float(rng.uniform(1e-12, 1e-9))
            evolved = (expm(gen * dt) @ rho.reshape(16)).reshape(4, 4)
            assert trace_error(evolved) < 1e-9
            assert hermiticity_error(evolved) < 1e-10
            assert min_eigenvalue(evolved) > -1e-7


class TestIntegrateMaster:
    def test_expm_oracle_piecewise_constant(self, lossy):
        rng = np.random.default_rng(3)
        h = random_hamiltonian(rng)
        rho0 = DensityMatrix(random_density_matrix(rng))
        span = 2e-9
        result = integrate_master(
            rho0, h, lossy,
            config=d.IntegratorConfig(method="adaptive-rk", rel_tol=1e-12,
                                      abs_tol=1e-14),
            t_span=(0.0, span))
        oracle = (expm(liouvillian(h, lossy) * span)
                  @ rho0.matrix.reshape(16)).reshape(4, 4)
        assert np.max(np.abs(result.final.matrix - oracle)) < 1e-8

    def test_unitary_purity_conserved(self):
        rng = np.random.default_rng(7)
        h = random_hamiltonian(rng)
        rho0 = DensityMatrix.pure(d.GROUND_DOWN)
        result = integrate_master(
            rho0, h, d.DissipatorSet(),
            config=d.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14),
            t_span=(0.0, 1e-9))
        assert purity(result.final.matrix) == pytest.approx(1.0, abs=1e-8)

    def test_time_samples_returned(self, lossy):
        rng = np.random.default_rng(9)
        h = random_hamiltonian(rng)
        rho0 = DensityMatrix.pure(d.GROUND_UP)
        t_eval = np.linspace(0.0, 1e-9, 7)
        result = integrate_master(rho0, h, lossy, d.IntegratorConfig(),
                                  t_span=(0.0, 1e-9), t_eval=t_eval)
        assert np.allclose(result.times, t_eval)
        assert len(result.states) == 7


class TestSilencePropagator:
    def test_matches_full_liouvillian_exponential(self, levels_5t):
        rng = np.random.default_rng(17)
        for _ in range(5):
            diss = random_dissipators(rng)
            silence = SilencePropagator(levels_5t, diss)
            gen = liouvillian(np.diag(levels_5t.diagonal()).astype(complex),
                              diss)
            rho = random_density_matrix(rng)
            tau = float(rng.uniform(1e-10, 1e-7))
            expected = (expm(gen * tau) @ rho.reshape(16)).reshape(4, 4)
            actual = silence_step(silence, rho, tau)
            assert np.max(np.abs(actual - expected)) < 1e-9

    def test_detuning_matches_shifted_liouvillian(self, levels_5t, lossy):
        rng = np.random.default_rng(19)
        silence = SilencePropagator(levels_5t, lossy)
        delta = TWO_PI * 40e6
        h = np.diag(levels_5t.diagonal(spin_detuning=delta)).astype(complex)
        gen = liouvillian(h, lossy)
        rho = random_density_matrix(rng)
        tau = 3e-9
        expected = (expm(gen * tau) @ rho.reshape(16)).reshape(4, 4)
        actual = silence_step(silence, rho, tau, delta)
        assert np.max(np.abs(actual - expected)) < 1e-9

    def test_split_by_detuning_sums_to_propagation(self, lossy):
        # splittings small enough that every phase exp(rate * tau) keeps
        # 1e-15 accuracy, so the two routes agree to rounding
        levels = d.LevelScheme(electron_splitting=TWO_PI * 1e9,
                               hole_splitting=TWO_PI * 0.2e9,
                               optical_detuning=TWO_PI * 5e9)
        silence = SilencePropagator(levels, lossy)
        rho = random_density_matrix(np.random.default_rng(23))
        taus = np.array([0.0, 1e-11, 2e-10, 1e-9])
        split = silence.split_by_detuning(rho.reshape(16), taus)
        assert sorted(split) == [-1, 0, 1]
        for delta in (0.0, TWO_PI * 40e6, -TWO_PI * 3e8):
            gen = liouvillian(np.diag(levels.diagonal(spin_detuning=delta))
                              .astype(complex), lossy)
            for k, tau in enumerate(taus):
                total = sum(np.exp(-1j * delta * s * tau) * v[k]
                            for s, v in split.items())
                expected = expm(gen * tau) @ rho.reshape(16)
                assert np.max(np.abs(total - expected)) < 1e-14

    def test_split_by_detuning_of_no_gaps_is_three_empty_groups(
            self, levels_5t, lossy):
        silence = SilencePropagator(levels_5t, lossy)
        rho = random_density_matrix(np.random.default_rng(37))
        split = silence.split_by_detuning(rho.reshape(16), [])
        assert sorted(split) == [-1, 0, 1]
        assert all(v.shape == (0, 16) for v in split.values())

    def test_negative_gap_rejected(self, levels_5t, lossy):
        silence = SilencePropagator(levels_5t, lossy)
        rho = random_density_matrix(np.random.default_rng(41))
        with pytest.raises(d.ValidationError, match="non-negative"):
            silence.split_by_detuning(rho.reshape(16), [1e-9, -1e-12])

    def test_split_by_detuning_is_linear_over_complex_branches(self, levels_5t,
                                                               lossy):
        # a branch of a state has complex populations; they must not be
        # reduced to their real parts
        rng = np.random.default_rng(29)
        silence = SilencePropagator(levels_5t, lossy)
        u1, u2 = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        a, b = 0.3 - 1.1j, -0.7 + 0.4j
        taus = np.array([0.0, 2e-11, 5e-9])
        whole = silence.split_by_detuning(a * u1 + b * u2, taus)
        parts = [silence.split_by_detuning(u, taus) for u in (u1, u2)]
        for s in (0, 1, -1):
            assert np.max(np.abs(whole[s] - a * parts[0][s]
                                 - b * parts[1][s])) < 1e-14

    def test_split_by_detuning_takes_one_state_per_gap(self, levels_5t,
                                                       lossy):
        # one row per gap, complex branch rows included, gives the bits
        # of one call per row
        rng = np.random.default_rng(31)
        silence = SilencePropagator(levels_5t, lossy)
        rows = [random_density_matrix(rng).reshape(16)]
        rows += list(rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16)))
        taus = np.array([0.0, 2e-11, 5e-9])
        stacked = silence.split_by_detuning(np.array(rows), taus)
        for k, (u, tau) in enumerate(zip(rows, taus)):
            single = silence.split_by_detuning(u, [tau])
            for s in (0, 1, -1):
                assert np.array_equal(stacked[s][k], single[s][0])
        # a stack of branches, one state per gap each, as the contraction
        # splits them: each branch keeps the bits of its own call
        branches = rng.normal(size=(3, 3, 16)) \
            + 1j * rng.normal(size=(3, 3, 16))
        stacked = silence.split_by_detuning(branches, taus)
        for b, branch in enumerate(branches):
            single = silence.split_by_detuning(branch, taus)
            for s in (0, 1, -1):
                assert stacked[s].shape == (3, 3, 16)
                assert np.array_equal(stacked[s][b], single[s])

    def test_population_matrix_is_one_exponential_per_duration(
            self, levels_5t, lossy):
        # repeats and a zero give the bits of their first occurrence, and
        # every step is the 40-digit exponential of the generator
        silence = SilencePropagator(levels_5t, lossy)
        taus = np.array([2e-9, 0.0, 5e-7, 2e-9, 0.5, 0.0, 5e-7])
        steps = silence.population_matrix(taus)
        assert steps.shape == (len(taus), 4, 4)
        assert np.array_equal(steps[3], steps[0])
        assert np.array_equal(steps[5], steps[1])
        assert np.array_equal(steps[6], steps[2])
        assert np.array_equal(steps[1], np.eye(4))
        for step, tau in zip(steps, taus):
            oracle = exact_expm(silence.pop_generator * tau)
            assert np.max(np.abs(step - oracle)) < 1e-15
        assert silence.population_matrix(np.array([])).shape == (0, 4, 4)

    @pytest.mark.parametrize("radiative, t1, branching", [
        (None, None, None),  # configs/t1.yaml
        (1e3, 1e3, None),
        (1e3, 1e3 * (1 + 1e-9), None),
        (1e9, 0.0, None),
        (0.0, 10.0, None),
        (1e9, 10.0, ((0.9, 0.1), (0.2, 0.8))),
    ], ids=["t1-config", "k=gamma", "k=gamma(1+1e-9)", "k=0", "gamma=0",
            "uneven-branching"])
    def test_population_matrix_matches_a_40_digit_exponential(
            self, radiative, t1, branching):
        # at T1-length waits |G tau| reaches 5e8, where a scaled Padé
        # exponential loses 3e-9 on the t1 config
        config = d.load_run_config("configs/t1.yaml")
        diss = config.dissipators
        if radiative is not None:
            diss = d.DissipatorSet(radiative_rate=radiative, t1_rate=t1,
                                   branching=branching or diss.branching)
        silence = SilencePropagator(config.levels, diss)
        taus = [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.5]
        for step, tau in zip(silence.population_matrix(taus), taus):
            oracle = exact_expm(silence.pop_generator * tau)
            assert np.max(np.abs(step - oracle)) < 1e-15

    @pytest.mark.parametrize("row, col", [(2, 0), (0, 1), (2, 3)],
                             ids=["ground-feeds-excited", "uneven-flip",
                                  "excited-feeds-excited"])
    def test_population_generator_out_of_block_form_is_refused(
            self, levels_5t, lossy, monkeypatch, row, col):
        # no DissipatorSet breaks the form, so a rate is added to the
        # assembled generator: population col feeds population row
        def broken(*args, **kwargs):
            gen = liouvillian(*args, **kwargs)
            gen[lindblad._IDX[row, row], lindblad._IDX[col, col]] += 1e3
            return gen

        monkeypatch.setattr(lindblad, "liouvillian", broken)
        with pytest.raises(d.NumericsError, match="population generator"):
            SilencePropagator(levels_5t, lossy)

    def test_population_block_conserves_probability(self, levels_5t, lossy):
        silence = SilencePropagator(levels_5t, lossy)
        p = silence.population_matrix([1e-6])[0]
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(p >= -1e-15)

    def test_ground_coherence_decays_at_half_kappa_rate(self, levels_5t):
        kappa = 2e6
        diss = d.DissipatorSet(ground_dephasing_rate=kappa)
        silence = SilencePropagator(levels_5t, diss)
        tau = 1e-7
        coherence = np.zeros((4, 4), dtype=complex)
        coherence[0, 1] = 1.0
        moved = silence_step(silence, coherence, tau)
        assert abs(moved[0, 1]) == pytest.approx(math.exp(-kappa * tau),
                                                 rel=1e-12)


class TestMatrixExponential:
    def test_pump_step(self, levels_5t, lossy):
        # the shipped pump's step: 1-norm 25,393, complex, 13 squarings
        pump = d.PumpSettings(TWO_PI * 20e6, 10e-6, 400)
        step = pump.step(levels_5t, lossy)
        gen = liouvillian(d.sequences._pump_hamiltonian(levels_5t, pump.rabi),
                          lossy, rabi=pump.rabi) * (10e-6 / 400)
        assert np.abs(gen).sum(axis=0).max() == pytest.approx(25393, rel=1e-4)
        assert step.dtype == complex
        assert np.max(np.abs(step - exact_expm(gen))) < 2e-12

    def test_stiff_window_step(self, levels_low_field):
        # the joint fit's beta2 probe: gamma * h is about 1.7e5 at the
        # envelope peak of a 64-step window
        pulse = pulse_for_angle(levels_low_field, 2.2 * math.pi / 2)
        stiff = d.DissipatorSet(laser_dephasing_linear=4.8e-3,
                                laser_dephasing_quadratic=1.49e-8)
        parts = lindblad._real_parts(
            pulse_liouvillian_parts(levels_low_field, pulse, stiff))
        t0, t1 = pulse.window()
        om, h = pulse.peak_rabi, (t1 - t0) / 64
        assert stiff.laser_dephasing_rate(om) * h == pytest.approx(1.7e5,
                                                                   rel=0.01)
        gen = (parts[0] + om * parts[1]
               + stiff.laser_dephasing_rate(om) * parts[2]) * h
        step = lindblad.expm(gen)
        assert step.dtype == float
        assert np.max(np.abs(step - exact_expm(gen))) < 1e-11

    def test_random_stacks_in_every_degree_band(self):
        # 1-norms inside each Padé degree's band, and above theta_13 where
        # the matrix is scaled; a matrix's bits are the same alone as in
        # the stack
        rng = np.random.default_rng(47)
        edges = [0.0, *lindblad._THETA.values(), 40.0]
        norms = [rng.uniform(lo, hi) for lo, hi in zip(edges, edges[1:])
                 for _ in range(2)]
        stack = rng.normal(size=(len(norms), 8, 8)) \
            + 1j * rng.normal(size=(len(norms), 8, 8))
        for a in (stack.real.copy(), stack):
            a *= np.array(norms)[:, None, None] \
                / np.abs(a).sum(axis=1).max(axis=1)[:, None, None]
            got = lindblad.expm(a)
            assert got.dtype == a.dtype
            for one, m in zip(got, a):
                assert np.array_equal(one, lindblad.expm(m))
                oracle = exact_expm(m)
                assert np.max(np.abs(one - oracle)) \
                    < 1e-14 * np.max(np.abs(oracle))

    def test_non_finite_matrix_gives_nan_alone(self):
        a = np.zeros((3, 4, 4))
        a[1, 0, 2], a[2, 3, 3] = np.inf, np.nan
        got = lindblad.expm(a)
        assert np.array_equal(got[0], np.eye(4))
        assert np.all(np.isnan(got[1:]))


class TestPulseWindowPropagator:
    def test_fixed_matches_adaptive(self, levels_5t, lossy, half_pi_pulse):
        adaptive = pulse_window_propagator(
            levels_5t, half_pi_pulse, lossy,
            config=d.IntegratorConfig(method="adaptive-rk", rel_tol=1e-11,
                                      abs_tol=1e-13))
        coarse = np.max(np.abs(
            pulse_window_propagator(levels_5t, half_pi_pulse, lossy,
                                    expm_steps=1024) - adaptive))
        fine = np.max(np.abs(
            pulse_window_propagator(levels_5t, half_pi_pulse, lossy,
                                    expm_steps=2048) - adaptive))
        assert coarse < 5e-5
        # midpoint stepping is second order: doubling the grid should
        # shrink the defect by roughly four
        assert fine < 0.35 * coarse

    def test_adaptive_matches_solve_ivp(self, levels_5t, lossy,
                                        half_pi_pulse):
        from scipy.integrate import solve_ivp

        config = d.IntegratorConfig(method="adaptive-rk", rel_tol=1e-9,
                                    abs_tol=1e-11)
        w = pulse_window_propagator(levels_5t, half_pi_pulse, lossy,
                                    config=config)
        parts = pulse_liouvillian_parts(levels_5t, half_pi_pulse, lossy)

        def rhs(t, y):
            om = float(envelope_value(half_pi_pulse, t))
            gen = (parts[0] + om * parts[1]
                   + lossy.laser_dephasing_rate(om) * parts[2])
            return (gen @ y.reshape(16, 16)).ravel()

        sol = solve_ivp(rhs, half_pi_pulse.window(),
                        np.eye(16, dtype=complex).ravel(), method="DOP853",
                        rtol=1e-9, atol=1e-11,
                        max_step=half_pi_pulse.duration / 50.0)
        assert np.array_equal(w, sol.y[:, -1].reshape(16, 16))

    def test_quiet_propagator_is_trace_preserving(self, levels_5t,
                                                  half_pi_pulse, quiet):
        w = pulse_window_propagator(levels_5t, half_pi_pulse, quiet)
        rho = DensityMatrix.pure(d.GROUND_DOWN).matrix.reshape(16)
        out = DensityMatrix((w @ rho).reshape(4, 4))
        assert trace_error(out.matrix) < 1e-9
        assert hermiticity_error(out.matrix) < 1e-10
        assert purity(out.matrix) == pytest.approx(1.0, abs=1e-8)

    def test_non_finite_drive_rejected_before_stepping(self, levels_5t,
                                                       lossy, unstepped):
        # 1e300 nJ overflows the peak Rabi rate; inf * 0 in the generator
        # would fill the whole window with NaN
        pulse = d.PulseSpec("gaussian", 1.9e-12, 1e291)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(d.NumericsError,
                               match=r"pulse energy 1e\+291 J"):
                pulse_window_propagator(levels_5t, pulse, lossy)

    def test_adaptive_failure_reports_how_far_it_got(self):
        # at t = 1 s the float spacing, 2.2e-16 s, is coarser than the
        # step DOP853 needs inside a 1.9 ps pulse
        config = d.load_run_config("configs/rabi.yaml")
        pulse = replace(config.pulse, arrival_time=1.0)
        with pytest.raises(d.IntegrationFailure,
                           match=r"last good time: 1\.000000e\+00 s") as err:
            pulse_window_propagator(
                config.levels, pulse, config.dissipators,
                config=d.IntegratorConfig(method="adaptive-rk"))
        assert pulse.window()[0] < err.value.last_time < pulse.window()[1]


def per_step_window(levels, pulse, dissipators, steps):
    """The window propagator as a plain loop in the real Hermitian
    basis: one exponential per midpoint step, and one map back to the
    flat basis at the end. The midpoint envelope comes from one array
    call, as in the stepper: numpy's vector and scalar exp may differ in
    the last bit."""
    l_const, l_drive, l_deph = lindblad._real_parts(
        pulse_liouvillian_parts(levels, pulse, dissipators))
    a, b = pulse.window()
    h = (b - a) / steps
    y = np.eye(16)
    for om in envelope_value(pulse, a + (np.arange(steps) + 0.5) * h):
        om = float(om)
        gen = (l_const + om * l_drive
               + dissipators.laser_dephasing_rate(om) * l_deph)
        y = lindblad.expm(gen * h) @ y
    return lindblad._T_INV @ y @ lindblad._T


def complex_per_step_window(levels, pulse, dissipators, steps):
    """The reference: the same loop on the complex flat generator. A
    repeated envelope value reuses its exponential, which leaves the
    product's bytes as they are."""
    l_const, l_drive, l_deph = pulse_liouvillian_parts(levels, pulse,
                                                       dissipators)
    a, b = pulse.window()
    h = (b - a) / steps
    y, made = np.eye(16, dtype=complex), {}
    for k in range(steps):
        om = float(envelope_value(pulse, a + (k + 0.5) * h))
        if om not in made:
            made[om] = lindblad.expm((l_const + om * l_drive
                             + dissipators.laser_dephasing_rate(om) * l_deph)
                            * h)
        y = made[om] @ y
    return y


@pytest.fixture
def expm_count(monkeypatch):
    """Number of matrices the stepper exponentiates."""
    counted, original = [], lindblad.expm

    def counting(a):
        counted.append(1 if np.ndim(a) == 2 else len(a))
        return original(a)

    monkeypatch.setattr(lindblad, "expm", counting)
    return counted


@pytest.fixture
def unstepped(monkeypatch):
    """Fails the test if any window step is exponentiated."""
    def no_steps(*args, **kwargs):
        raise AssertionError("the window was stepped")

    monkeypatch.setattr(lindblad, "expm", no_steps)


def stepped_window(levels, shape, arrival, steps):
    """A 1.3 rad pulse and the fixed-step config of a grid of ``steps``: a
    fractional count sets max_step to span / steps instead, which lifts
    the grid past expm_steps to ceil(steps) steps."""
    pulse = replace(pulse_for_angle(levels, 1.3, shape=shape),
                    arrival_time=arrival)
    t0, t1 = pulse.window()
    return pulse, d.IntegratorConfig(
        method="fixed-expm",
        max_step=math.inf if steps == int(steps) else (t1 - t0) / steps)


def direct_window(levels, pulse, dissipators, config, steps):
    """The window by the direct path alone, which exponentiates each
    distinct step of a block instead of reading an interpolant."""
    return pulse_window_propagator(levels, pulse, dissipators, config=config,
                                   expm_steps=steps, _table=())


class TestFixedStepper:
    @pytest.mark.parametrize("steps", [64, 1024, 1500.5])
    @pytest.mark.parametrize("arrival", [0.0, 3.3e-10])
    @pytest.mark.parametrize("shape", ["gaussian", "sech2", "rectangular"])
    def test_window_equals_the_per_step_loop(self, levels_5t, lossy, shape,
                                             arrival, steps):
        # the direct path multiplies each block pairwise, and a one-key
        # window takes a matrix power, so the rounding differs from the
        # sequential loop's: 1.1e-13 at most on a rectangular window,
        # and 1.8e-13 at 16,384 steps
        pulse, config = stepped_window(levels_5t, shape, arrival, steps)
        got = direct_window(levels_5t, pulse, lossy, config, int(steps))
        ref = per_step_window(levels_5t, pulse, lossy, math.ceil(steps))
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, steps / 1024)

    @pytest.mark.parametrize("arrival", [0.0, 3.3e-10])
    def test_long_gaussian_window_equals_the_per_step_loop(self, levels_5t,
                                                           lossy, arrival):
        self.test_window_equals_the_per_step_loop(levels_5t, lossy,
                                                  "gaussian", arrival, 16384)

    @pytest.mark.parametrize("steps", [64, 1024, 1500.5])
    @pytest.mark.parametrize("arrival", [0.0, 3.3e-10])
    @pytest.mark.parametrize("shape", ["gaussian", "sech2", "rectangular"])
    def test_interpolated_window_matches_the_per_step_loop(
            self, levels_5t, lossy, shape, arrival, steps):
        # the direct path matches the per-step loop (above) to the same
        # bound. The rounding of an interpolated step is correlated along
        # the window, so the defect grows with the step count: 2.4e-12 at
        # 16,384 steps, where the direct path is itself 8.7e-13 off the
        # product of steps taken in extended precision
        pulse, config = stepped_window(levels_5t, shape, arrival, steps)
        got = pulse_window_propagator(levels_5t, pulse, lossy, config=config,
                                      expm_steps=int(steps))
        ref = direct_window(levels_5t, pulse, lossy, config, int(steps))
        assert np.max(np.abs(got - ref)) < 1e-12 * max(1.0, steps / 1024)

    @pytest.mark.parametrize("arrival", [0.0, 3.3e-10])
    def test_long_interpolated_window_matches_the_per_step_loop(
            self, levels_5t, lossy, arrival):
        self.test_interpolated_window_matches_the_per_step_loop(
            levels_5t, lossy, "gaussian", arrival, 16384)

    @pytest.mark.parametrize("steps, max_step, scan", [
        (0, math.inf, False), (-5, math.inf, False), (2.5, math.inf, False),
        (-3, math.inf, True), (64, math.nan, False)],
        ids=["zero", "negative", "fractional", "negative-scan", "nan-step"])
    def test_bad_step_controls_refused_before_stepping(
            self, levels_5t, lossy, half_pi_pulse, unstepped, steps,
            max_step, scan):
        # unchecked, zero steps would divide by zero, a negative count
        # would give the identity window, and 2.5 would step 1.2 windows
        with pytest.raises(d.ValidationError, match="expm_steps|max_step"):
            config = d.IntegratorConfig(method="fixed-expm", max_step=max_step)
            if scan:
                d.rabi_populations([0.0, half_pi_pulse.energy], levels_5t,
                                   half_pi_pulse, lossy, integrator=config,
                                   expm_steps=steps)
            else:
                pulse_window_propagator(levels_5t, half_pi_pulse, lossy,
                                        config=config, expm_steps=steps)

    def test_real_basis_matches_the_complex_loop(self, levels_5t,
                                                 levels_low_field, quiet,
                                                 lossy):
        # 216 windows: 2 fields, 3 shapes, 3 angles, 2 arrival times,
        # 2 dissipator sets and 3 step counts
        worst = 0.0
        for levels, shape, angle, arrival, diss, steps in itertools.product(
                (levels_5t, levels_low_field),
                ("gaussian", "sech2", "rectangular"), (0.4, 1.3, 3.0),
                (0.0, 3.3e-10), (quiet, lossy), (64, 256, 1024)):
            pulse = replace(pulse_for_angle(levels, angle, shape=shape),
                            arrival_time=arrival)
            got = pulse_window_propagator(levels, pulse, diss,
                                          expm_steps=steps)
            ref = complex_per_step_window(levels, pulse, diss, steps)
            worst = max(worst, float(np.max(np.abs(got - ref))))
        assert worst < 1e-12

    def test_generator_without_a_real_form_is_refused(self, levels_5t, lossy,
                                                      half_pi_pulse,
                                                      monkeypatch, unstepped):
        # i * L_drive maps a Hermitian state to an anti-Hermitian one, so
        # its image in the Hermitian basis is imaginary
        parts = pulse_liouvillian_parts(levels_5t, half_pi_pulse, lossy)
        monkeypatch.setattr(lindblad, "pulse_liouvillian_parts",
                            lambda *args: (parts[0], 1j * parts[1], parts[2]))
        with pytest.raises(d.NumericsError, match="Hermiticity"):
            pulse_window_propagator(levels_5t, half_pi_pulse, lossy)

    @pytest.mark.parametrize("shape, energy", [("rectangular", 1e-15),
                                               ("gaussian", 0.0)])
    def test_flat_window_exponentiates_once(self, levels_5t, lossy, shape,
                                            energy, expm_count):
        pulse = d.PulseSpec(shape=shape, duration=1.9e-12, energy=energy)
        pulse_window_propagator(levels_5t, pulse, lossy, expm_steps=1024)
        assert sum(expm_count) == 1

    def test_gaussian_window_shares_mirror_steps(self, levels_5t, lossy,
                                                 half_pi_pulse, expm_count):
        pulse_window_propagator(levels_5t, half_pi_pulse, lossy,
                                expm_steps=1024)
        assert sum(expm_count) < 1024

    def test_gaussian_window_reads_a_few_exponentials(self, levels_5t, lossy,
                                                      half_pi_pulse,
                                                      expm_count):
        # 727 distinct steps, read from at most 32 nodes and 5 checks
        pulse_window_propagator(levels_5t, half_pi_pulse, lossy,
                                expm_steps=1024)
        assert sum(expm_count) <= 40

    @pytest.mark.parametrize("table", [None, ()], ids=["table", "direct"])
    def test_long_window_holds_bounded_memory(self, levels_5t, lossy,
                                              half_pi_pulse, expm_count,
                                              table):
        # both routes hold one block of steps at a time, so a long
        # window holds little more than a short one
        tracemalloc.start()
        try:
            pulse_window_propagator(levels_5t, half_pi_pulse, lossy,
                                    expm_steps=16384, _table=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if table is None:
            assert sum(expm_count) < 16384
        assert peak < 4 * 2**20

    def test_stiff_laser_dephasing_stays_physical(self, levels_low_field,
                                                  monkeypatch, expm_count):
        # the joint fit probes beta2 = 1.49e-8 s, where gamma * h is about
        # 1.7e5 on a 64-step grid; the midpoint exponential stays bounded
        # there, unlike integrators whose correction terms are not
        # dissipative (4th-order Magnus reached populations of 1e275). No
        # interpolant passes its check there, so the window exponentiates
        # each distinct step, and the failed attempt cost no more
        # exponentials than that
        pulse = pulse_for_angle(levels_low_field, 2.2 * math.pi / 2)
        stiff = d.DissipatorSet(laser_dephasing_linear=4.8e-3,
                                laser_dephasing_quadratic=1.49e-8)
        tables, distinct, original = [], [], lindblad._step_table

        def spy(generator, keys, h):
            distinct.append(np.unique(keys).size)
            tables.append(original(generator, keys, h))
            return tables[-1]

        monkeypatch.setattr(lindblad, "_step_table", spy)
        w = pulse_window_propagator(levels_low_field, pulse, stiff,
                                    expm_steps=64)
        assert tables == [()] and sum(expm_count) <= 2 * distinct[0]
        rho = w @ DensityMatrix.pure(d.GROUND_DOWN).matrix.reshape(16)
        out = DensityMatrix(rho.reshape(4, 4))
        assert trace_error(out.matrix) < 1e-9
        populations = np.real(np.diag(out.matrix))
        assert np.all(populations > -1e-9)
        assert np.all(populations < 1.0 + 1e-9)


class TestScanInterpolant:
    def test_rabi_scan_reads_a_few_exponentials(self, levels_5t, lossy,
                                                half_pi_pulse, expm_count):
        # one interpolant at the top energy serves all 41 windows; the
        # zero-energy window exponentiates its one step
        energies = np.linspace(0.0, 4.0, 41) * half_pi_pulse.energy
        d.rabi_populations(energies, levels_5t, half_pi_pulse, lossy)
        assert sum(expm_count) <= 64

    @pytest.mark.parametrize("scales, shape, lifted", [
        ((0.0, 0.0, 0.0), "gaussian", False),
        ((1.0,), "gaussian", False),
        ((0.5, 1.0, 2.0), "rectangular", False),
        ((0.0, 0.5, 1.0, 2.0), "gaussian", True),
        ((0.0, 0.5, 1.0, 2.0), "sech2", False)],
        ids=["all-zero", "single", "rectangular", "lifted-grid", "sech2"])
    def test_scan_windows_match_the_direct_path(self, levels_5t, lossy,
                                                scales, shape, lifted,
                                                expm_count):
        # a lifted grid has 300 steps where expm_steps asks for 256
        pulse = pulse_for_angle(levels_5t, math.pi / 2, shape=shape)
        t0, t1 = pulse.window()
        config = d.IntegratorConfig(
            method="fixed-expm",
            max_step=(t1 - t0) / 300 if lifted else math.inf)
        energies = np.array(scales) * pulse.energy
        got = d.sequences._windows(energies, levels_5t, pulse, lossy, 256,
                                   config)
        if shape == "rectangular" or not any(scales):
            assert sum(expm_count) == len(energies)
        for energy, window in zip(energies, got):
            ref = direct_window(levels_5t, replace(pulse, energy=energy),
                                lossy, config, 256)
            assert np.max(np.abs(window - ref)) < 1e-12


class TestRelaxationModel:
    def test_reference_point(self):
        assert 1.0 / d.t1_rate_model(2.25) == pytest.approx(0.1, rel=1e-12)

    def test_power_law_exponent(self):
        ratio = d.t1_rate_model(4.5) / d.t1_rate_model(2.25)
        assert ratio == pytest.approx(2.0**3.5, rel=1e-12)

    def test_zero_field_means_no_relaxation(self):
        assert d.t1_rate_model(0.0) == 0.0

    def test_rejects_negative_field(self):
        with pytest.raises(d.ValidationError):
            d.t1_rate_model(-1.0)


class TestEvolve:
    def test_single_pulse_matches_window_propagator(self, levels_5t, lossy,
                                                    half_pi_pulse):
        w = half_pi_pulse.half_window
        result = evolve(DensityMatrix.pure(d.GROUND_DOWN), levels_5t,
                        [half_pi_pulse], lossy, t_span=(-w, w))
        prop = pulse_window_propagator(
            levels_5t, half_pi_pulse, lossy,
            config=d.IntegratorConfig(method="adaptive-rk"))
        expected = (prop @ DensityMatrix.pure(d.GROUND_DOWN).matrix
                    .reshape(16)).reshape(4, 4)
        assert np.max(np.abs(result.final.matrix - expected)) < 1e-7

    def test_sample_inside_a_window_leaves_the_final_state(self, levels_5t,
                                                           lossy):
        # the window integration still runs to the window's end after a
        # sample inside it
        pulse = pulse_for_angle(levels_5t, math.pi / 2, shape="rectangular")
        w = pulse.half_window
        rho0 = DensityMatrix.pure(d.GROUND_DOWN)
        plain = evolve(rho0, levels_5t, [pulse], lossy, t_span=(-w, 2 * w))
        sampled = evolve(rho0, levels_5t, [pulse], lossy,
                         t_span=(-w, 2 * w), t_eval=[0.0, 2 * w])
        assert np.array_equal(sampled.times, [0.0, 2 * w])
        assert np.max(np.abs(sampled.final.matrix
                             - plain.final.matrix)) < 1e-8

    def test_overlapping_pulses_rejected(self, levels_5t, lossy,
                                         half_pi_pulse):
        from dataclasses import replace
        second = replace(half_pi_pulse,
                         arrival_time=0.5 * half_pi_pulse.half_window)
        with pytest.raises(d.ValidationError):
            evolve(DensityMatrix.pure(d.GROUND_DOWN), levels_5t,
                   [half_pi_pulse, second], lossy,
                   t_span=(-1e-11, 1e-10))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=1e-12, max_value=1e-6))
def test_property_silence_preserves_state_validity(seed, tau):
    rng = np.random.default_rng(seed)
    levels = d.LevelScheme(electron_splitting=TWO_PI * 137.9e9,
                           hole_splitting=TWO_PI * 23.8e9,
                           optical_detuning=TWO_PI * 3.57e12)
    diss = random_dissipators(rng)
    silence = SilencePropagator(levels, diss)
    rho = random_density_matrix(rng)
    out = DensityMatrix(silence_step(silence, rho, tau))
    assert trace_error(out.matrix) < 1e-9
    assert hermiticity_error(out.matrix) < 1e-10
    assert min_eigenvalue(out.matrix) > -1e-7
