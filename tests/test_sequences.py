"""Experiment runners: pump, Ramsey, echo, relaxation, ensembles."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import donorspin as d
from donorspin import BathModel, ExperimentTrace, ValidationError
from donorspin.sequences import _ensemble_reduce
from conftest import pulse_for_angle, spike_bath
from reference import evolve, extracted_rotation_angle

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def ramsey_delays(half_pi_pulse):
    # three sparse delays: too few for a fringe fit, ideal for
    # point-by-point comparison against brute-force evolution
    w = half_pi_pulse.half_window
    return np.array([2.0 * w, 2.0 * w + 3.1e-11, 2.0 * w + 7.3e-11])


def brute_force_p_up(arrivals, levels, pulse, dissipators, detuning=0.0):
    """Reference route: full master-equation evolution of a pulse train."""
    w = pulse.half_window
    pulses = [replace(pulse, arrival_time=float(t)) for t in arrivals]
    result = evolve(d.DensityMatrix.pure(d.GROUND_DOWN), levels, pulses,
                    dissipators, t_span=(-w, arrivals[-1] + w),
                    spin_detuning=detuning)
    return result.final.p_up


def ensemble_average(run, bath: BathModel, n: int, seed=None) -> ExperimentTrace:
    """Average per-donor traces over sampled Overhauser detunings.

    ``run(detuning)`` must return an :class:`ExperimentTrace` on a
    fixed abscissa. The mean trace carries standard errors. The main
    experiment runners use an algebraically identical factorized path;
    this generic version exists for custom experiments and for checking
    that factorization.
    """
    if n < 1:
        raise ValidationError(f"sample count must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    detunings = bath.sample_detunings(rng, n)
    traces = [run(float(d)) for d in detunings]
    first = traces[0]
    for t in traces[1:]:
        if not np.array_equal(t.abscissa, first.abscissa):
            raise ValidationError("per-sample traces disagree on the abscissa")
    ups = np.stack([t.p_up for t in traces])
    downs = np.stack([t.p_down for t in traces])
    scale = math.sqrt(n) if n > 1 else 1.0
    return ExperimentTrace(
        abscissa=first.abscissa, abscissa_name=first.abscissa_name,
        p_up=ups.mean(axis=0), p_down=downs.mean(axis=0),
        p_up_stderr=(ups.std(axis=0, ddof=1) / scale if n > 1
                     else np.zeros_like(first.p_up)),
        p_down_stderr=(downs.std(axis=0, ddof=1) / scale if n > 1
                       else np.zeros_like(first.p_down)))


class TestTraces:
    def test_trace_validation_catches_population_sum(self):
        with pytest.raises(d.NumericsError,
                           match=r"p_up \+ p_down exceeds 1 by 4\.000e-01"):
            d.sequences._clip_populations(np.array([0.7, 0.7]),
                                          np.array([0.7, 0.2]))

    def test_trace_rows_carry_units_and_stderr(self):
        trace = d.ExperimentTrace(
            abscissa=np.array([1e-9]), abscissa_name="tau_s",
            p_up=np.array([0.4]), p_down=np.array([0.6]),
            p_up_stderr=np.array([0.01]), p_down_stderr=np.array([0.01]))
        header, rows = trace.as_rows()
        assert header == ["tau_s", "p_up", "p_up_stderr", "p_down",
                          "p_down_stderr"]
        assert len(rows) == 1 and len(rows[0]) == 5


class TestInjectedDecoherence:
    def test_envelope_and_ratio_compose(self):
        inj = d.InjectedDecoherence(50e-6, 3.0)
        t0, t1 = 20e-6, 70e-6
        assert inj.ratio(t0, t1) == pytest.approx(
            inj.envelope(t1) / inj.envelope(t0), rel=1e-12)
        assert inj.ratio(0.0, t0) * inj.ratio(t0, t1) == pytest.approx(
            float(inj.envelope(t1)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(d.ValidationError):
            d.InjectedDecoherence(0.0)
        with pytest.raises(d.ValidationError):
            d.InjectedDecoherence(1e-6, exponent=0.5)


class TestOpticalPump:
    def test_strong_pump_initializes_spin_down(self, levels_5t, lossy):
        result = d.optical_pump(d.DensityMatrix.scrambled(), levels_5t,
                                rabi=TWO_PI * 20e6, duration=10e-6,
                                dissipators=lossy, samples=400)
        assert result.fidelity > 0.95
        assert result.final.trace_error() < 1e-9
        assert np.all(result.emission_rate >= -1e-12)

    def test_no_drive_means_no_initialization(self, levels_5t, lossy):
        result = d.optical_pump(d.DensityMatrix.scrambled(), levels_5t,
                                rabi=0.0, duration=1e-6, dissipators=lossy)
        assert result.fidelity == pytest.approx(0.5, abs=1e-6)

    def test_validation(self, levels_5t, lossy):
        with pytest.raises(d.ValidationError):
            d.optical_pump(None, levels_5t, 1e8, 0.0, lossy)
        with pytest.raises(d.ValidationError):
            d.optical_pump(None, levels_5t, -1e8, 1e-6, lossy)
        with pytest.raises(d.ValidationError):
            d.PumpSettings(rabi=1e8, duration=1e-6, samples=0)


class TestRotationAngle:
    def test_high_field_value_frozen(self, levels_5t, half_pi_pulse):
        # at 5 T the spin precesses appreciably within the pulse window,
        # so the realized angle falls short of the impulsive-limit pi/2
        angle = extracted_rotation_angle(levels_5t, half_pi_pulse)
        assert angle == pytest.approx(1.1661922368640243, rel=1e-9)

    def test_coherence_consistent_with_angle(self, levels_5t, quiet,
                                             half_pi_pulse):
        angle = extracted_rotation_angle(levels_5t, half_pi_pulse)
        w = half_pi_pulse.half_window
        final = evolve(d.DensityMatrix.pure(d.GROUND_DOWN), levels_5t,
                       [half_pi_pulse], quiet, t_span=(-w, w)).final
        assert abs(final.matrix[d.GROUND_DOWN, d.GROUND_UP]) == \
            pytest.approx(math.sin(angle) / 2.0, abs=1e-5)

    def test_low_field_approaches_impulsive_limit(self, levels_low_field):
        pulse = pulse_for_angle(levels_low_field, math.pi / 2)
        angle = extracted_rotation_angle(levels_low_field, pulse)
        assert angle == pytest.approx(math.pi / 2, rel=0.03)

    def test_rabi_populations_match_extracted_angle(self, levels_low_field,
                                                    quiet):
        pulse = pulse_for_angle(levels_low_field, math.pi / 2)
        energies = [d.energy_for_rotation_angle(pulse, levels_low_field, a)
                    for a in (0.4, math.pi / 2, 2.5)]
        pops = d.rabi_populations(energies, levels_low_field, pulse, quiet,
                                  expm_steps=1024)
        for energy, p_up in zip(energies, pops):
            theta = extracted_rotation_angle(
                levels_low_field, replace(pulse, energy=energy))
            assert p_up == pytest.approx(math.sin(theta / 2.0) ** 2,
                                         abs=1e-9)

    def test_rabi_sweep_trace(self, levels_low_field, quiet):
        pulse = pulse_for_angle(levels_low_field, math.pi / 2)
        e_pi = d.energy_for_rotation_angle(pulse, levels_low_field, math.pi)
        energies = np.linspace(0.0, e_pi, 9)
        trace = d.run_rabi_sweep(energies, levels_low_field, pulse, quiet)
        assert trace.abscissa_name == "pulse_energy_J"
        assert trace.p_up[0] == pytest.approx(0.0, abs=1e-9)
        assert trace.p_up[-1] > 0.99
        assert np.all(np.diff(trace.p_up) > 0)  # rising toward inversion

    def test_fringe_visibility_matches_angle(self, levels_low_field, quiet):
        pulse = pulse_for_angle(levels_low_field, math.pi / 2)
        theta = extracted_rotation_angle(levels_low_field, pulse,
                                         expm_steps=256)
        vis = d.fringe_visibilities([pulse.energy], levels_low_field, pulse,
                                    quiet)
        assert vis[0] == pytest.approx(math.sin(theta) ** 2 / 2.0, rel=1e-3)


class TestRamseyDualRoute:
    def test_matches_brute_force_no_bath(self, levels_5t, lossy,
                                         half_pi_pulse, ramsey_delays):
        result = d.run_ramsey(ramsey_delays, levels_5t, half_pi_pulse, lossy)
        for k, tau in enumerate(ramsey_delays):
            brute = brute_force_p_up((0.0, tau), levels_5t, half_pi_pulse,
                                     lossy)
            assert result.trace.p_up[k] == pytest.approx(brute, abs=5e-5)

    def test_zero_delay_composes_windows(self, levels_5t, lossy,
                                         half_pi_pulse):
        result = d.run_ramsey(np.array([0.0]), levels_5t, half_pi_pulse,
                              lossy)
        w = d.pulse_window_propagator(levels_5t, half_pi_pulse, lossy)
        v = (w @ w) @ d.DensityMatrix.pure(d.GROUND_DOWN).matrix.reshape(16)
        expected = float(np.real(v.reshape(4, 4)[d.GROUND_UP, d.GROUND_UP]))
        assert result.trace.p_up[0] == pytest.approx(expected, abs=1e-12)

    def test_detuned_matches_brute_force_within_window_bound(
            self, levels_5t, quiet, half_pi_pulse, ramsey_delays):
        # the factorized path applies the frozen detuning only during
        # the silences, so the two routes may differ by up to the phase
        # accrued across one pulse window
        delta = TWO_PI * 30e6
        bath = spike_bath(delta, 1.97)
        result = d.run_ramsey(ramsey_delays, levels_5t, half_pi_pulse,
                              quiet, bath=bath, ensemble_mode="exact")
        bound = delta * 2.0 * half_pi_pulse.half_window + 1e-4
        for k, tau in enumerate(ramsey_delays):
            brute = brute_force_p_up((0.0, tau), levels_5t, half_pi_pulse,
                                     quiet, detuning=delta)
            assert abs(result.trace.p_up[k] - brute) < bound

    def test_injected_channel_scales_fringe(self, levels_5t, quiet,
                                            half_pi_pulse, ramsey_delays):
        plain = d.run_ramsey(ramsey_delays, levels_5t, half_pi_pulse, quiet)
        injected = d.InjectedDecoherence(1e-10, 1.0)
        damped = d.run_ramsey(ramsey_delays, levels_5t, half_pi_pulse, quiet,
                              injected=injected)
        # the channel damps only the coherence pathway, so solving
        # damped = base + envelope * (plain - base) at each delay must
        # recover one common population baseline
        factors = injected.envelope(ramsey_delays)
        baselines = (damped.trace.p_up - factors * plain.trace.p_up) \
            / (1.0 - factors)
        assert np.ptp(baselines) < 1e-9
        # and the damped signal stays strictly between baseline and plain
        shrink = np.abs(damped.trace.p_up - baselines) \
            / np.abs(plain.trace.p_up - baselines)
        assert np.allclose(shrink, factors, rtol=1e-6)


class TestEchoDualRoute:
    """The fixed tau1 gap branches every pathway before the tau2 scan."""

    TAU1 = 2e-9
    POINTS = (0, 7, 13)

    @pytest.fixture(scope="class")
    def scan(self, levels_5t):
        return d.ramsey_window_plan([self.TAU1],
                                    levels_5t.electron_splitting)[0]

    def test_matches_brute_force_no_bath(self, levels_5t, lossy,
                                         half_pi_pulse, scan):
        result = d.run_echo(self.TAU1, scan, levels_5t, half_pi_pulse, lossy)
        for k in self.POINTS:
            brute = brute_force_p_up((0.0, self.TAU1, self.TAU1 + scan[k]),
                                     levels_5t, half_pi_pulse, lossy)
            assert result.trace.p_up[k] == pytest.approx(brute, abs=5e-5)

    def test_detuned_matches_brute_force_within_window_bound(
            self, levels_5t, quiet, half_pi_pulse, scan):
        # the detuning turns tau1 by 0.38 rad, so every branch of the
        # first gap, populations included, carries its own phase; the
        # routes may differ by the phase accrued across three windows
        delta = TWO_PI * 30e6
        bath = spike_bath(delta, 1.97)
        result = d.run_echo(self.TAU1, scan, levels_5t, half_pi_pulse, quiet,
                            bath=bath, ensemble_mode="exact")
        bound = delta * 3.0 * 2.0 * half_pi_pulse.half_window + 1e-4
        for k in self.POINTS:
            brute = brute_force_p_up((0.0, self.TAU1, self.TAU1 + scan[k]),
                                     levels_5t, half_pi_pulse, quiet,
                                     detuning=delta)
            assert abs(result.trace.p_up[k] - brute) < bound

    def test_decay_rows_match_brute_force_within_window_bound(
            self, levels_5t, quiet, half_pi_pulse):
        # one contraction holds both scans, whose rows differ in the
        # first gap
        delta = TWO_PI * 30e6
        tau1_values = np.array([self.TAU1, 3e-9])
        decay = d.run_echo_decay(tau1_values, levels_5t, half_pi_pulse,
                                 quiet, bath=spike_bath(delta, 1.97),
                                 ensemble_mode="exact")
        bound = delta * 3.0 * 2.0 * half_pi_pulse.half_window + 1e-4
        n = len(decay.trace.abscissa) // len(tau1_values)
        for j, tau1 in enumerate(tau1_values):
            for k in (j * n + 3, j * n + 13):
                tau2 = decay.trace.abscissa[k]
                brute = brute_force_p_up((0.0, tau1, tau1 + tau2), levels_5t,
                                         half_pi_pulse, quiet, detuning=delta)
                assert abs(decay.trace.p_up[k] - brute) < bound


class TestRamseyEnsembles:
    def test_mc_agrees_with_exact(self, levels_5t, quiet, half_pi_pulse):
        bath = d.BathModel.gaussian(17e-9, 1.97)
        window = d.ramsey_window_plan([8e-9],
                                      levels_5t.electron_splitting)[0]
        exact = d.run_ramsey(window, levels_5t, half_pi_pulse, quiet,
                             bath=bath, ensemble_mode="exact")
        mc = d.run_ramsey(window, levels_5t, half_pi_pulse, quiet, bath=bath,
                          ensemble_mode="mc", bath_samples=600, seed=2)
        assert mc.trace.p_up_stderr is not None
        assert np.all(mc.trace.p_up_stderr > 0)
        pull = (mc.visibilities[0] - exact.visibilities[0]) \
            / mc.visibility_stderr[0]
        assert abs(pull) < 5.0

    def test_generic_average_equals_factorized_mc(self, levels_5t, quiet,
                                                  half_pi_pulse):
        bath = d.BathModel.gaussian(17e-9, 1.97)
        window = d.ramsey_window_plan([6e-9],
                                      levels_5t.electron_splitting)[0]

        def per_donor(detuning):
            one = spike_bath(detuning, bath.electron_g)
            return d.run_ramsey(window, levels_5t, half_pi_pulse, quiet,
                                bath=one, ensemble_mode="exact").trace

        generic = ensemble_average(per_donor, bath, n=150, seed=5)
        factorized = d.run_ramsey(window, levels_5t, half_pi_pulse, quiet,
                                  bath=bath, ensemble_mode="mc",
                                  bath_samples=150, seed=5)
        assert np.allclose(generic.p_up, factorized.trace.p_up, atol=1e-9)
        assert np.allclose(generic.p_up_stderr,
                           factorized.trace.p_up_stderr, atol=1e-9)

    def test_visibility_tracks_bath_envelope(self, levels_5t, quiet,
                                             half_pi_pulse):
        bath = d.BathModel.gaussian(17e-9, 1.97)
        centers = np.array([4e-9, 12e-9, 20e-9])
        windows = d.ramsey_window_plan(centers,
                                       levels_5t.electron_splitting)
        result = d.run_ramsey(windows, levels_5t, half_pi_pulse, quiet,
                              bath=bath, ensemble_mode="exact")
        reference = d.run_ramsey(windows, levels_5t, half_pi_pulse, quiet)
        ratio = result.visibilities / reference.visibilities
        # the frozen detuning acts over the silence between the pulse
        # windows, hence the 2w offset in the envelope argument
        silence = centers - 2.0 * half_pi_pulse.half_window
        assert np.allclose(ratio, bath.envelope(silence), rtol=1e-4)


def one_shot_mc_reduce(terms_by_shift, samples, durations_of):
    """The Monte Carlo reduction with every sample's complex sum held at
    once: the oracle of the blocked reduction, which must match it byte
    for byte."""
    n_points = len(next(iter(terms_by_shift.values())))
    per_sample = np.zeros((len(samples), n_points), dtype=complex)
    for k in terms_by_shift:
        arg = np.multiply.outer(samples, durations_of(k))
        per_sample += np.exp(-1j * arg) * terms_by_shift[k][None, :]
    values = np.real(per_sample)
    mean = values.mean(axis=0)
    if len(samples) > 1:
        stderr = values.std(axis=0, ddof=1) / math.sqrt(len(samples))
    else:
        stderr = np.zeros(n_points)
    return mean, stderr


def mc_reduction_inputs(gaps, n_points, n_samples, seed):
    """Contraction-shaped terms: one sign per gap plus one for the scan,
    with phase durations sum(s * gap) + s_scan * scan."""
    rng = np.random.default_rng(seed)
    scan = np.linspace(1e-9, 2.2e-8, n_points)
    keys = [()]
    for _ in range(len(gaps) + 1):
        keys = [key + (s,) for key in keys for s in (0, 1, -1)]
    terms = {key: 0.3 * (rng.normal(size=n_points)
                         + 1j * rng.normal(size=n_points)) for key in keys}

    def durations(key):
        return sum((s * gap for s, gap in zip(key, gaps)), key[-1] * scan)

    bath = d.BathModel.gaussian(17e-9, 1.97)
    return terms, bath, bath.sample_detunings(rng, n_samples), durations


class TestBlockedMcReduction:
    # Ramsey: 3 keys over 228 points (12 windows of 19); echo: 9 keys
    # over 33 points, which leaves one column past the last full
    # 16-column block of the stderr; two fixed gaps: 27 keys, 13 mirror
    # pairs
    @pytest.mark.parametrize("gaps, n_points",
                             [((), 228), ((4e-9,), 33), ((4e-9, 7e-9), 33)],
                             ids=["ramsey", "echo", "two-gaps"])
    @pytest.mark.parametrize("n_samples", [1, 2, 511, 512, 513, 1025])
    def test_matches_one_shot_byte_for_byte(self, gaps, n_points, n_samples):
        terms, bath, samples, durations = mc_reduction_inputs(
            gaps, n_points, n_samples, seed=n_samples)
        assert len(terms) == 3 ** (len(gaps) + 1)
        mean, stderr = _ensemble_reduce(terms, bath, samples, durations)
        want_mean, want_stderr = one_shot_mc_reduce(terms, samples,
                                                    durations)
        assert mean.tobytes() == want_mean.tobytes()
        assert stderr.tobytes() == want_stderr.tobytes()

    @pytest.mark.parametrize("n_samples", [1, 513])
    def test_key_without_a_mirror_takes_its_own_phase(self, n_samples):
        terms, bath, samples, durations = mc_reduction_inputs(
            (4e-9,), 33, n_samples, seed=n_samples)

        def skewed(key):  # (1, 1) no longer negates (-1, -1) exactly
            return durations(key) * (1.0 + 1e-12) if key == (1, 1) \
                else durations(key)

        assert not np.array_equal(-skewed((1, 1)), skewed((-1, -1)))
        mean, stderr = _ensemble_reduce(terms, bath, samples, skewed)
        want_mean, want_stderr = one_shot_mc_reduce(terms, samples, skewed)
        assert mean.tobytes() == want_mean.tobytes()
        assert stderr.tobytes() == want_stderr.tobytes()

    def test_peak_memory_holds_one_real_value_per_sample(self):
        # 20,000 x 228 real values take 36.5 MB; the one-shot reduction
        # peaked at 244 MB on several complex arrays of that shape
        terms, bath, samples, durations = mc_reduction_inputs(
            (), 228, 20_000, seed=3)
        tracemalloc.start()
        try:
            _ensemble_reduce(terms, bath, samples, durations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48e6


class TestEcho:
    def test_long_time_amplitude_refocuses_static_bath(self, levels_5t,
                                                       quiet, half_pi_pulse):
        larmor = levels_5t.electron_splitting
        amplitudes = []
        for tau1 in (2e-7, 2e-6):
            for t2_star in (5e-9, 17e-9, 50e-9):
                scan = d.ramsey_window_plan([tau1], larmor)[0]
                bath = d.BathModel.gaussian(t2_star, 1.97)
                amplitudes.append(d.run_echo(tau1, scan, levels_5t,
                                             half_pi_pulse, quiet,
                                             bath=bath).amplitude)
        assert np.ptp(amplitudes) < 1e-5
        assert amplitudes[0] == pytest.approx(0.128096, abs=2e-4)

    def test_amplitude_matches_three_pulse_pathway(self, levels_5t, quiet,
                                                   half_pi_pulse):
        # surviving pathway for three identical theta pulses:
        # sin^2(theta) sin^2(theta/2) / 2
        theta = extracted_rotation_angle(levels_5t, half_pi_pulse)
        expected = math.sin(theta) ** 2 * math.sin(theta / 2.0) ** 2 / 2.0
        scan = d.ramsey_window_plan([5e-7],
                                    levels_5t.electron_splitting)[0]
        bath = d.BathModel.gaussian(17e-9, 1.97)
        amplitude = d.run_echo(5e-7, scan, levels_5t, half_pi_pulse, quiet,
                               bath=bath).amplitude
        assert amplitude == pytest.approx(expected, rel=1e-3)

    def test_injected_exponential_roundtrip(self, levels_5t, quiet,
                                            half_pi_pulse):
        # the nanosecond-scale bath isolates the refocused pathway at
        # microsecond delays, leaving the injected channel as the only
        # decay of the echo amplitude
        bath = d.BathModel.gaussian(17e-9, 1.97)
        injected = d.InjectedDecoherence(50e-6, 1.0)
        tau1_values = np.linspace(5e-6, 80e-6, 6)
        decay = d.run_echo_decay(tau1_values, levels_5t, half_pi_pulse,
                                 quiet, bath=bath, injected=injected)
        fit = d.fit_curve("exp_decay", decay.total_times, decay.amplitudes)
        assert fit.converged
        assert fit.parameters["t_decay"] == pytest.approx(50e-6, rel=1e-6)

    def test_injected_cubic_roundtrip(self, levels_5t, quiet,
                                      half_pi_pulse):
        bath = d.BathModel.gaussian(17e-9, 1.97)
        injected = d.InjectedDecoherence(60e-6, 3.0)
        tau1_values = np.linspace(10e-6, 60e-6, 6)
        decay = d.run_echo_decay(tau1_values, levels_5t, half_pi_pulse,
                                 quiet, bath=bath, injected=injected)
        fit = d.fit_curve("cubed_exp_decay", decay.total_times,
                          decay.amplitudes)
        assert fit.converged
        assert fit.parameters["t_decay"] == pytest.approx(60e-6, rel=1e-6)

    def test_rows(self, levels_5t, quiet, half_pi_pulse):
        decay = d.run_echo_decay(np.array([5e-6, 10e-6]), levels_5t,
                                 half_pi_pulse, quiet)
        header, rows = decay.as_rows()
        assert header == ["echo_total_s", "amplitude", "amplitude_stderr"]
        assert len(rows) == 2
        assert decay.total_times[0] == pytest.approx(10e-6, rel=1e-3)


class TestPropagatorBuilds:
    """Each distinct pulse-window propagator is built once per request."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = d.sequences.pulse_window_propagator

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(d.sequences, "pulse_window_propagator", counted)
        return calls

    def test_rabi_sweep_builds_one_per_energy(self, builds, levels_low_field,
                                              lossy):
        pulse = pulse_for_angle(levels_low_field, math.pi / 2)
        energies = np.linspace(0.0, 2.0, 4) * pulse.energy
        trace = d.run_rabi_sweep(energies, levels_low_field, pulse, lossy,
                                 expm_steps=64)
        assert len(builds) == len(energies)
        expected = d.rabi_populations(energies, levels_low_field, pulse,
                                      lossy, expm_steps=64)
        assert np.array_equal(trace.p_up, expected)

    def test_echo_decay_builds_one_and_matches_single_points(
            self, builds, levels_5t, lossy, half_pi_pulse):
        tau1_values = np.array([2e-7, 5e-7, 9e-7])
        pump = d.PumpSettings(rabi=TWO_PI * 20e6, duration=2e-6, samples=32)
        options = dict(bath=d.BathModel.gaussian(17e-9, 1.97),
                       ensemble_mode="mc", bath_samples=64, pump=pump,
                       injected=d.InjectedDecoherence(50e-6, 1.0),
                       expm_steps=64)
        decay = d.run_echo_decay(tau1_values, levels_5t, half_pi_pulse,
                                 lossy, seed=np.random.default_rng(4),
                                 **options)
        assert len(builds) == 1

        # the decay draws the bath once for every tau1
        larmor = levels_5t.electron_splitting
        singles = [d.run_echo(tau1, d.ramsey_window_plan([tau1], larmor)[0],
                              levels_5t, half_pi_pulse, lossy,
                              seed=np.random.default_rng(4), **options)
                   for tau1 in tau1_values]
        assert np.array_equal(decay.amplitudes,
                              [p.amplitude for p in singles])
        assert np.array_equal(decay.amplitude_stderr,
                              [p.amplitude_stderr for p in singles])
        assert np.array_equal(decay.trace.p_up, np.concatenate(
            [single.trace.p_up for single in singles]))


def test_mc_echo_decay_draws_the_bath_once(monkeypatch, levels_5t, quiet,
                                          half_pi_pulse):
    draws = []
    original = BathModel.sample_detunings

    def counted(self, rng, n):
        draws.append(n)
        return original(self, rng, n)

    monkeypatch.setattr(BathModel, "sample_detunings", counted)
    d.run_echo_decay(np.array([2e-7, 5e-7, 9e-7]), levels_5t, half_pi_pulse,
                     quiet, bath=BathModel.gaussian(17e-9, 1.97),
                     ensemble_mode="mc", bath_samples=64, seed=3,
                     expm_steps=64)
    assert draws == [64]


def test_fringe_side_is_one_contraction(monkeypatch, levels_low_field, lossy):
    pulse = pulse_for_angle(levels_low_field, math.pi / 2)
    energies = np.array([0.6, 1.0, 1.5]) * pulse.energy
    calls = {name: [] for name in ("pulse_window_propagator",
                                   "SilencePropagator", "_contract",
                                   "run_ramsey")}
    for name, seen in calls.items():
        def counted(*args, _original=getattr(d.sequences, name), _seen=seen,
                    **kwargs):
            _seen.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(d.sequences, name, counted)
    vis = d.fringe_visibilities(energies, levels_low_field, pulse, lossy,
                                expm_steps=64)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "pulse_window_propagator": 3, "SilencePropagator": 1, "_contract": 1,
        "run_ramsey": 0}
    monkeypatch.undo()

    # the former route, one Ramsey scan per energy, as the oracle
    larmor = levels_low_field.electron_splitting
    w = pulse.half_window
    delays = d.ramsey_window_plan([2.0 * w + 4.0 * math.pi / larmor],
                                  larmor)[0]
    oracle = [d.run_ramsey(delays, levels_low_field,
                           replace(pulse, energy=energy), lossy,
                           expm_steps=64).visibilities[0]
              for energy in energies]
    assert np.max(np.abs(vis - oracle)) <= 4e-16


def test_no_energies_give_empty_arrays(levels_low_field, quiet):
    pulse = pulse_for_angle(levels_low_field, math.pi / 2)
    for run in (d.rabi_populations, d.fringe_visibilities):
        out = run([], levels_low_field, pulse, quiet, expm_steps=64)
        assert isinstance(out, np.ndarray) and out.shape == (0,)


class TestT1Recovery:
    def test_roundtrips_relaxation_time(self, levels_5t):
        diss = d.DissipatorSet(radiative_rate=1e9, t1_rate=10.0)
        pump = d.PumpSettings(rabi=TWO_PI * 20e6, duration=10e-6,
                              samples=200)
        waits = np.linspace(0.0, 0.5, 12)
        result = d.run_t1_recovery(waits, levels_5t, diss, pump)
        assert result.pump.fidelity > 0.95
        assert result.fitted_t1 == pytest.approx(0.1, rel=1e-6)
        assert result.trace.p_up[0] < 0.05
        assert result.trace.p_up[-1] == pytest.approx(0.5, abs=0.01)

    def test_rows_are_the_population_step_of_the_pumped_state(
            self, levels_5t):
        diss = d.DissipatorSet(radiative_rate=1e9, t1_rate=10.0)
        pump = d.PumpSettings(rabi=TWO_PI * 20e6, duration=10e-6,
                              samples=200)
        waits = np.linspace(0.0, 0.5, 12)
        result = d.run_t1_recovery(waits, levels_5t, diss, pump)
        silence = d.SilencePropagator(levels_5t, diss)
        pumped = np.diag(result.pump.final.matrix).real
        for k, wait in enumerate(waits):
            want = silence.population_matrix(wait) @ pumped
            assert abs(result.trace.p_up[k] - want[d.GROUND_UP]) <= 1e-15
            assert abs(result.trace.p_down[k] - want[d.GROUND_DOWN]) <= 1e-15

    def test_fewer_than_four_waits_rejected_before_pumping(
            self, levels_5t, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the pump ran before the wait check")

        monkeypatch.setattr(d.sequences, "optical_pump", must_not_run)
        diss = d.DissipatorSet(radiative_rate=1e9, t1_rate=10.0)
        pump = d.PumpSettings(rabi=TWO_PI * 20e6, duration=5e-6, samples=64)
        with pytest.raises(d.ValidationError, match="four delays"):
            d.run_t1_recovery(np.array([0.0, 0.1, 0.2]), levels_5t, diss,
                              pump)


class TestValidation:
    def test_short_nonzero_delay_rejected(self, levels_5t, quiet,
                                          half_pi_pulse):
        w = half_pi_pulse.half_window
        with pytest.raises(d.ValidationError):
            d.run_ramsey(np.array([0.5 * w]), levels_5t, half_pi_pulse,
                         quiet)

    def test_aliased_window_rejected(self, levels_5t, quiet, half_pi_pulse):
        period = TWO_PI / levels_5t.electron_splitting
        window = 2e-9 + np.arange(5) * period  # stride of a full period
        with pytest.raises(d.ValidationError):
            d.run_ramsey(window, levels_5t, half_pi_pulse, quiet)

    def test_echo_scan_at_the_aliasing_limit_accepted(self, levels_5t, quiet,
                                                      half_pi_pulse):
        # at tau1 = 110 us one float step of the delays is 1.5e-8 of the
        # scan step, so rounding alone lifts the step over the limit
        larmor = levels_5t.electron_splitting
        tau1 = 110e-6
        scan = d.ramsey_window_plan([tau1], larmor, periods=2.0,
                                    points_per_period=8)[0]
        d.run_echo(tau1, scan, levels_5t, half_pi_pulse, quiet)
        over = tau1 + np.arange(5) * 1.01 * (TWO_PI / larmor) / 8.0
        with pytest.raises(d.ValidationError, match="alias"):
            d.run_echo(tau1, over, levels_5t, half_pi_pulse, quiet)

    def test_unordered_delays_rejected(self, levels_5t, quiet,
                                       half_pi_pulse):
        with pytest.raises(d.ValidationError):
            d.run_ramsey(np.array([3e-9, 2e-9]), levels_5t, half_pi_pulse,
                         quiet)

    def test_echo_tau1_inside_pulse_window_rejected(self, levels_5t, quiet,
                                                    half_pi_pulse):
        w = half_pi_pulse.half_window
        scan = d.ramsey_window_plan([2e-9],
                                    levels_5t.electron_splitting)[0]
        with pytest.raises(d.ValidationError):
            d.run_echo(w, scan, levels_5t, half_pi_pulse, quiet)

    def test_unknown_ensemble_mode_rejected(self, levels_5t, quiet,
                                            half_pi_pulse):
        bath = d.BathModel.gaussian(17e-9, 1.97)
        with pytest.raises(d.ValidationError):
            d.run_ramsey(np.array([2e-9]), levels_5t, half_pi_pulse, quiet,
                         bath=bath, ensemble_mode="sampled")

    def test_window_plan_rejects_sparse_sampling(self, levels_5t):
        with pytest.raises(d.ValidationError):
            d.ramsey_window_plan([2e-9], levels_5t.electron_splitting,
                                 points_per_period=4)
