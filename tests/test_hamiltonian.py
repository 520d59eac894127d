"""Level scheme, pulse parameterization, and the drive Hamiltonian."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import donorspin as d
from donorspin.hamiltonian import build_hamiltonian, envelope_value

TWO_PI = 2.0 * math.pi


class TestLevelScheme:
    def test_splittings_at_five_tesla(self, levels_5t):
        assert levels_5t.electron_splitting / TWO_PI == pytest.approx(
            137.86301270478745e9, rel=1e-12)
        assert levels_5t.hole_splitting / TWO_PI == pytest.approx(
            23.7936e9, rel=1e-4)

    def test_diagonal_orders_levels(self, levels_5t):
        diag = levels_5t.diagonal()
        assert diag[0] == 0.0
        assert diag[1] == pytest.approx(levels_5t.electron_splitting)
        assert diag[2] == pytest.approx(levels_5t.optical_detuning)
        assert diag[3] == pytest.approx(levels_5t.optical_detuning
                                        + levels_5t.hole_splitting)

    def test_spin_detuning_shifts_only_spin_up(self, levels_5t):
        base = levels_5t.diagonal()
        shifted = levels_5t.diagonal(spin_detuning=1e7)
        delta = shifted - base
        assert delta[0] == 0.0
        assert delta[1] == pytest.approx(1e7)
        assert delta[2] == 0.0
        assert delta[3] == 0.0

    def test_rejects_nonpositive_detuning(self, material):
        with pytest.raises(d.ValidationError):
            d.LevelScheme(electron_splitting=1e9, hole_splitting=1e8,
                          optical_detuning=0.0)


class TestPulseSpec:
    def test_energy_sets_squared_integral(self):
        pulse = d.PulseSpec(shape="gaussian", duration=1.9e-12, energy=2e-12)
        assert pulse.squared_integral == pytest.approx(
            pulse.calibration * 2e-12, rel=1e-12)

    @pytest.mark.parametrize("shape", ["gaussian", "sech2", "rectangular"])
    def test_envelope_square_integrates_to_calibrated_energy(self, shape):
        pulse = d.PulseSpec(shape=shape, duration=1.9e-12, energy=3e-12)
        w = pulse.half_window
        t = np.linspace(-w, w, 200001)
        values = np.array([envelope_value(pulse, tk) for tk in t])
        integrate = getattr(np, "trapezoid", None) or np.trapz
        integral = integrate(values**2, t)
        assert integral == pytest.approx(pulse.squared_integral, rel=1e-5)

    @pytest.mark.parametrize("shape", ["gaussian", "sech2"])
    def test_peak_rabi_is_envelope_maximum(self, shape):
        pulse = d.PulseSpec(shape=shape, duration=1.9e-12, energy=3e-12)
        assert envelope_value(pulse, pulse.arrival_time) == pytest.approx(
            pulse.peak_rabi, rel=1e-12)

    def test_shaped_window_spans_five_widths(self):
        pulse = d.PulseSpec(shape="gaussian", duration=2e-12, energy=1e-12)
        assert pulse.half_window == pytest.approx(5 * 2e-12)
        rect = d.PulseSpec(shape="rectangular", duration=2e-12, energy=1e-12)
        assert rect.half_window == pytest.approx(1e-12)

    def test_window_tracks_arrival_time(self):
        pulse = d.PulseSpec(shape="gaussian", duration=2e-12, energy=1e-12,
                            arrival_time=5e-11)
        lo, hi = pulse.window()
        assert lo == pytest.approx(5e-11 - pulse.half_window)
        assert hi == pytest.approx(5e-11 + pulse.half_window)

    def test_validation_collects_problems(self):
        with pytest.raises(d.ValidationError) as err:
            d.PulseSpec(shape="triangle", duration=-1.0, energy=-2.0)
        message = str(err.value)
        assert "shape" in message
        assert "duration" in message
        assert "energy" in message


class TestDriveHamiltonian:
    def test_hermitian_at_peak(self, levels_5t, half_pi_pulse):
        h = build_hamiltonian(levels_5t, [half_pi_pulse], 0.0)
        assert np.allclose(h, h.conj().T)

    def test_couplings_follow_weights(self, levels_5t):
        pulse = d.PulseSpec(shape="gaussian", duration=1.9e-12, energy=1e-12,
                            coupling_weights=((1.0, 0.5), (0.25, 0.0)))
        h = build_hamiltonian(levels_5t, [pulse], 0.0)
        rabi = envelope_value(pulse, 0.0)
        assert h[0, 2] == pytest.approx(-0.5 * rabi * 1.0)
        assert h[0, 3] == pytest.approx(-0.5 * rabi * 0.5)
        assert h[1, 2] == pytest.approx(-0.5 * rabi * 0.25)
        assert h[1, 3] == 0.0

    def test_no_ground_ground_or_excited_excited_coupling(self, levels_5t,
                                                          half_pi_pulse):
        h = build_hamiltonian(levels_5t, [half_pi_pulse], 0.0)
        assert h[0, 1] == 0.0
        assert h[2, 3] == 0.0

    def test_outside_window_pure_diagonal(self, levels_5t, half_pi_pulse):
        t = half_pi_pulse.half_window * 3.0
        h = build_hamiltonian(levels_5t, [half_pi_pulse], t)
        assert np.allclose(h, np.diag(np.diag(h)))


class TestEffectiveModel:
    def test_effective_rabi_oracle(self):
        # 100 GHz single-photon rate, 3.57 THz detuning, 5 T hole splitting
        rabi = TWO_PI * 100e9
        detuning = TWO_PI * 3.57e12
        hole = TWO_PI * 23.7936e9
        assert d.effective_rabi(rabi, detuning, hole) / TWO_PI == \
            pytest.approx(2.7918476862228743e9, rel=1e-4)

    def test_effective_rabi_rejects_negative_detuning(self):
        with pytest.raises(d.ValidationError):
            d.effective_rabi(1e9, -1e12, 1e9)

    def test_rotation_angle_linear_in_energy(self, levels_5t):
        p1 = d.PulseSpec(shape="gaussian", duration=1.9e-12, energy=1e-12)
        p2 = d.PulseSpec(shape="gaussian", duration=1.9e-12, energy=3e-12)
        a1 = d.pulse_rotation_angle(p1, levels_5t)
        a2 = d.pulse_rotation_angle(p2, levels_5t)
        assert a2 == pytest.approx(3 * a1, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=2 * math.pi))
    def test_energy_for_angle_roundtrip(self, angle):
        levels = d.LevelScheme(electron_splitting=TWO_PI * 137.9e9,
                               hole_splitting=TWO_PI * 23.8e9,
                               optical_detuning=TWO_PI * 3.57e12)
        template = d.PulseSpec(shape="gaussian", duration=1.9e-12,
                               energy=1e-15)
        energy = d.energy_for_rotation_angle(template, levels, angle)
        pulse = d.PulseSpec(shape="gaussian", duration=1.9e-12, energy=energy)
        assert d.pulse_rotation_angle(pulse, levels) == pytest.approx(
            angle, rel=1e-10)
