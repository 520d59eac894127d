"""Nuclear-field bath: multiplet, dispersion, ensemble statistics."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants as sc

import donorspin as d
from donorspin.bath import ga_field_values, zn_dispersion
from conftest import spike_bath

MU_0 = sc.mu_0
MU_B = sc.physical_constants["Bohr magneton"][0]
MU_N = sc.physical_constants["nuclear magneton"][0]
HBAR = sc.hbar


def independent_ga_coefficient(material) -> float:
    """Multiplet spacing recomputed from library constants.

    field per unit m = (2 mu0 / 3 g_e) (mu_I / I) * eta^2 * |psi(0)|^2
    with the hydrogenic density 1/(pi a^3) at the origin.
    """
    density = 1.0 / (math.pi * material.bohr_radius**3)
    return (2.0 * MU_0 / (3.0 * material.g_electron)
            * (material.gallium_moment / material.gallium_spin)
            * material.central_cell_amplification * density)


def independent_zn_dispersion(material) -> float:
    """Continuum bath width recomputed from library constants."""
    a = material.bohr_radius
    cell = math.sqrt(3.0) / 2.0 * material.lattice_a**2 * material.lattice_c
    site_density = 2.0 / cell
    density_sq_sum = site_density / (8.0 * math.pi * a**3)
    spin = material.zinc67_spin
    return (MU_0 * material.zinc67_moment / material.g_electron
            * math.sqrt(32.0 / 27.0) * math.sqrt((spin + 1.0) / spin)
            * material.central_cell_amplification
            * math.sqrt(material.zinc67_abundance * density_sq_sum))


class TestDonorNucleusMultiplet:
    def test_matches_independent_computation(self, material):
        coeff = independent_ga_coefficient(material)
        expected = coeff * np.array([1.5, 0.5, -0.5, -1.5])
        assert np.allclose(ga_field_values(material), expected, rtol=1e-6)

    def test_symmetric_and_traceless(self, material):
        values = ga_field_values(material)
        assert len(values) == 4
        assert np.allclose(values, -values[::-1])
        assert abs(values.sum()) < 1e-20

    def test_rms_magnitude(self, material):
        values = ga_field_values(material)
        rms = float(np.sqrt(np.mean(values**2)))
        assert rms == pytest.approx(2.602e-4, rel=1e-3)


class TestZincDispersion:
    def test_continuum_frozen_value(self, material):
        assert zn_dispersion(material) == pytest.approx(
            4.795512952291187e-4, rel=1e-12)

    def test_continuum_matches_independent_computation(self, material):
        assert zn_dispersion(material) == pytest.approx(
            independent_zn_dispersion(material), rel=1e-6)

    def test_lattice_sum_close_to_continuum(self, material):
        lattice = zn_dispersion(material, mode="lattice-sum")
        continuum = zn_dispersion(material, mode="continuum")
        assert abs(lattice / continuum - 1.0) < 0.02

    def test_lattice_sum_cutoff_guard(self, material):
        with pytest.raises(d.ValidationError):
            zn_dispersion(material, mode="lattice-sum",
                          cutoff=3.0 * material.bohr_radius)

    def test_wide_lattice_sum_memory_stays_bounded(self, material):
        # 30 nm holds 4.7e6 sites; each block it is summed in is no
        # larger than the one block of the default 17 nm sum
        peaks = []
        for cutoff in (None, 30e-9):
            tracemalloc.start()
            try:
                value = zn_dispersion(material, "lattice-sum", cutoff)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert value == pytest.approx(4.770947468075209e-4, rel=1e-12)
        assert peaks[1] < peaks[0] + 20e6

    def test_unknown_mode_rejected(self, material):
        with pytest.raises(d.ValidationError):
            zn_dispersion(material, mode="exact")

    def test_scales_as_sqrt_abundance(self, material):
        base = zn_dispersion(material)
        for fraction in (0.01, 0.1, 1.0):
            scaled = material.with_(zinc67_abundance=fraction)
            assert zn_dispersion(scaled) == pytest.approx(
                base * math.sqrt(fraction / material.zinc67_abundance),
                rel=1e-12)


class TestBathModel:
    def test_combined_dispersion_frozen(self, material):
        bath = d.BathModel.from_material(material)
        assert bath.combined_dispersion == pytest.approx(
            5.456051922943948e-4, rel=1e-12)
        assert bath.combined_dispersion == pytest.approx(
            math.hypot(bath.ga_rms, bath.zn_dispersion), rel=1e-15)

    def test_validation(self):
        with pytest.raises(d.ValidationError):
            d.BathModel(ga_field_values=(0.0,), zn_dispersion=-1e-4,
                        electron_g=2.0)
        with pytest.raises(d.ValidationError):
            d.BathModel(ga_field_values=(0.0,), zn_dispersion=1e-4,
                        electron_g=0.0)

    def test_silent_bath_constructor(self):
        bath = d.BathModel(ga_field_values=(0.0,), zn_dispersion=0.0,
                           electron_g=2.0)
        t = np.linspace(0.0, 1e-6, 11)
        assert np.allclose(bath.characteristic_function(t), 1.0)

    def test_gaussian_constructor_identity(self):
        t2 = 17e-9
        bath = d.BathModel.gaussian(t2)
        t = np.linspace(0.0, 60e-9, 301)
        assert np.allclose(bath.characteristic_function(t),
                           np.exp(-((t / t2) ** 2)), atol=1e-13)
        assert float(bath.envelope(t2)) == pytest.approx(1.0 / math.e,
                                                         rel=1e-12)

    def test_gaussian_constructor_rejects_nonpositive(self):
        with pytest.raises(d.ValidationError):
            d.BathModel.gaussian(0.0)

    def test_two_line_multiplet_gives_cosine(self):
        delta = 1e-4  # tesla
        g = 1.97
        bath = d.BathModel(ga_field_values=(delta, -delta),
                           zn_dispersion=0.0, electron_g=g)
        omega = g * MU_B * delta / HBAR
        t = np.linspace(0.0, 50e-9, 200)
        assert np.allclose(bath.characteristic_function(t),
                           np.cos(omega * t), atol=1e-9)

    def test_spike_bath_is_pure_phase(self):
        delta = 2.0 * math.pi * 30e6
        bath = spike_bath(delta, 1.97)
        t = np.linspace(0.0, 1e-6, 50)
        cf = bath.characteristic_function(t)
        assert np.allclose(np.abs(cf), 1.0, atol=1e-9)
        assert np.allclose(np.angle(cf[1:]), -((delta * t[1:] + math.pi)
                                               % (2 * math.pi) - math.pi),
                           atol=1e-6)


class TestSampling:
    def test_moments_match_model(self, material):
        bath = d.BathModel.from_material(material)
        rng = np.random.default_rng(1)
        det = bath.sample_detunings(rng, 200_000)
        sigma = bath.electron_g * MU_B * bath.combined_dispersion / HBAR
        assert abs(np.mean(det)) < 5.0 * sigma / math.sqrt(det.size)
        assert np.std(det) == pytest.approx(sigma, rel=0.01)

    def test_rejects_empty_draw(self, material):
        bath = d.BathModel.from_material(material)
        with pytest.raises(d.ValidationError):
            bath.sample_detunings(np.random.default_rng(0), 0)


class TestDephasingPrediction:
    def test_quadrature_time_frozen(self, material):
        summary = d.t2_star_theory(material)
        assert summary.quadrature_time == pytest.approx(
            10.579469149369482e-9, rel=1e-12)
        assert summary.t2_star == summary.quadrature_time

    def test_quadrature_time_independent(self, material):
        coeff = independent_ga_coefficient(material)
        ga_rms = coeff * math.sqrt((1.5**2 + 0.5**2) / 2.0)
        combined = math.hypot(ga_rms, independent_zn_dispersion(material))
        expected = HBAR / (material.g_electron * MU_B * combined)
        assert d.t2_star_theory(material).quadrature_time == pytest.approx(
            expected, rel=1e-6)

    def test_envelope_crossing_and_fit_conventions(self, material):
        summary = d.t2_star_theory(material)
        assert summary.gaussian_fit_time == pytest.approx(
            math.sqrt(2.0) * summary.quadrature_time, rel=1e-12)
        assert summary.envelope_1e_time == pytest.approx(14.867e-9, rel=1e-3)
        # the multiplet decays more slowly than a Gaussian of equal rms,
        # so the exact crossing sits beyond the quadrature figure
        assert summary.envelope_1e_time > summary.quadrature_time

    def test_envelope_crossing_is_a_crossing(self, material):
        summary = d.t2_star_theory(material)
        bath = d.BathModel.from_material(material)
        assert float(bath.envelope(summary.envelope_1e_time)) == \
            pytest.approx(1.0 / math.e, rel=1e-9)

    def test_silent_material_reports_infinity(self, material):
        silent = material.with_(zinc67_abundance=0.0, gallium_moment=0.0)
        summary = d.t2_star_theory(silent)
        assert math.isinf(summary.quadrature_time)
        assert math.isinf(summary.envelope_1e_time)

    def test_report_keys(self, material):
        report = d.t2_star_theory(material).as_report()
        for key in ("ga_rms_T", "zn_dispersion_T", "combined_dispersion_T",
                    "t2_star_quadrature_s", "t2_star_envelope_1e_s",
                    "t2_star_gaussian_fit_s"):
            assert key in report
        assert report["ga_field_value_0_T"] == pytest.approx(
            independent_ga_coefficient(material) * 1.5, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e-3),
       st.floats(min_value=0.0, max_value=1e-3),
       st.floats(min_value=0.0, max_value=1e-7))
def test_property_symmetric_multiplet_envelope(spacing, width, t):
    bath = d.BathModel(ga_field_values=(1.5 * spacing, 0.5 * spacing,
                                        -0.5 * spacing, -1.5 * spacing),
                       zn_dispersion=width, electron_g=1.97)
    cf = complex(bath.characteristic_function(t))
    assert abs(cf) <= 1.0 + 1e-12
    assert abs(cf.imag) < 1e-12
    flipped = d.BathModel(
        ga_field_values=tuple(-v for v in bath.ga_field_values),
        zn_dispersion=width, electron_g=1.97)
    assert complex(flipped.characteristic_function(t)) == pytest.approx(
        cf, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1e-3))
def test_property_envelope_at_origin_is_one(t2_star):
    bath = d.BathModel.gaussian(t2_star)
    assert float(bath.envelope(0.0)) == pytest.approx(1.0, abs=1e-15)
