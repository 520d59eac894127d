"""Echo-decoherence estimators: back-action, flip-flops, budget."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants as sc

import donorspin as d
from donorspin.estimators import dipolar_lattice_sum

MU_0 = sc.mu_0
MU_B = sc.physical_constants["Bohr magneton"][0]
HBAR = sc.hbar


def independent_id_time(material, theta2: float, variant: str) -> float:
    """Back-action decay time recomputed from library constants."""
    base = (MU_0 * (material.g_electron * MU_B) ** 2
            * material.donor_density * math.sin(theta2 / 2.0) ** 2
            / (9.0 * math.sqrt(3.0) * HBAR))
    rate = base * math.pi if variant == "numerator-pi" else base / math.pi
    return 1.0 / rate


class TestInstantaneousDiffusion:
    def test_anchor_values(self, material):
        assert d.t2_instantaneous_diffusion(material, math.pi / 2).t2 == \
            pytest.approx(2.4950656483974337e-4, rel=1e-12)
        assert d.t2_instantaneous_diffusion(material, math.pi / 5).t2 == \
            pytest.approx(1.3064333343333551e-3, rel=1e-12)
        assert d.t2_instantaneous_diffusion(
            material, math.pi / 2, "denominator-pi").t2 == \
            pytest.approx(2.4625310904430185e-3, rel=1e-12)

    @pytest.mark.parametrize("variant", d.ID_VARIANTS)
    @pytest.mark.parametrize("theta2", [math.pi / 2, math.pi / 5, 1.0])
    def test_matches_independent_computation(self, material, theta2, variant):
        est = d.t2_instantaneous_diffusion(material, theta2, variant)
        assert est.t2 == pytest.approx(
            independent_id_time(material, theta2, variant), rel=1e-6)

    @pytest.mark.parametrize("variant", d.ID_VARIANTS)
    def test_angle_ratio(self, material, variant):
        t_half = d.t2_instantaneous_diffusion(material, math.pi / 2,
                                              variant).t2
        t_fifth = d.t2_instantaneous_diffusion(material, math.pi / 5,
                                               variant).t2
        assert t_fifth / t_half == pytest.approx(5.236067977499789, abs=1e-6)

    def test_variants_differ_by_pi_squared(self, material):
        num = d.t2_instantaneous_diffusion(material, 1.1).t2
        den = d.t2_instantaneous_diffusion(material, 1.1,
                                           "denominator-pi").t2
        assert den / num == pytest.approx(math.pi**2, rel=1e-12)

    def test_exponential_envelope(self, material):
        est = d.t2_instantaneous_diffusion(material, math.pi / 2)
        assert est.decay_exponent == 1
        t = np.array([0.0, est.t2, 3.0 * est.t2])
        assert np.allclose(est.envelope(t), np.exp(-t / est.t2))

    def test_zero_angle_means_no_decay(self, material):
        est = d.t2_instantaneous_diffusion(material, 0.0)
        assert math.isinf(est.t2)
        assert np.all(est.envelope([0.0, 1.0]) == 1.0)

    def test_validation(self, material):
        with pytest.raises(d.ValidationError):
            d.t2_instantaneous_diffusion(material, -0.1)
        with pytest.raises(d.ValidationError):
            d.t2_instantaneous_diffusion(material, math.pi + 0.1)
        with pytest.raises(d.ValidationError):
            d.t2_instantaneous_diffusion(material, 1.0, variant="pi")


class TestDipolarLatticeSum:
    def test_transverse_field_frozen(self, material):
        result = dipolar_lattice_sum(material)
        assert result.sum_b_squared == pytest.approx(148655.2329604831,
                                                     rel=1e-9)
        assert result.converged
        assert result.growth_change <= 0.01
        assert result.site_count > 100_000
        assert result.cutoff_radius >= 1e-8

    def test_prefactor_matches_independent_computation(self, material):
        result = dipolar_lattice_sum(material)
        geometric = 1.0618614122324705e58  # sum (1-3cos^2)^2/r^6, m^-6
        expected = (material.zinc67_abundance
                    * MU_0**2 / (16.0 * math.pi**2)
                    * material.zinc67_moment**4 / HBAR**2 * geometric)
        assert result.sum_b_squared == pytest.approx(expected, rel=1e-6)

    def test_axial_field_differs(self, material):
        perp = dipolar_lattice_sum(material)
        axial = dipolar_lattice_sum(material, field_direction=(0, 0, 1))
        assert axial.sum_b_squared != pytest.approx(perp.sum_b_squared,
                                                    rel=1e-3)

    def test_nonconvergence_raises_with_partials(self, material):
        sparse = material.with_(lattice_a=1.5e-9, lattice_c=2.4e-9)
        with pytest.raises(d.LatticeSumError) as info:
            dipolar_lattice_sum(sparse, cutoff=3.0e-9, max_cutoff=3.0e-9)
        assert 3.0e-9 in info.value.partial_sums

    def test_validation(self, material):
        with pytest.raises(d.ValidationError):
            dipolar_lattice_sum(material, cutoff=1e-9)
        with pytest.raises(d.ValidationError):
            dipolar_lattice_sum(material, field_direction="axial")
        with pytest.raises(d.ValidationError):
            dipolar_lattice_sum(material, field_direction=(0.0, 0.0, 0.0))


class TestSpectralDiffusion:
    def test_transverse_frozen(self, material):
        est = d.t2_spectral_diffusion(material)
        assert est.t2 == pytest.approx(1.963492672443168e-4, rel=1e-9)
        assert est.decay_exponent == 3

    def test_axial_frozen(self, material):
        est = d.t2_spectral_diffusion(material, field_direction=(0, 0, 1))
        assert est.t2 == pytest.approx(1.9009371443823257e-4, rel=1e-9)

    def test_matches_independent_cube_root(self, material):
        lattice = dipolar_lattice_sum(material)
        est = d.t2_spectral_diffusion(material, lattice=lattice)
        n = material.zinc67_abundance * material.zn_site_density
        cubed = (8.0 * math.pi / (27.0 * math.sqrt(3.0) * HBAR)
                 * MU_0 * material.zinc67_moment
                 * material.g_electron * MU_B * n * lattice.sum_b_squared)
        assert est.t2 == pytest.approx(cubed ** (-1.0 / 3.0), rel=1e-6)
        assert est.occupied_density == pytest.approx(n, rel=1e-12)

    def test_cubic_envelope(self, material):
        est = d.t2_spectral_diffusion(material)
        t = np.array([0.0, est.t2 / 2, est.t2])
        assert np.allclose(est.envelope(t), np.exp(-((t / est.t2) ** 3)))

    def test_silent_bath_is_infinite(self, material):
        est = d.t2_spectral_diffusion(material.with_(zinc67_abundance=0.0))
        assert math.isinf(est.t2)
        assert np.all(est.envelope([0.0, 1.0]) == 1.0)


class TestDecoherenceBudget:
    def test_assembly_defaults(self, material):
        budget = d.decoherence_budget(material)
        assert budget.instantaneous_diffusion.theta2 == math.pi / 2
        assert budget.instantaneous_diffusion.variant == "numerator-pi"
        assert budget.spectral_diffusion.t2 == pytest.approx(
            1.963492672443168e-4, rel=1e-9)
        assert budget.t2_star.quadrature_time == pytest.approx(
            10.579469149369482e-9, rel=1e-9)

    def test_combined_envelope_is_product(self, material):
        budget = d.decoherence_budget(material)
        t = np.linspace(0.0, 5e-4, 7)
        expected = (budget.instantaneous_diffusion.envelope(t)
                    * budget.spectral_diffusion.envelope(t))
        assert np.allclose(budget.combined_envelope(t), expected)

    def test_report_keys(self, material):
        report = d.decoherence_budget(material).as_report()
        for key in ("t2_id_s", "t2_id_exponent", "t2_id_variant",
                    "t2_sd_s", "t2_sd_exponent", "t2_sd_sum_b_squared",
                    "t2_star_quadrature_s"):
            assert key in report
        assert report["t2_id_exponent"] == 1
        assert report["t2_sd_exponent"] == 3

    def test_table_mentions_each_mechanism(self, material):
        table = d.decoherence_budget(material).as_table()
        assert "instantaneous diffusion" in table
        assert "spectral diffusion" in table
        assert "T2*" in table
        assert "us" in table and "ns" in table


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e19, max_value=1e24),
       st.floats(min_value=0.05, max_value=math.pi - 0.05))
def test_property_back_action_scaling(density, theta2):
    material = d.load_material("zno-natural").with_(donor_density=density)
    est = d.t2_instantaneous_diffusion(material, theta2)
    doubled = d.t2_instantaneous_diffusion(
        material.with_(donor_density=2.0 * density), theta2)
    assert est.t2 / doubled.t2 == pytest.approx(2.0, rel=1e-12)
    # the rate follows sin^2(theta2/2), so this product is invariant
    reference = d.t2_instantaneous_diffusion(material, math.pi / 2)
    assert est.t2 * math.sin(theta2 / 2.0) ** 2 == pytest.approx(
        reference.t2 * 0.5, rel=1e-9)
