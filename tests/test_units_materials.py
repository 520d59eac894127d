"""Constants, unit parsing, material profiles, and the site lattice."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import donorspin as d
from donorspin import lattice
from donorspin.lattice import zn_sites_within
from donorspin.units import known_units, parse_quantity
from reference import zeeman_frequency_hz


class TestConstants:
    def test_electron_larmor_at_five_tesla(self):
        # g mu_B B / h for g = 1.97, B = 5 T
        assert zeeman_frequency_hz(1.97, 5.0) == pytest.approx(
            137.86301270478745e9, rel=1e-12)

    def test_hole_larmor_at_five_tesla(self):
        assert zeeman_frequency_hz(0.34, 5.0) == pytest.approx(
            23.7936e9, rel=1e-4)

    def test_angular_vs_ordinary(self):
        assert d.zeeman_splitting(1.97, 5.0) == pytest.approx(
            2 * math.pi * zeeman_frequency_hz(1.97, 5.0), rel=1e-14)

    def test_envelope_density_at_origin(self):
        # 1 / (pi a^3) at a = 1.7 nm
        assert d.density_at_origin(1.7e-9) == pytest.approx(
            6.478931125255256e25, rel=1e-12)


class TestUnits:
    @pytest.mark.parametrize("text,dimension,expected", [
        ("5 T", "field", 5.0),
        ("1.9 ps", "time", 1.9e-12),
        ("137.9 GHz", "frequency", 137.9e9),
        ("0.1 nJ", "energy", 1e-10),
        ("1e16 cm^-3", "density", 1e22),
        ("2.24 mu_N", "moment", 2.24 * d.NUCLEAR_MAGNETON),
        ("90 deg", "angle", math.pi / 2),
        ("10 1/ns", "rate", 1e10),
        ("1.7 nm", "length", 1.7e-9),
    ])
    def test_parses_si_value(self, text, dimension, expected):
        assert parse_quantity(text, dimension) == pytest.approx(
            expected, rel=1e-12)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(d.ValidationError) as err:
            parse_quantity("5 T", "time", key="pulse.duration")
        assert "pulse.duration" in str(err.value)
        assert "time" in str(err.value)

    def test_rejects_bare_number_for_dimensioned(self):
        with pytest.raises(d.ValidationError):
            parse_quantity(5.0, "field")

    def test_accepts_bare_number_for_dimensionless(self):
        assert parse_quantity(0.25, "dimensionless") == 0.25

    def test_unknown_unit_lists_known(self):
        with pytest.raises(d.ValidationError) as err:
            parse_quantity("5 parsec", "length")
        assert "nm" in str(err.value)

    def test_known_units_nonempty(self):
        for dimension in ("time", "frequency", "field", "energy", "length"):
            assert known_units(dimension)


class TestMaterials:
    def test_bundled_profile(self, material):
        assert material.g_electron == pytest.approx(1.97)
        assert material.g_hole == pytest.approx(0.34)
        assert material.zinc67_abundance == pytest.approx(0.041)
        assert material.bohr_radius == pytest.approx(1.7e-9)
        assert material.donor_density == pytest.approx(1e22)

    def test_zn_site_density(self, material):
        # 4 sites per hexagonal cell of base a^2 sqrt(3) and height c
        expected = 4.0 / (math.sqrt(3.0) * material.lattice_a**2
                          * material.lattice_c)
        assert material.zn_site_density == pytest.approx(expected, rel=1e-12)
        assert material.zn_site_density == pytest.approx(
            4.1965743197692245e28, rel=1e-12)

    def test_with_changes(self, material):
        changed = material.with_(donor_density=2e22)
        assert changed.donor_density == 2e22
        assert material.donor_density == 1e22
        assert changed.g_electron == material.g_electron

    def test_missing_profile_errors(self):
        with pytest.raises((d.ValidationError, OSError)):
            d.load_material("no-such-material")

    def test_bundled_listing(self):
        assert "zno-natural" in d.bundled_materials()

    def test_field_direction_normalized(self):
        config = d.FieldConfig(2.0, (0.0, 3.0, 4.0))
        assert np.allclose(config.orientation, (0.0, 0.6, 0.8))

    def test_zero_orientation_rejected(self):
        with pytest.raises(d.ValidationError):
            d.FieldConfig(1.0, (0.0, 0.0, 0.0))


def full_box_zn_sites_within(lattice_a, lattice_c, cutoff):
    """Reference enumeration: every cell of the oblique box that covers
    the sphere, then the radial filter."""
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    a1 = np.array([lattice_a, 0.0, 0.0])
    a2 = np.array([-lattice_a / 2.0, lattice_a * np.sqrt(3.0) / 2.0, 0.0])
    a3 = np.array([0.0, 0.0, lattice_c])
    basis = [np.zeros(3), (2.0 / 3.0) * a1 + (1.0 / 3.0) * a2 + 0.5 * a3]

    # enough whole cells to cover the cutoff sphere in the oblique frame
    nmax_a = int(np.ceil(cutoff / (lattice_a * np.sqrt(3.0) / 2.0))) + 2
    nmax_c = int(np.ceil(cutoff / lattice_c)) + 2
    ia = np.arange(-nmax_a, nmax_a + 1)
    ic = np.arange(-nmax_c, nmax_c + 1)
    i, j, k = np.meshgrid(ia, ia, ic, indexing="ij")
    cells = (i[..., None] * a1 + j[..., None] * a2 + k[..., None] * a3).reshape(-1, 3)

    pts = np.concatenate([cells + b for b in basis])
    # written out in the package's association: einsum's depends on the
    # numpy build
    x, y, z = pts.T
    r2 = (x * x + z * z) + y * y
    return pts[(r2 <= cutoff * cutoff) & (r2 > (1e-6 * lattice_a) ** 2)]


_SHIPPED = d.load_material("zno-natural")
# the whole-box reference needs 500 MB at 25 nm on the shipped lattice,
# so that lattice is checked to 15 nm (past the default sum's 12.5 nm)
_LATTICE_CASES = (
    [((_SHIPPED.lattice_a, _SHIPPED.lattice_c), r)
     for r in [*np.linspace(3e-9, 15e-9, 13), 1.25e-8]]
    + [(pair, r) for pair in ((1.5e-9, 2.4e-9), (8.0e-10, 1.3e-9))
       for r in np.linspace(3e-9, 25e-9, 23)])


def stacked(blocks):
    """The (n, 3) positions of a list of ``(x, y, z, r2)`` blocks."""
    return np.concatenate([np.column_stack(block[:3]) for block in blocks])


def all_sites_within(lattice_a, lattice_c, cutoff):
    return stacked(zn_sites_within(lattice_a, lattice_c, cutoff))


def row_sorted(sites):
    return sites[np.lexsort(sites.T[::-1])]


class TestLattice:
    @pytest.mark.parametrize("constants,cutoff", _LATTICE_CASES)
    def test_same_bytes_as_the_whole_box(self, constants, cutoff):
        expected = row_sorted(full_box_zn_sites_within(*constants, cutoff))
        sites = row_sorted(all_sites_within(*constants, cutoff))
        assert sites.shape == expected.shape
        assert sites.tobytes() == expected.tobytes()

    def test_blocks_hold_every_site_once(self, material, monkeypatch):
        a, c = material.lattice_a, material.lattice_c
        expected = full_box_zn_sites_within(a, c, 5e-9)
        monkeypatch.setattr(lattice, "_BLOCK_SITES", 2_000)
        blocks = list(zn_sites_within(a, c, 5e-9))
        assert len(blocks) > 10
        # whole column runs, each at most 2 R / c + 1 sites long
        assert max(len(x) for x, _, _, _ in blocks) <= 2_000 + 2 * 5e-9 / c
        for x, y, z, r2 in blocks:
            assert np.array_equal(r2, (x * x + z * z) + y * y)
        sites = stacked(blocks)
        assert np.array_equal(np.unique(sites, axis=0),
                              np.unique(expected, axis=0))
        assert len(sites) == len(expected)
        total, count = lattice.zn_site_sum(a, c, 5e-9,
                                           lambda x, y, z, r2: r2)
        assert count == len(expected)
        assert total == pytest.approx(float(np.sum(expected * expected)),
                                      rel=1e-12)

    @pytest.mark.parametrize("lattice_sum,cutoff", [
        ("dipolar", 1e-8), ("dipolar", 2e-8),
        ("lattice-sum", None), ("lattice-sum", 3e-8)])
    def test_sum_peak_memory_is_under_8_mb(self, material, lattice_sum,
                                            cutoff):
        # one block of flat arrays at a time, whatever the cutoff
        if lattice_sum == "dipolar":
            run = lambda: d.dipolar_lattice_sum(material, cutoff=cutoff)
        else:
            run = lambda: d.zn_dispersion(material, lattice_sum, cutoff)
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_counts_grow_with_cutoff(self, material):
        a, c = material.lattice_a, material.lattice_c
        small = all_sites_within(a, c, 3 * a)
        large = all_sites_within(a, c, 6 * a)
        assert len(large) > len(small) > 0

    def test_origin_excluded_by_default(self, material):
        a, c = material.lattice_a, material.lattice_c
        sites = all_sites_within(a, c, 3 * a)
        radii = np.linalg.norm(sites, axis=1)
        assert radii.min() > 0.0

    def test_density_matches_analytic(self, material):
        a, c = material.lattice_a, material.lattice_c
        cutoff = 8 * a
        sites = all_sites_within(a, c, cutoff)
        volume = 4.0 / 3.0 * math.pi * cutoff**3
        # the origin is a site too
        assert (len(sites) + 1) / volume == pytest.approx(
            material.zn_site_density, rel=0.05)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=2.0, max_value=7.0))
    def test_all_sites_inside_cutoff(self, multiple):
        a, c = 3.25e-10, 5.21e-10
        cutoff = multiple * a
        sites = all_sites_within(a, c, cutoff)
        assert np.all(np.linalg.norm(sites, axis=1) <= cutoff + 1e-15)
