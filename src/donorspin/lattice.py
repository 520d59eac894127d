"""Wurtzite Zn sublattice geometry helpers."""

import math

import numpy as np

from .errors import ValidationError

__all__ = ["zn_sites_within", "check_site_count"]

# sites one enumeration may hold; zno-natural's default lattice sum needs 2.2e7
_MAX_SITES = 2.5e7


def check_site_count(lattice_a, lattice_c, cutoff):
    """Refuse an enumeration out to ``cutoff`` that would hold more than
    2.5e7 sites, judged by the site density times the sphere's volume
    before any site is built."""
    cell_volume = math.sqrt(3.0) / 2.0 * lattice_a ** 2 * lattice_c
    expected = 2.0 / cell_volume * 4.0 / 3.0 * math.pi * cutoff ** 3
    if expected > _MAX_SITES:
        raise ValidationError(
            f"enumerating the lattice out to {cutoff:.3e} m would build "
            f"{expected:.2e} zinc sites, more than {_MAX_SITES:.1e}")


def zn_sites_within(lattice_a, lattice_c, cutoff):
    """Zn site positions within a radial cutoff of a Zn site at the origin.

    The Zn sublattice of wurtzite is hexagonal close packed: a hexagonal
    cell with basis sites (0, 0, 0) and (2/3, 1/3, 1/2) in lattice
    coordinates. Returns an (n, 3) array of positions in meters, origin
    excluded, in (basis, i, j, k) cell order. The c axis is along z.
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    a1 = np.array([lattice_a, 0.0, 0.0])
    a2 = np.array([-lattice_a / 2.0, lattice_a * np.sqrt(3.0) / 2.0, 0.0])
    a3 = np.array([0.0, 0.0, lattice_c])
    basis = [np.zeros(3), (2.0 / 3.0) * a1 + (1.0 / 3.0) * a2 + 0.5 * a3]

    nmax_a = int(np.ceil(cutoff / (lattice_a * np.sqrt(3.0) / 2.0))) + 2
    nmax_c = int(np.ceil(cutoff / lattice_c)) + 2
    ia = np.arange(-nmax_a, nmax_a + 1)
    i, j = (g.ravel() for g in np.meshgrid(ia, ia, indexing="ij"))
    # of the box that covers the sphere, only the (i, j) columns in the disk,
    # each over its chord, padded by the basis offset and one cell
    rho = np.hypot(i * lattice_a - j * (lattice_a / 2.0), j * a2[1])
    near = rho <= cutoff + 2.0 * lattice_a
    gap = np.clip(rho[near] - lattice_a / np.sqrt(3.0), 0.0, cutoff)
    chord = np.sqrt(cutoff * cutoff - gap * gap)
    kmax = np.minimum(np.floor(chord / lattice_c + 0.5).astype(int) + 1, nmax_c)
    counts = 2 * kmax + 1
    k = np.arange(counts.sum(), dtype=float) \
        - np.repeat(np.cumsum(counts) - kmax - 1, counts)
    i, j = (np.repeat(v[near], counts).astype(float) for v in (i, j))
    cells = np.stack([i * a1[n] + j * a2[n] + k * a3[n] for n in range(3)],
                     axis=1)

    pts = np.concatenate([cells + b for b in basis])
    r2 = np.einsum("ij,ij->i", pts, pts)
    return np.compress((r2 <= cutoff * cutoff)
                       & (r2 > (1e-6 * lattice_a) ** 2), pts, axis=0)
