"""Wurtzite Zn sublattice geometry helpers."""

import numpy as np

__all__ = ["zn_sites_within"]


def zn_sites_within(lattice_a, lattice_c, cutoff):
    """Zn site positions within a radial cutoff of a Zn site at the origin.

    The Zn sublattice of wurtzite is hexagonal close packed: a hexagonal
    cell with basis sites (0, 0, 0) and (2/3, 1/3, 1/2) in lattice
    coordinates. Returns an (n, 3) array of positions in meters, origin
    excluded. The c axis is along z.
    """
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
    r2 = np.einsum("ij,ij->i", pts, pts)
    return pts[(r2 <= cutoff * cutoff) & (r2 > (1e-6 * lattice_a) ** 2)]
