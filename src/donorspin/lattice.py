"""Wurtzite Zn sublattice geometry and sums over its sites."""

import math

import numpy as np

from .errors import ValidationError

__all__ = ["zn_sites_within", "zn_site_sum"]

# sites one sum may visit; zno-natural reaches it near a 52 nm cutoff
_MAX_SITES = 2.5e7
# candidate sites in one block of columns; the default bath needs 950,574
_BLOCK_SITES = 2 ** 20


def check_site_count(lattice_a, lattice_c, cutoff):
    """Refuse, before any site is built, a sum out to ``cutoff`` that
    would visit more than 2.5e7 sites by the site density. The blocks
    bound a sum's memory; this bounds its time, a few seconds at most."""
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
    coordinates. Returns an iterator over (n, 3) arrays of positions in
    meters, origin excluded, one per block of whole (i, j) columns of
    about 2**20 candidate sites at most, each in (basis, i, j, k) cell
    order. The c axis is along z."""
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

    def block(bi, bj, bk):
        counts = 2 * bk + 1
        k = np.arange(counts.sum(), dtype=float) \
            - np.repeat(np.cumsum(counts) - bk - 1, counts)
        ci, cj = (np.repeat(v, counts).astype(float) for v in (bi, bj))
        cells = np.stack([ci * a1[n] + cj * a2[n] + k * a3[n]
                          for n in range(3)], axis=1)
        pts = np.concatenate([cells + b for b in basis])
        r2 = np.einsum("ij,ij->i", pts, pts)
        return np.compress((r2 <= cutoff * cutoff)
                           & (r2 > (1e-6 * lattice_a) ** 2), pts, axis=0)

    ends = np.cumsum(2 * (2 * kmax + 1))  # candidate sites up to each column
    cuts = np.searchsorted(ends, np.arange(_BLOCK_SITES, ends[-1],
                                           _BLOCK_SITES), side="right")
    return (block(*cols) for cols in zip(
        *(np.split(v, cuts) for v in (i[near], j[near], kmax))))


def zn_site_sum(lattice_a, lattice_c, cutoff, term):
    """Sum of ``term``, which maps an (n, 3) array of positions to n
    values, over the blocks of Zn sites within ``cutoff`` of the origin,
    after the 2.5e7-site cap; returns the sum and the number of sites."""
    check_site_count(lattice_a, lattice_c, cutoff)
    # map lets each block go before the next one is built
    sums, counts = zip(*map(lambda sites: (np.sum(term(sites)), len(sites)),
                            zn_sites_within(lattice_a, lattice_c, cutoff)))
    return float(sum(sums)), sum(counts)
