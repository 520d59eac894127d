"""Wurtzite Zn sublattice geometry and sums over its sites."""

import math

import numpy as np

from .errors import ValidationError

__all__ = ["zn_sites_within", "zn_site_sum"]

# sites one sum may visit; zno-natural reaches it near a 52 nm cutoff
_MAX_SITES = 2.5e7
# sites in one block of whole column runs: 128 kB per flat array
_BLOCK_SITES = 2 ** 14


def zn_sites_within(lattice_a, lattice_c, cutoff):
    """Zn site positions within a radial cutoff of a Zn site at the origin.

    The Zn sublattice of wurtzite is hexagonal close packed: a hexagonal
    cell with basis sites (0, 0, 0) and (2/3, 1/3, 1/2) in lattice
    coordinates; the c axis is along z. Returns an iterator over blocks
    (x, y, z, r2) of flat arrays in meters, origin excluded, of whole
    runs of one basis site along (i, j) columns, about 2**14 sites each.
    x, y, z are i a1 + j a2 + k a3 + basis and r2 is (x x + z z) + y y,
    the order of operations of the whole-box enumeration in the tests,
    so the sites are its sites bit for bit."""
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    a1 = np.array([lattice_a, 0.0, 0.0])
    a2 = np.array([-lattice_a / 2.0, lattice_a * np.sqrt(3.0) / 2.0, 0.0])
    a3 = np.array([0.0, 0.0, lattice_c])
    basis = [np.zeros(3), (2.0 / 3.0) * a1 + (1.0 / 3.0) * a2 + 0.5 * a3]
    nmax_a = int(np.ceil(cutoff / (lattice_a * np.sqrt(3.0) / 2.0))) + 2
    ia = np.arange(-nmax_a, nmax_a + 1)

    def blocks(b):
        x, y = (ia[:, None] * a1[n] + ia * a2[n] + b[n] for n in range(2))
        # r2 only grows with z, so a column outside the disk has no site
        disk = x * x + y * y <= cutoff * cutoff
        x, y = x[disk], y[disk]
        half = np.sqrt(cutoff * cutoff - (x * x + y * y))

        def outside(k):  # the site at k of a nonempty run fails r2
            z = k * a3[2] + b[2]
            return (lo <= hi) & ((x * x + z * z) + y * y > cutoff * cutoff)
        # the chord's k and one more cell at each end, then each end moved
        # in to the first site that passes; r2 falls, then rises along k
        lo = np.ceil((-half - b[2]) / a3[2]) - 1.0
        hi = np.floor((half - b[2]) / a3[2]) + 1.0
        while (out := outside(lo)).any():
            lo += out
        while (out := outside(hi)).any():
            hi -= out
        # the origin's column is two runs, k < 0 and (appended) k > 0
        at = np.flatnonzero((x == 0.0) & (y == 0.0))
        x, y, lo, hi = (np.append(v, w[at]) for v, w in
                        zip((x, y, lo, hi), (x, y, np.ones_like(lo), hi)))
        hi[at] = -1.0
        count = np.maximum(hi - lo + 1.0, 0.0).astype(int)
        cuts = np.searchsorted(np.cumsum(count), np.arange(
            _BLOCK_SITES, count.sum(), _BLOCK_SITES), side="right")
        for x, y, lo, count in zip(*(np.split(v, cuts)
                                     for v in (x, y, lo, count))):
            z = (np.arange(count.sum()) - np.repeat(
                np.cumsum(count) - count - lo, count)) * a3[2] + b[2]
            x, y = np.repeat(x, count), np.repeat(y, count)
            yield x, y, z, (x * x + z * z) + y * y

    return (sites for b in basis for sites in blocks(b))


def zn_site_sum(lattice_a, lattice_c, cutoff, term):
    """Sum of ``term(x, y, z, r2)``, which maps the flat arrays of a block
    of Zn sites to one value per site, over the blocks within ``cutoff``
    of the origin; returns the sum and the number of sites. A sum that
    would visit more than 2.5e7 sites by the site density is refused
    before any site is built: the blocks bound a sum's memory, and this
    bounds its time, a few seconds at most."""
    cell_volume = math.sqrt(3.0) / 2.0 * lattice_a ** 2 * lattice_c
    expected = 2.0 / cell_volume * 4.0 / 3.0 * math.pi * cutoff ** 3
    if expected > _MAX_SITES:
        raise ValidationError(
            f"enumerating the lattice out to {cutoff:.3e} m would build "
            f"{expected:.2e} zinc sites, more than {_MAX_SITES:.1e}")
    # map lets each block go before the next one is built
    sums, counts = zip(*map(lambda s: (np.sum(term(*s)), len(s[0])),
                            zn_sites_within(lattice_a, lattice_c, cutoff)))
    return float(sum(sums)), sum(counts)
