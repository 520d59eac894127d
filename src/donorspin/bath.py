"""Nuclear-spin environment of the donor electron.

Two hyperfine contributions set the quasi-static Overhauser field seen
by the electron spin. The donor's own group-III nucleus (spin 3/2 for
gallium) contributes a discrete multiplet of 2I+1 equally likely field
values proportional to its magnetic quantum number. The dilute bath of
spin-carrying zinc isotopes contributes a zero-mean Gaussian field
whose dispersion follows from the sum of the 1s envelope density
squared over occupied lattice sites.

Both pieces combine into a frozen per-donor detuning of the electron
spin splitting. Ensemble averaging over that detuning produces the
inhomogeneous dephasing envelope and hence the T2* prediction; the
model is static (each donor keeps its detuning for a whole run), with
bath dynamics delegated to the spectral-diffusion estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    BOHR_MAGNETON,
    HBAR,
    VACUUM_PERMEABILITY,
    density_at_origin,
)
from .errors import ValidationError
from .lattice import zn_sites_within
from .materials import MaterialParams

__all__ = [
    "BathModel",
    "T2StarSummary",
    "ga_field_values",
    "zn_dispersion",
    "t2_star_theory",
]

_DISPERSION_MODES = ("continuum", "lattice-sum")


def _angular_from_field(field: float, g: float) -> float:
    """Detuning (rad/s) of the electron splitting for a field shift."""
    return g * BOHR_MAGNETON * field / HBAR


def ga_field_values(material: MaterialParams) -> np.ndarray:
    """Effective-field multiplet of the donor's own nucleus, in tesla.

    One value per nuclear magnetic quantum number m = I, I-1, ..., -I:

        B_m = (2 mu0 / 3 g_e) (mu_N / I) |u|^2 |psi(0)|^2 m

    The set is symmetric about zero and sums to zero exactly.
    """
    spin = material.gallium_spin
    coeff = (2.0 * VACUUM_PERMEABILITY / (3.0 * material.g_electron)
             * (material.gallium_moment / spin)
             * material.central_cell_amplification
             * density_at_origin(material.bohr_radius))
    m_values = np.arange(spin, -spin - 0.5, -1.0)
    return coeff * m_values


def zn_dispersion(material: MaterialParams, mode: str = "continuum",
                  cutoff: float | None = None) -> float:
    """Gaussian field dispersion from the dilute zinc-isotope bath, tesla.

    The hyperfine variance involves f * sum_j |psi(R_j)|^4 over zinc
    sites. ``continuum`` replaces the sum with the analytic integral
    n_Zn / (8 pi a^3) of the hydrogenic 1s envelope; ``lattice-sum``
    accumulates the envelope density squared over explicit wurtzite
    zinc sites out to ``cutoff`` (default ten Bohr radii, at least
    five required).
    """
    if mode not in _DISPERSION_MODES:
        raise ValidationError(
            f"unknown dispersion mode {mode!r}; choose from {_DISPERSION_MODES}")
    a = material.bohr_radius
    if mode == "continuum":
        density_sq_sum = material.zn_site_density / (8.0 * math.pi * a ** 3)
    else:
        cutoff = 10.0 * a if cutoff is None else float(cutoff)
        if cutoff < 5.0 * a:
            raise ValidationError(
                f"lattice-sum cutoff {cutoff:.3e} m is below five Bohr radii "
                f"({5 * a:.3e} m); the tail would be truncated")
        sites = zn_sites_within(material.lattice_a, material.lattice_c, cutoff)
        r = np.linalg.norm(sites, axis=1)
        density_sq_sum = float(np.sum(np.exp(-4.0 * r / a))
                               / (math.pi ** 2 * a ** 6))
    spin = material.zinc67_spin
    return (VACUUM_PERMEABILITY * material.zinc67_moment / material.g_electron
            * math.sqrt(32.0 / 27.0)
            * math.sqrt((spin + 1.0) / spin)
            * material.central_cell_amplification
            * math.sqrt(material.zinc67_abundance * density_sq_sum))


@dataclass(frozen=True)
class BathModel:
    """Quasi-static Overhauser field model.

    ``ga_field_values`` is the discrete donor-nucleus multiplet and
    ``zn_dispersion`` the Gaussian bath width, both in tesla;
    ``electron_g`` converts field shifts into spin-splitting detunings.
    """

    ga_field_values: tuple
    zn_dispersion: float
    electron_g: float

    def __post_init__(self):
        values = tuple(float(v) for v in self.ga_field_values)
        object.__setattr__(self, "ga_field_values", values)
        problems = []
        if self.zn_dispersion < 0:
            problems.append("zn_dispersion must be non-negative")
        if self.electron_g <= 0:
            problems.append("electron_g must be positive")
        if problems:
            raise ValidationError("invalid bath model: " + "; ".join(problems),
                                  problems)

    # -- constructors ------------------------------------------------
    @classmethod
    def from_material(cls, material: MaterialParams, mode: str = "continuum",
                      cutoff: float | None = None) -> "BathModel":
        return cls(tuple(ga_field_values(material)),
                   zn_dispersion(material, mode, cutoff),
                   material.g_electron)

    @classmethod
    def gaussian(cls, t2_star: float, electron_g: float = 2.0) -> "BathModel":
        """Pure Gaussian bath whose dephasing fits exp(-(t/t2_star)^2).

        The envelope of a Gaussian detuning distribution of angular
        width sigma is exp(-sigma^2 t^2 / 2), so matching the fit form
        requires sigma = sqrt(2)/t2_star.
        """
        if t2_star <= 0:
            raise ValidationError(f"t2_star must be positive, got {t2_star}")
        sigma = math.sqrt(2.0) / t2_star
        field = sigma * HBAR / (electron_g * BOHR_MAGNETON)
        return cls((0.0,), field, electron_g)

    @classmethod
    def none(cls, electron_g: float = 2.0) -> "BathModel":
        return cls((0.0,), 0.0, electron_g)

    # -- derived quantities -------------------------------------------
    @property
    def ga_rms(self) -> float:
        return float(np.sqrt(np.mean(np.square(self.ga_field_values))))

    @property
    def combined_dispersion(self) -> float:
        return math.hypot(self.ga_rms, self.zn_dispersion)

    @property
    def angular_dispersion(self) -> float:
        """Gaussian detuning width in rad/s."""
        return _angular_from_field(self.zn_dispersion, self.electron_g)

    @property
    def ga_angular_values(self) -> np.ndarray:
        return np.array([_angular_from_field(v, self.electron_g)
                         for v in self.ga_field_values])

    # -- ensemble machinery -------------------------------------------
    def characteristic_function(self, t) -> np.ndarray:
        """Ensemble average of exp(-i * detuning * t).

        Separates into the Gaussian factor exp(-sigma^2 t^2 / 2) and
        the discrete-multiplet average of phase factors. Symmetric
        multiplets give a real result; the complex value is returned
        so that asymmetric custom multiplets stay correct.
        """
        t = np.asarray(t, dtype=float)
        sigma = self.angular_dispersion
        gauss = np.exp(-0.5 * (sigma * t) ** 2)
        omegas = self.ga_angular_values
        lines = np.mean(np.exp(-1j * np.multiply.outer(omegas, t)), axis=0)
        return gauss * lines

    def envelope(self, t) -> np.ndarray:
        """Real dephasing envelope (the fringe-contrast factor)."""
        return np.real(self.characteristic_function(t))

    def sample_detunings(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n frozen per-donor detunings, rad/s."""
        if n < 1:
            raise ValidationError(f"sample count must be >= 1, got {n}")
        ga = rng.choice(np.asarray(self.ga_field_values), size=n)
        zn = rng.normal(0.0, self.zn_dispersion, size=n) if self.zn_dispersion > 0 \
            else np.zeros(n)
        return _angular_from_field(ga + zn, self.electron_g)


@dataclass(frozen=True)
class T2StarSummary:
    """Inhomogeneous-dephasing figures for one material.

    ``quadrature_time`` is the headline hbar/(g mu_B Delta_B) estimate
    with the multiplet entering through its rms; ``envelope_1e_time``
    is the 1/e crossing of the exact ensemble envelope; and
    ``gaussian_fit_time`` is the value a fit of exp(-(t/T)^2) to the
    Gaussian part would report (sqrt(2) times the quadrature figure).
    All three are reported because the conventions differ by known
    factors of sqrt(2).
    """

    ga_field_values: tuple
    ga_rms: float
    zn_dispersion: float
    combined_dispersion: float
    electron_g: float
    quadrature_time: float
    envelope_1e_time: float
    gaussian_fit_time: float

    @property
    def t2_star(self) -> float:
        return self.quadrature_time

    def as_report(self) -> dict:
        report = {
            f"ga_field_value_{i}_T": v
            for i, v in enumerate(self.ga_field_values)
        }
        report.update({
            "ga_rms_T": self.ga_rms,
            "zn_dispersion_T": self.zn_dispersion,
            "combined_dispersion_T": self.combined_dispersion,
            "t2_star_quadrature_s": self.quadrature_time,
            "t2_star_envelope_1e_s": self.envelope_1e_time,
            "t2_star_gaussian_fit_s": self.gaussian_fit_time,
        })
        return report


def _envelope_1e_time(bath: BathModel, scale: float) -> float:
    """First 1/e crossing of the exact envelope, by bracketed bisection."""
    target = 1.0 / math.e
    t_hi = scale
    for _ in range(40):
        grid = np.linspace(0.0, t_hi, 4096)
        env = bath.envelope(grid)
        below = np.nonzero(env < target)[0]
        if below.size:
            hi = below[0]
            lo = hi - 1
            a, b = grid[lo], grid[hi]
            for _ in range(80):
                mid = 0.5 * (a + b)
                if float(bath.envelope(mid)) < target:
                    b = mid
                else:
                    a = mid
            return 0.5 * (a + b)
        t_hi *= 4.0
    return math.inf


def t2_star_theory(material: MaterialParams, mode: str = "continuum",
                   cutoff: float | None = None) -> T2StarSummary:
    """Predict the inhomogeneous dephasing time of a donor ensemble.

    Combines the donor-nucleus multiplet (through its rms) and the
    zinc-bath dispersion in quadrature for the headline figure, and
    also locates the 1/e time of the exact ensemble envelope. A
    magnetically silent material (no multiplet, zero abundance)
    returns infinities.
    """
    bath = BathModel.from_material(material, mode, cutoff)
    combined = bath.combined_dispersion
    if combined == 0.0:
        quad = env = fit = math.inf
    else:
        quad = HBAR / (material.g_electron * BOHR_MAGNETON * combined)
        fit = math.sqrt(2.0) * quad
        env = _envelope_1e_time(bath, 10.0 * quad)
    return T2StarSummary(
        ga_field_values=bath.ga_field_values,
        ga_rms=bath.ga_rms,
        zn_dispersion=bath.zn_dispersion,
        combined_dispersion=combined,
        electron_g=material.g_electron,
        quadrature_time=quad,
        envelope_1e_time=env,
        gaussian_fit_time=fit,
    )
