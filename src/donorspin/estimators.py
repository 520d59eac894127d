"""Closed-form estimates of the echo decoherence mechanisms.

Two mechanisms bound the achievable Hahn-echo coherence time of a
dilute donor ensemble. Instantaneous diffusion is dephasing caused by
the refocusing pulse itself flipping neighboring donors; its rate is
linear in donor density and in sin^2(theta2/2) of the refocusing
angle, and the echo decays as a plain exponential. Spectral diffusion
is dephasing from flip-flops of the dilute zinc-isotope bath; under a
Gaussian diffusion kernel the echo decays as exp(-(t/T)^3) with a rate
set by the cube root of a dipolar lattice sum.

Both estimators are pure arithmetic on material parameters, so they
run in microseconds and serve as cross-checks for the full simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOHR_MAGNETON, HBAR, VACUUM_PERMEABILITY
from .errors import LatticeSumError, ValidationError
from .lattice import zn_sites_within
from .materials import MaterialParams
from .bath import T2StarSummary, t2_star_theory

__all__ = [
    "IDEstimate",
    "SDEstimate",
    "LatticeSumResult",
    "DecoherenceBudget",
    "t2_instantaneous_diffusion",
    "dipolar_lattice_sum",
    "t2_spectral_diffusion",
    "decoherence_budget",
    "ID_VARIANTS",
]

ID_VARIANTS = ("numerator-pi", "denominator-pi")


# ---------------------------------------------------------------------------
# instantaneous diffusion


@dataclass(frozen=True)
class IDEstimate:
    """Instantaneous-diffusion coherence time and its inputs."""

    t2: float
    decay_exponent: int
    donor_density: float
    theta2: float
    variant: str

    def envelope(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if math.isinf(self.t2):
            return np.ones_like(t)
        return np.exp(-(t / self.t2) ** self.decay_exponent)


def t2_instantaneous_diffusion(material: MaterialParams, theta2: float,
                               variant: str = "numerator-pi") -> IDEstimate:
    """Echo decay time from refocusing-pulse back-action on neighbors.

    The rate is

        1/T2 = mu0 (g_e mu_B)^2 N sin^2(theta2/2) * pi**(+-1) / (9 sqrt(3) hbar)

    Circulating forms of this estimate disagree on where the factor of
    pi sits. ``numerator-pi`` (the default) multiplies by pi, matching
    the standard electron-spin-resonance result and the microsecond
    anchor values this package is tested against; ``denominator-pi``
    divides by pi instead. The two differ by exactly pi**2.
    """
    if variant not in ID_VARIANTS:
        raise ValidationError(
            f"unknown variant {variant!r}; choose from {ID_VARIANTS}")
    if not 0.0 <= theta2 <= math.pi:
        raise ValidationError(
            f"refocusing angle must lie in [0, pi], got {theta2}")
    density = material.donor_density
    base = (VACUUM_PERMEABILITY * (material.g_electron * BOHR_MAGNETON) ** 2
            * density * math.sin(theta2 / 2.0) ** 2
            / (9.0 * math.sqrt(3.0) * HBAR))
    rate = base * math.pi if variant == "numerator-pi" else base / math.pi
    t2 = math.inf if rate == 0.0 else 1.0 / rate
    return IDEstimate(t2=t2, decay_exponent=1, donor_density=density,
                      theta2=theta2, variant=variant)


# ---------------------------------------------------------------------------
# dipolar lattice sum


@dataclass(frozen=True)
class LatticeSumResult:
    """Abundance-weighted dipolar coupling sum around a bath site.

    ``sum_b_squared`` is f * (mu0^2/16 pi^2) (mu_Zn^4/hbar^2) *
    sum_j (1 - 3 cos^2 theta_j)^2 / r_j^6 in rad^2/s^2. ``converged``
    certifies the sum changed by at most 1% when the cutoff grew 25%.
    """

    sum_b_squared: float
    cutoff_radius: float
    site_count: int
    field_direction: tuple
    converged: bool
    growth_change: float


def _geometric_sum(material: MaterialParams, direction: np.ndarray,
                   cutoff: float):
    sites = zn_sites_within(material.lattice_a, material.lattice_c, cutoff)
    r = np.linalg.norm(sites, axis=1)
    cos_t = (sites @ direction) / r
    return float(np.sum((1.0 - 3.0 * cos_t ** 2) ** 2 / r ** 6)), len(sites)


def dipolar_lattice_sum(material: MaterialParams, field_direction=None,
                        cutoff: float = 1.0e-8,
                        max_cutoff: float | None = None) -> LatticeSumResult:
    """Evaluate the dipolar coupling sum over the zinc sublattice.

    The sum runs over zinc sites around a central bath site at the
    origin (excluded), with theta_j measured from the field direction,
    a 3-vector; the default is the material's transverse-field geometry
    (x, perpendicular to the c axis).

    The cutoff is grown by 25% steps until the sum is stable to 1%;
    failure to stabilize before ``max_cutoff`` (default four times the
    starting cutoff) raises :class:`LatticeSumError` carrying the
    partial sums.
    """
    if cutoff < 3.0e-9:
        raise ValidationError(
            f"cutoff {cutoff:.3e} m is too small; at least 3 nm required")
    try:
        vec = np.array([1.0, 0.0, 0.0]) if field_direction is None \
            else np.asarray(field_direction, dtype=float)
    except (TypeError, ValueError):
        vec = np.zeros(0)
    norm = np.linalg.norm(vec)
    if vec.shape != (3,) or norm == 0:
        raise ValidationError("field_direction must be a nonzero 3-vector, "
                              f"got {field_direction!r}")
    direction = vec / norm

    max_cutoff = 4.0 * cutoff if max_cutoff is None else float(max_cutoff)
    f = material.zinc67_abundance
    prefactor = (VACUUM_PERMEABILITY ** 2 / (16.0 * math.pi ** 2)
                 * material.zinc67_moment ** 4 / HBAR ** 2)

    partials: dict[float, float] = {}
    current = cutoff
    while True:
        s_here, count = _geometric_sum(material, direction, current)
        s_grown, _ = _geometric_sum(material, direction, 1.25 * current)
        partials[current] = f * prefactor * s_here
        scale = abs(s_grown) if s_grown else 1.0
        change = abs(s_grown - s_here) / scale
        if change <= 0.01:
            break
        current *= 1.25
        if current > max_cutoff:
            raise LatticeSumError(
                f"dipolar sum failed to stabilize to 1% below the "
                f"{max_cutoff:.3e} m cutoff ceiling", partials)

    return LatticeSumResult(
        sum_b_squared=f * prefactor * s_here, cutoff_radius=current,
        site_count=count, field_direction=tuple(direction), converged=True,
        growth_change=change)


# ---------------------------------------------------------------------------
# spectral diffusion


@dataclass(frozen=True)
class SDEstimate:
    """Spectral-diffusion coherence time and its inputs."""

    t2: float
    decay_exponent: int
    occupied_density: float
    sum_b_squared: float
    cutoff_radius: float
    field_direction: tuple

    def envelope(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if math.isinf(self.t2):
            return np.ones_like(t)
        return np.exp(-(t / self.t2) ** self.decay_exponent)


def t2_spectral_diffusion(material: MaterialParams,
                          lattice: LatticeSumResult | None = None,
                          field_direction=None) -> SDEstimate:
    """Echo decay time from flip-flops of the dilute zinc bath.

    With n the occupied-site density and sum_b^2 the abundance-weighted
    dipolar sum,

        1/T2 = [ (8 pi / 27 sqrt(3) hbar) mu0 mu_Zn g_e mu_B n sum_b^2 ]^(1/3)

    and the echo envelope is exp(-(t/T2)^3).
    """
    if lattice is None:
        lattice = dipolar_lattice_sum(material, field_direction)
    n = material.zinc67_abundance * material.zn_site_density
    cubed = (8.0 * math.pi / (27.0 * math.sqrt(3.0) * HBAR)
             * VACUUM_PERMEABILITY * material.zinc67_moment
             * material.g_electron * BOHR_MAGNETON
             * n * lattice.sum_b_squared)
    t2 = math.inf if cubed == 0.0 else cubed ** (-1.0 / 3.0)
    return SDEstimate(t2=t2, decay_exponent=3, occupied_density=n,
                      sum_b_squared=lattice.sum_b_squared,
                      cutoff_radius=lattice.cutoff_radius,
                      field_direction=lattice.field_direction)


# ---------------------------------------------------------------------------
# combined budget


@dataclass(frozen=True)
class DecoherenceBudget:
    """Side-by-side mechanism estimates for one material and geometry."""

    instantaneous_diffusion: IDEstimate
    spectral_diffusion: SDEstimate
    t2_star: T2StarSummary

    def combined_envelope(self, t) -> np.ndarray:
        """Echo envelope with both mechanisms active: the product
        exp(-t/T_ID) * exp(-(t/T_SD)^3)."""
        return (self.instantaneous_diffusion.envelope(t)
                * self.spectral_diffusion.envelope(t))

    def as_report(self) -> dict:
        rep = {
            "t2_id_s": self.instantaneous_diffusion.t2,
            "t2_id_exponent": self.instantaneous_diffusion.decay_exponent,
            "t2_id_theta2_rad": self.instantaneous_diffusion.theta2,
            "t2_id_variant": self.instantaneous_diffusion.variant,
            "t2_id_donor_density_m3": self.instantaneous_diffusion.donor_density,
            "t2_sd_s": self.spectral_diffusion.t2,
            "t2_sd_exponent": self.spectral_diffusion.decay_exponent,
            "t2_sd_sum_b_squared": self.spectral_diffusion.sum_b_squared,
            "t2_sd_occupied_density_m3": self.spectral_diffusion.occupied_density,
        }
        rep.update(self.t2_star.as_report())
        return rep

    def as_table(self) -> str:
        def fmt(seconds):
            if math.isinf(seconds):
                return "inf"
            for scale, unit in ((1.0, "s"), (1e-3, "ms"), (1e-6, "us"),
                                (1e-9, "ns")):
                if seconds >= scale:
                    return f"{seconds / scale:.3g} {unit}"
            return f"{seconds:.3g} s"

        rows = [
            ("mechanism", "T2", "decay exponent"),
            ("instantaneous diffusion", fmt(self.instantaneous_diffusion.t2),
             str(self.instantaneous_diffusion.decay_exponent)),
            ("spectral diffusion", fmt(self.spectral_diffusion.t2),
             str(self.spectral_diffusion.decay_exponent)),
            ("inhomogeneous (T2*)", fmt(self.t2_star.quadrature_time), "2"),
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                 for r in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


def decoherence_budget(material: MaterialParams, theta2: float = math.pi / 2,
                       field_direction=None,
                       variant: str = "numerator-pi") -> DecoherenceBudget:
    """Assemble all mechanism estimates for one configuration."""
    ide = t2_instantaneous_diffusion(material, theta2, variant)
    sde = t2_spectral_diffusion(material, field_direction=field_direction)
    return DecoherenceBudget(instantaneous_diffusion=ide,
                             spectral_diffusion=sde,
                             t2_star=t2_star_theory(material))
