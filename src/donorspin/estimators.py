"""Closed-form estimates of the echo decoherence mechanisms.

Two mechanisms bound the achievable Hahn-echo coherence time of a
dilute donor ensemble. Instantaneous diffusion is dephasing caused by
the refocusing pulse itself flipping neighboring donors; its rate is
linear in donor density and in sin^2(theta2/2) of the refocusing
angle, and the echo decays as a plain exponential. Spectral diffusion
is dephasing from flip-flops of the dilute zinc-isotope bath; under a
Gaussian diffusion kernel the echo decays as exp(-(t/T)^3) with a rate
set by the cube root of a dipolar lattice sum.

Instantaneous diffusion is closed-form and runs in microseconds; the
spectral-diffusion lattice sum covers about 176,000 zinc sites for the
shipped material and takes about 4 ms (2-core x86, one BLAS thread).
Both cross-check the full simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOHR_MAGNETON, HBAR, VACUUM_PERMEABILITY
from .errors import NumericsError, ValidationError
from .lattice import zn_site_sum
from .materials import FieldConfig, MaterialParams
from .bath import BathModel, T2StarSummary, t2_star_theory

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
class _Decay:
    """An echo envelope exp(-(t/t2)^decay_exponent)."""

    t2: float
    decay_exponent: int

    def envelope(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if math.isinf(self.t2):
            return np.ones_like(t)
        return np.exp(-(t / self.t2) ** self.decay_exponent)


@dataclass(frozen=True)
class IDEstimate(_Decay):
    """Instantaneous-diffusion coherence time and its inputs."""

    donor_density: float
    theta2: float
    variant: str


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
    sum_j (1 - 3 cos^2 theta_j)^2 / r_j^6 in rad^2/s^2 over the
    ``site_count`` sites within the cutoff. ``growth_change`` is
    the share of the whole-lattice sum that lies beyond the cutoff, by
    the continuum tail; ``converged`` certifies it is at most 1%.
    """

    sum_b_squared: float
    site_count: int
    converged: bool
    growth_change: float


def dipolar_lattice_sum(material: MaterialParams, field_direction=None,
                        cutoff: float = 1.0e-8) -> LatticeSumResult:
    """Evaluate the dipolar coupling sum over the zinc sublattice.

    The sum runs over zinc sites around a central bath site at the
    origin (excluded) out to ``cutoff``, with theta_j measured from the
    field direction, a 3-vector; the default is the material's
    transverse-field geometry (x, perpendicular to the c axis).

    The sites beyond the cutoff are bounded by the continuum tail
    n 16 pi / (15 R^3), with n the zinc site density and 4/5 the mean
    of (1 - 3 cos^2 theta)^2 over directions (Van Vleck, Phys. Rev. 74,
    1168 (1948)). The tail only certifies the sum and is not added to
    it: a tail above 1% of the whole raises :class:`NumericsError`.
    """
    if not math.isfinite(cutoff) or cutoff < 3.0e-9:
        raise ValidationError(
            f"cutoff {cutoff:.3e} m must be finite and at least 3 nm")
    nx, ny, nz = (FieldConfig(0.0) if field_direction is None
                  else FieldConfig(0.0, field_direction)).orientation

    def term(x, y, z, r2):
        # (1 - 3 cos^2 theta)^2 / r^6 = (r^2 - 3 q^2)^2 / r^10, q = n.r
        q = nx * x + ny * y + nz * z
        return (r2 - 3.0 * q * q) ** 2 / ((r2 * r2) ** 2 * r2)

    total, count = zn_site_sum(material.lattice_a, material.lattice_c,
                               cutoff, term)
    tail = material.zn_site_density * 16.0 * math.pi / (15.0 * cutoff ** 3)
    share = tail / (total + tail)
    if share > 0.01:
        raise NumericsError(
            f"the continuum tail beyond the {cutoff:.3e} m cutoff is "
            f"{share:.2%} of the dipolar sum, more than 1%")
    prefactor = (VACUUM_PERMEABILITY ** 2 / (16.0 * math.pi ** 2)
                 * material.zinc67_moment ** 4 / HBAR ** 2)
    return LatticeSumResult(
        sum_b_squared=material.zinc67_abundance * prefactor * total,
        site_count=count, converged=True, growth_change=share)


# ---------------------------------------------------------------------------
# spectral diffusion


@dataclass(frozen=True)
class SDEstimate(_Decay):
    """Spectral-diffusion coherence time and its inputs."""

    occupied_density: float
    sum_b_squared: float


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
                      sum_b_squared=lattice.sum_b_squared)


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
                       field_direction=None, variant: str = "numerator-pi",
                       bath: BathModel | None = None) -> DecoherenceBudget:
    """Assemble all mechanism estimates for one configuration; the T2*
    row is that of ``bath``, by default the material's continuum bath."""
    ide = t2_instantaneous_diffusion(material, theta2, variant)
    sde = t2_spectral_diffusion(material, field_direction=field_direction)
    star = t2_star_theory(material) if bath is None else bath.t2_star_summary()
    return DecoherenceBudget(instantaneous_diffusion=ide,
                             spectral_diffusion=sde, t2_star=star)
