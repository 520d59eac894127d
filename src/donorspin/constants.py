"""Physical constants and elementary conversions.

Conventions used throughout the package:

* times in seconds, magnetic fields in tesla, pulse energies in joules
* level splittings and Rabi couplings are angular frequencies in rad/s
  with hbar already divided out
* g factors are positive magnitudes
"""

import math

__all__ = [
    "BOHR_MAGNETON",
    "NUCLEAR_MAGNETON",
    "VACUUM_PERMEABILITY",
    "HBAR",
    "zeeman_splitting",
    "density_at_origin",
]

# CODATA 2018 exact / recommended values
BOHR_MAGNETON = 9.2740100783e-24  # J/T
NUCLEAR_MAGNETON = 5.0507837461e-27  # J/T
VACUUM_PERMEABILITY = 1.25663706212e-6  # T m / A
HBAR = 1.054571817e-34  # J s

def zeeman_splitting(g_factor: float, field: float) -> float:
    """Spin splitting g * mu_B * B as an angular frequency in rad/s."""
    if g_factor < 0:
        raise ValueError(f"g factor must be non-negative, got {g_factor}")
    if field < 0:
        raise ValueError(f"field magnitude must be non-negative, got {field} T")
    return g_factor * BOHR_MAGNETON * field / HBAR


def density_at_origin(bohr_radius: float) -> float:
    """Probability density 1 / (pi a^3) of a 1s envelope at its center.

    The envelope is normalized, so the value has units m^-3.
    """
    if bohr_radius <= 0:
        raise ValueError(f"Bohr radius must be positive, got {bohr_radius} m")
    return 1.0 / (math.pi * bohr_radius**3)
