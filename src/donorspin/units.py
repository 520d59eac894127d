"""Parsing of quantity strings like ``"1.9 ps"`` into SI values.

Configuration documents and material profiles attach an explicit unit
to every physical value. A quantity is written as a string with a
number followed by a unit token; dimensionless values may be written as
bare numbers. Frequencies are ordinary frequencies (Hz); conversion to
angular frequencies happens explicitly at the call sites that need it.
"""

from __future__ import annotations

import math
import re

from .constants import BOHR_MAGNETON, NUCLEAR_MAGNETON
from .errors import ValidationError

__all__ = ["known_units", "parse_quantity"]

# unit token -> (dimension, scale to the SI value)
_UNITS: dict[str, tuple[str, float]] = {
    # time
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "µs": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "ps": ("time", 1e-12),
    "fs": ("time", 1e-15),
    # ordinary frequency
    "Hz": ("frequency", 1.0),
    "kHz": ("frequency", 1e3),
    "MHz": ("frequency", 1e6),
    "GHz": ("frequency", 1e9),
    "THz": ("frequency", 1e12),
    # plain rates
    "1/s": ("rate", 1.0),
    "s^-1": ("rate", 1.0),
    "1/ms": ("rate", 1e3),
    "1/us": ("rate", 1e6),
    "1/ns": ("rate", 1e9),
    # magnetic field
    "T": ("field", 1.0),
    "mT": ("field", 1e-3),
    "uT": ("field", 1e-6),
    "G": ("field", 1e-4),
    # energy
    "J": ("energy", 1.0),
    "mJ": ("energy", 1e-3),
    "uJ": ("energy", 1e-6),
    "nJ": ("energy", 1e-9),
    "pJ": ("energy", 1e-12),
    "fJ": ("energy", 1e-15),
    # length
    "m": ("length", 1.0),
    "cm": ("length", 1e-2),
    "mm": ("length", 1e-3),
    "um": ("length", 1e-6),
    "nm": ("length", 1e-9),
    "pm": ("length", 1e-12),
    "angstrom": ("length", 1e-10),
    "A": ("length", 1e-10),
    # number density
    "m^-3": ("density", 1.0),
    "1/m^3": ("density", 1.0),
    "cm^-3": ("density", 1e6),
    "1/cm^3": ("density", 1e6),
    # magnetic moment
    "J/T": ("moment", 1.0),
    "mu_N": ("moment", NUCLEAR_MAGNETON),
    "mu_B": ("moment", BOHR_MAGNETON),
    # angle
    "rad": ("angle", 1.0),
    "mrad": ("angle", 1e-3),
    "deg": ("angle", math.pi / 180.0),
    # dimensionless markers
    "": ("dimensionless", 1.0),
    "1": ("dimensionless", 1.0),
}

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def known_units(dimension: str) -> list[str]:
    return sorted(u for u, (dim, _) in _UNITS.items() if dim == dimension and u)


def parse_quantity(text, dimension: str, key: str = "value") -> float:
    """Parse a quantity string and return its value in SI base units.

    Args:
        text: a string such as ``"5 T"`` or ``"1.9 ps"``. Bare numbers
            (or int/float values) are accepted only for dimensionless
            and angle quantities.
        dimension: expected dimension name, e.g. ``"time"``.
        key: name used in error messages to identify the offending entry.

    Returns:
        The value converted to SI base units (seconds, tesla, joules,
        meters, Hz, ...).

    Raises:
        ValidationError: malformed string, unknown unit, a unit of the
            wrong dimension, or a value that is not finite.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        if dimension in ("dimensionless", "angle"):
            return _finite(float(text), text, key)
        raise ValidationError(
            f"{key}: expected a quantity string with a {dimension} unit, "
            f"got bare number {text!r}"
        )
    if not isinstance(text, str):
        raise ValidationError(f"{key}: expected a quantity string, got {text!r}")

    parts = text.strip().split(None, 1)
    if not parts:
        raise ValidationError(f"{key}: empty quantity string")
    number, unit = parts if len(parts) == 2 else (parts[0], "")
    if not _NUMBER.match(number):
        raise ValidationError(f"{key}: cannot parse number from {text!r}")
    value = float(number)

    if unit not in _UNITS:
        raise ValidationError(
            f"{key}: unknown unit {unit!r}; known {dimension} units: "
            f"{', '.join(known_units(dimension)) or '(bare number)'}"
        )
    dim, scale = _UNITS[unit]
    if dim != dimension:
        raise ValidationError(
            f"{key}: unit {unit!r} has dimension {dim}, expected {dimension}"
        )
    return _finite(value * scale, text, key)


def _finite(value: float, text, key: str) -> float:
    if not math.isfinite(value):
        raise ValidationError(f"{key}: {text!r} is not a finite quantity")
    return value
