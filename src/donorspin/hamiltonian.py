"""Four-level optical Hamiltonian for a donor spin with a bound-exciton branch.

Basis ordering used everywhere in the package:

    0: ground electron spin down
    1: ground electron spin up        (raised by the electron splitting)
    2: lower bound-exciton level      (at the optical detuning)
    3: upper bound-exciton level      (raised further by the hole splitting)

In the frame rotating at the control-laser frequency the Hamiltonian is

    H(t)/hbar = diag(0, w_e, D, D + w_h)  -  (Omega_ij(t)/2) |i><j| + h.c.

with couplings only between ground and excited states. A two-photon
Raman process through both excited levels drives the ground spin with
the effective rate

    Omega_eff(t) = (Omega_R(t)^2 / 2) * (1/D + 1/(D + w_h))

valid far from resonance. All frequencies are angular (rad/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import zeeman_splitting
from .errors import ValidationError

__all__ = [
    "GROUND_DOWN",
    "GROUND_UP",
    "EXCITED_LOWER",
    "EXCITED_UPPER",
    "LevelScheme",
    "PulseSpec",
    "envelope_value",
    "energy_for_rotation_angle",
]

GROUND_DOWN, GROUND_UP, EXCITED_LOWER, EXCITED_UPPER = 0, 1, 2, 3

_SHAPES = ("gaussian", "sech2", "rectangular")

# intensity-envelope FWHM of sech^2 in units of its time constant
_SECH_FWHM = 2.0 * math.acosh(math.sqrt(2.0))
# integral of exp(-4 ln2 u^2) over u, i.e. of a unit-FWHM gaussian intensity
_GAUSS_NORM = math.sqrt(math.pi / (4.0 * math.log(2.0)))


@dataclass(frozen=True)
class LevelScheme:
    """Diagonal of the rotating-frame Hamiltonian, rad/s.

    ``optical_detuning`` is the red detuning of the control laser from
    the transition between states 0 and 2 and must be positive here;
    resonant driving is handled by the pumping code, not this class.
    """

    electron_splitting: float
    hole_splitting: float
    optical_detuning: float

    def __post_init__(self):
        if self.electron_splitting < 0 or self.hole_splitting < 0:
            raise ValidationError("level splittings must be non-negative")
        if self.optical_detuning <= 0:
            raise ValidationError(
                f"optical detuning must be positive, got {self.optical_detuning} rad/s"
            )

    @classmethod
    def from_material(cls, material, field_config, optical_detuning):
        """Build the diagonal from g factors and the applied field."""
        magnitude = getattr(field_config, "magnitude", field_config)
        return cls(
            electron_splitting=zeeman_splitting(material.g_electron, magnitude),
            hole_splitting=zeeman_splitting(material.g_hole, magnitude),
            optical_detuning=optical_detuning,
        )

    def diagonal(self, spin_detuning: float = 0.0) -> np.ndarray:
        """Diagonal entries; ``spin_detuning`` shifts the spin-up level.

        A frozen Overhauser field enters exactly this way.
        """
        return np.array(
            [
                0.0,
                self.electron_splitting + spin_detuning,
                self.optical_detuning,
                self.optical_detuning + self.hole_splitting,
            ]
        )


@dataclass(frozen=True)
class PulseSpec:
    """One control pulse.

    ``duration`` is the full width at half maximum of the intensity
    envelope (total length for a rectangular pulse). ``calibration``
    converts pulse energy to integrated squared Rabi rate:

        integral Omega_R(t)^2 dt = calibration * energy

    so ``calibration`` has units rad^2 s^-1 J^-1. ``coupling_weights``
    scales the four optical couplings; the default drives all four
    equally (balanced polarization).
    """

    shape: str
    duration: float
    energy: float
    arrival_time: float = 0.0
    calibration: float = 3.5e23
    coupling_weights: tuple = ((1.0, 1.0), (1.0, 1.0))

    def __post_init__(self):
        problems = []
        if self.shape not in _SHAPES:
            problems.append(
                f"unknown pulse shape {self.shape!r}; choose from {_SHAPES}")
        if self.duration <= 0:
            problems.append(
                f"pulse duration must be positive, got {self.duration}")
        if self.energy < 0:
            problems.append(
                f"pulse energy must be non-negative, got {self.energy}")
        if self.calibration <= 0:
            problems.append("calibration must be positive")
        w = np.asarray(self.coupling_weights, dtype=complex)
        if w.shape != (2, 2):
            problems.append("coupling_weights must be a 2x2 array "
                            "(ground index by excited index)")
        if problems:
            raise ValidationError("invalid pulse: " + "; ".join(problems),
                                  problems)
        object.__setattr__(self, "coupling_weights", tuple(map(tuple, w)))

    @property
    def squared_integral(self) -> float:
        """integral of Omega_R^2 over the pulse, rad^2/s."""
        return self.calibration * self.energy

    @property
    def peak_rabi(self) -> float:
        """Peak Rabi rate, rad/s."""
        q = self.squared_integral
        if self.shape == "gaussian":
            return math.sqrt(q / (self.duration * _GAUSS_NORM))
        if self.shape == "sech2":
            tau = self.duration / _SECH_FWHM
            return math.sqrt(q / (2.0 * tau))
        return math.sqrt(q / self.duration)

    @property
    def half_window(self) -> float:
        """Half width of the active support around the arrival time."""
        if self.shape == "rectangular":
            return self.duration / 2.0
        return 5.0 * self.duration

    def window(self) -> tuple[float, float]:
        return (self.arrival_time - self.half_window,
                self.arrival_time + self.half_window)


def envelope_value(pulse: PulseSpec, t) -> np.ndarray:
    """Instantaneous Rabi rate Omega_R(t) in rad/s.

    Shaped pulses are truncated beyond five FWHM from the arrival time;
    the truncation changes the pulse energy by less than one part in
    1e6 for both shapes.
    """
    t = np.asarray(t, dtype=float)
    u = t - pulse.arrival_time
    peak = pulse.peak_rabi
    if pulse.shape == "gaussian":
        out = peak * np.exp(-2.0 * math.log(2.0) * (u / pulse.duration) ** 2)
    elif pulse.shape == "sech2":
        tau = pulse.duration / _SECH_FWHM
        out = peak / np.cosh(u / tau)
    else:
        return np.where(np.abs(u) <= pulse.duration / 2.0, peak, 0.0)
    return np.where(np.abs(u) <= pulse.half_window, out, 0.0)


def energy_for_rotation_angle(pulse: PulseSpec, levels: LevelScheme,
                              angle: float) -> float:
    """Pulse energy that realizes a requested ground-spin rotation.

    In the far-detuned two-level reduction the rotation angle is the
    time integral of the effective Rabi rate,

        theta = (calibration * energy / 2) * (1/D + 1/(D + w_h)),

    because the envelope integral of Omega_R^2 is calibrated to the
    pulse energy; the angle is linear in the energy, so this inverts it.
    """
    if angle < 0:
        raise ValidationError("rotation angle must be non-negative")
    paths = (1.0 / levels.optical_detuning
             + 1.0 / (levels.optical_detuning + levels.hole_splitting))
    scale = pulse.calibration * paths  # underflows for absurd inputs
    return 2.0 * angle / scale if scale > 0 else math.inf
