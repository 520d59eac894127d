"""Independent routes that the tests check the package against.

No shipped command runs these. Each one reaches its answer another way
than the code it checks, so that agreement between the two means
something:

* ``lindblad_rhs`` writes the master equation in matrix form, a
  commutator plus one sandwich per jump operator, where the package
  sums Kronecker-product superoperators (``lindblad.liouvillian``).
* ``build_hamiltonian`` sets the 4x4 Hamiltonian element by element
  from the envelope, where the package splits the generator into the
  constant, drive and dephasing parts of ``pulse_liouvillian_parts``.
* ``integrate_master`` and ``evolve`` integrate the state with scipy's
  DOP853 on that matrix-form right-hand side, where the package steps
  the propagator with midpoint exponentials in a real basis. ``evolve``
  crosses the silent gaps between pulses with the matrix exponential of
  the whole drive-free generator, which ``drive_free_generator`` builds
  column by column from that right-hand side, where the package splits
  each gap into populations and per-coherence factors
  (``SilencePropagator.split_by_detuning``).
* ``effective_rabi`` and ``pulse_rotation_angle`` give the closed-form
  angle of the far-detuned two-level reduction, which
  ``extracted_rotation_angle`` reads from the full four-level window;
  ``zeeman_frequency_hz`` states a splitting as the published anchors
  do, in Hz.
* ``trace_error``, ``hermiticity_error``, ``min_eigenvalue`` and
  ``purity`` read the invariants of a 4x4 density matrix that the tests
  hold every propagated state to; no package code checks a state this
  way.
* ``fringe_grid_costs`` prices the free fringe fit's frequency grid
  with one ``lstsq`` per frequency, where ``fitting._grid_costs``
  projects onto batched SVDs of many designs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from donorspin import (
    EXCITED_LOWER,
    EXCITED_UPPER,
    GROUND_DOWN,
    GROUND_UP,
    DensityMatrix,
    DissipatorSet,
    IntegrationFailure,
    IntegratorConfig,
    ValidationError,
    pulse_window_propagator,
    zeeman_splitting,
)
from donorspin.fitting import _linear_fringe
from donorspin.hamiltonian import envelope_value


def zeeman_frequency_hz(g_factor, field):
    """The spin splitting g * mu_B * B / h in Hz."""
    return zeeman_splitting(g_factor, field) / (2.0 * math.pi)


def build_hamiltonian(levels, pulses, t, spin_detuning=0.0):
    """Rotating-frame Hamiltonian at time ``t``, rad/s; the envelopes of
    ``pulses`` add."""
    h = np.diag(levels.diagonal(spin_detuning)).astype(complex)
    for pulse in pulses:
        omega = float(envelope_value(pulse, t))
        w = np.asarray(pulse.coupling_weights, dtype=complex)
        for g in (GROUND_DOWN, GROUND_UP):
            for e in (EXCITED_LOWER, EXCITED_UPPER):
                coupling = -0.5 * omega * w[g, e - 2]
                h[g, e] += coupling
                h[e, g] += np.conj(coupling)
    return h


def effective_rabi(rabi, detuning, hole_splitting):
    """Two-photon Raman rate (|Omega_R|^2 / 2) * (1/D + 1/(D + w_h))
    through both excited levels, rad/s; positive detunings only."""
    if detuning <= 0 or detuning + hole_splitting <= 0:
        raise ValidationError(
            "effective_rabi requires positive detuning for both excited paths")
    rabi = np.asarray(rabi, dtype=float)
    return (rabi**2 / 2.0) * (1.0 / detuning + 1.0 / (detuning + hole_splitting))


def pulse_rotation_angle(pulse, levels):
    """Time integral of the effective rate: the envelope integral of
    Omega_R^2 is the calibrated pulse energy."""
    return float(effective_rabi(math.sqrt(pulse.squared_integral),
                                levels.optical_detuning, levels.hole_splitting))


def extracted_rotation_angle(levels, pulse, expm_steps=1024):
    """Angle theta of one dissipation-free pulse from spin-down, read
    from p_up = sin^2(theta / 2)."""
    w = pulse_window_propagator(levels, pulse, DissipatorSet(),
                                expm_steps=expm_steps)
    v0 = DensityMatrix.pure(GROUND_DOWN).matrix.reshape(16)
    p_up = float(np.real(w[4 * GROUND_UP + GROUND_UP] @ v0))
    return 2.0 * math.asin(math.sqrt(min(max(p_up, 0.0), 1.0)))


def trace_error(m):
    return abs(np.trace(m) - 1.0)


def hermiticity_error(m):
    return float(np.max(np.abs(m - m.conj().T)))


def min_eigenvalue(m):
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def purity(m):
    return float(np.real(np.trace(m @ m)))


def lindblad_rhs(rho, hamiltonian, dissipators, rabi=0.0):
    """drho/dt at one instant; ``rabi`` feeds the laser dephasing."""
    rho = np.asarray(rho, dtype=complex)
    out = -1j * (hamiltonian @ rho - rho @ hamiltonian)
    for c in dissipators.jump_operators(rabi):
        cdc = c.conj().T @ c
        out += c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def drive_free_generator(levels, dissipators, spin_detuning=0.0):
    """The 16x16 generator of the flat state with no pulse: column k is
    ``lindblad_rhs`` of the k-th basis matrix."""
    h = build_hamiltonian(levels, [], 0.0, spin_detuning)
    return np.stack([lindblad_rhs(e.reshape(4, 4), h, dissipators).ravel()
                     for e in np.eye(16)], axis=1)


@dataclass
class EvolutionResult:
    times: np.ndarray
    states: list
    final: DensityMatrix


def integrate_master(rho0, hamiltonian, dissipators, config: IntegratorConfig,
                     t_span, t_eval=None, rabi=None) -> EvolutionResult:
    """DOP853 on :func:`lindblad_rhs` across ``t_span``.

    ``hamiltonian`` is a 4x4 array or a callable h(t), and ``rabi`` an
    optional callable giving the envelope that feeds the laser
    dephasing. Samples at ``t_eval`` come from the dense output; the
    end of the span is appended when they stop short of it.
    """
    h_func = hamiltonian if callable(hamiltonian) else (lambda t: hamiltonian)
    rabi_func = rabi or (lambda t: 0.0)

    def rhs(t, y):
        return lindblad_rhs(y.reshape(4, 4), h_func(t), dissipators,
                            rabi_func(t)).ravel()

    rho0 = np.asarray(getattr(rho0, "matrix", rho0), dtype=complex)
    sol = solve_ivp(rhs, t_span, rho0.ravel(), method="DOP853",
                    rtol=config.rel_tol, atol=config.abs_tol,
                    max_step=config.max_step, dense_output=t_eval is not None)
    if not sol.success:
        raise IntegrationFailure(sol.message, float(sol.t[-1]))
    times = [] if t_eval is None else [float(t) for t in t_eval]
    states = [sol.sol(t).reshape(4, 4) for t in times]
    if not times or times[-1] < t_span[1]:
        times.append(float(t_span[1]))
        states.append(sol.y[:, -1].reshape(4, 4))
    return EvolutionResult(np.asarray(times), states, DensityMatrix(states[-1]))


def evolve(rho0, levels, pulses, dissipators, t_span, t_eval=None,
           spin_detuning=0.0) -> EvolutionResult:
    """A state through a train of pulses: each window by
    :func:`integrate_master`, with steps of at most a fiftieth of the
    pulse duration, and each gap by the exponential of the drive-free
    generator."""
    pulses = sorted(pulses, key=lambda p: p.arrival_time)
    if any(b.window()[0] < a.window()[1] for a, b in zip(pulses, pulses[1:])):
        raise ValidationError("pulse windows overlap; merge pulses instead")
    generator = drive_free_generator(levels, dissipators, spin_detuning)
    pending = [float(t_span[1])] if t_eval is None else [float(t) for t in t_eval]
    rho = np.asarray(getattr(rho0, "matrix", rho0), dtype=complex)
    cursor, times, states = float(t_span[0]), [], []

    def gap(dt):
        if dt < 0:
            raise ValidationError(f"gap must be non-negative, got {dt}")
        return (expm(generator * dt) @ rho.reshape(16)).reshape(4, 4)

    def silent(upto):
        nonlocal rho, cursor
        while pending and pending[0] <= upto:
            times.append(pending.pop(0))
            states.append(gap(times[-1] - cursor))
        rho = gap(upto - cursor)
        cursor = upto

    for pulse in pulses:
        w0, w1 = pulse.window()
        if w0 > cursor:
            silent(w0)
        inner = [t for t in pending if t <= w1]
        del pending[:len(inner)]
        res = integrate_master(
            rho, lambda t, p=pulse: build_hamiltonian(levels, [p], t,
                                                      spin_detuning),
            dissipators, IntegratorConfig(max_step=pulse.duration / 50.0),
            (cursor, w1), t_eval=inner or None,
            rabi=lambda t, p=pulse: float(envelope_value(p, t)))
        times += inner
        states += res.states[:len(inner)]
        rho, cursor = res.final.matrix, w1
    silent(float(t_span[1]))
    return EvolutionResult(np.asarray(times), states, DensityMatrix(rho))


def fringe_grid_costs(x, y, w, omegas):
    """The weighted residual cost of the [1, cos, sin] fit at each of
    ``omegas``, one frequency at a time."""
    return np.array([_linear_fringe(x, y, w, om)[1] for om in omegas])
