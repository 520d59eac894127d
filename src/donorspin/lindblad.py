"""Open-system dynamics of the four-level donor model.

The density matrix evolves under

    drho/dt = -i [H(t), rho] + sum_k ( C_k rho C_k+ - {C_k+ C_k, rho}/2 )

with the jump operators supplied by :class:`DissipatorSet`: radiative
decay from each excited level into both ground states, slow population
exchange between the ground spin states, pure ground-spin dephasing,
and a laser-activated dephasing of the excited manifold whose rate
follows the instantaneous Rabi envelope,

    gamma(t) = beta1 * Omega_R(t) + beta2 * Omega_R(t)^2.

Pulse windows are the only stretches integrated numerically, by
:func:`pulse_window_propagator`, with two methods. The fixed-step
method advances with the matrix exponential of the midpoint generator,
which is exact for piecewise-constant dynamics; it exponentiates each
distinct midpoint generator once (keeping at most 512 for later
steps), in time-ordered batches of at most 64 steps, in a Hermitian
operator basis where a Lindblad generator is a real 16x16 matrix
(Havel, J. Math. Phys. 44, 534 (2003)). The adaptive method runs
scipy's embedded Runge-Kutta integrator (DOP853) on the complex
propagator equation. Drive-free stretches are never integrated: the
generator is then constant and block-diagonal, and one exact step,
:meth:`SilencePropagator.split_by_detuning`, crosses every gap and
every T1 wait, with a small matrix exponential for the populations
and a phase-and-decay factor per coherence. That removes the
stiffness of picosecond pulses separated by microsecond delays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import IntegrationFailure, NumericsError, ValidationError
from .hamiltonian import (
    EXCITED_LOWER,
    EXCITED_UPPER,
    GROUND_DOWN,
    GROUND_UP,
    LevelScheme,
    PulseSpec,
    envelope_value,
)

__all__ = [
    "DensityMatrix",
    "DissipatorSet",
    "IntegratorConfig",
    "liouvillian",
    "dissipator_superoperator",
    "pulse_window_propagator",
    "SilencePropagator",
    "t1_rate_model",
]

_DIM = 4
_IDX = np.arange(16).reshape(4, 4)  # element (i, j) -> flat index


# ---------------------------------------------------------------------------
# state


@dataclass
class DensityMatrix:
    """A 4x4 density matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (_DIM, _DIM):
            raise ValidationError(f"density matrix must be 4x4, got {m.shape}")
        self.matrix = m

    # -- constructors ------------------------------------------------
    @classmethod
    def pure(cls, index: int) -> "DensityMatrix":
        m = np.zeros((_DIM, _DIM), dtype=complex)
        m[index, index] = 1.0
        return cls(m)

    @classmethod
    def scrambled(cls) -> "DensityMatrix":
        """Equal ground-state populations with no coherence."""
        m = np.zeros((_DIM, _DIM), dtype=complex)
        m[GROUND_DOWN, GROUND_DOWN] = 0.5
        m[GROUND_UP, GROUND_UP] = 0.5
        return cls(m)

    # -- observables -------------------------------------------------
    @property
    def p_down(self) -> float:
        return float(self.matrix[GROUND_DOWN, GROUND_DOWN].real)

    @property
    def p_up(self) -> float:
        return float(self.matrix[GROUND_UP, GROUND_UP].real)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def trace_error(self) -> float:
        return abs(np.trace(self.matrix) - 1.0)

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        sym = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(sym)[0])

    def validate(self, trace_tol=1e-9, herm_tol=1e-10, positivity_floor=-1e-7):
        problems = []
        if self.trace_error() > trace_tol:
            problems.append(f"trace deviates by {self.trace_error():.3e}")
        if self.hermiticity_error() > herm_tol:
            problems.append(f"hermiticity violated by {self.hermiticity_error():.3e}")
        if self.min_eigenvalue() < positivity_floor:
            problems.append(f"negative eigenvalue {self.min_eigenvalue():.3e}")
        if problems:
            raise ValidationError("unphysical density matrix: " + "; ".join(problems),
                                  problems)
        return self


# ---------------------------------------------------------------------------
# dissipators


@dataclass(frozen=True)
class DissipatorSet:
    """Rates of the dissipation channels, all in 1/s.

    ``branching`` gives the weight of each radiative channel, indexed
    [excited][ground]; each row must sum to one. ``laser_dephasing_linear``
    and ``laser_dephasing_quadratic`` are the envelope coefficients of
    the excited-state dephasing rate (dimensionless and seconds).
    """

    radiative_rate: float = 0.0
    branching: tuple = ((0.5, 0.5), (0.5, 0.5))
    t1_rate: float = 0.0
    ground_dephasing_rate: float = 0.0
    laser_dephasing_linear: float = 0.0
    laser_dephasing_quadratic: float = 0.0

    def __post_init__(self):
        problems = []
        for attr in ("radiative_rate", "t1_rate", "ground_dephasing_rate",
                     "laser_dephasing_linear", "laser_dephasing_quadratic"):
            if getattr(self, attr) < 0:
                problems.append(f"{attr} must be non-negative")
        b = np.asarray(self.branching, dtype=float)
        if b.shape != (2, 2):
            problems.append("branching must be 2x2 (excited by ground)")
        else:
            if np.any(b < 0):
                problems.append("branching weights must be non-negative")
            if not np.allclose(b.sum(axis=1), 1.0, atol=1e-12):
                problems.append("branching weights must sum to 1 for each excited state")
            object.__setattr__(self, "branching", tuple(map(tuple, b)))
        if problems:
            raise ValidationError("invalid dissipator set: " + "; ".join(problems),
                                  problems)

    def laser_dephasing_rate(self, rabi: float) -> float:
        """gamma(t) evaluated at the instantaneous Rabi rate."""
        return (self.laser_dephasing_linear * rabi
                + self.laser_dephasing_quadratic * rabi * rabi)

    def jump_operators(self, rabi: float = 0.0) -> list[np.ndarray]:
        ops = []
        b = np.asarray(self.branching)
        if self.radiative_rate > 0:
            for e in (EXCITED_LOWER, EXCITED_UPPER):
                for g in (GROUND_DOWN, GROUND_UP):
                    w = self.radiative_rate * b[e - 2, g]
                    if w > 0:
                        c = np.zeros((_DIM, _DIM), dtype=complex)
                        c[g, e] = math.sqrt(w)
                        ops.append(c)
        if self.t1_rate > 0:
            for src, dst in ((GROUND_UP, GROUND_DOWN), (GROUND_DOWN, GROUND_UP)):
                c = np.zeros((_DIM, _DIM), dtype=complex)
                c[dst, src] = math.sqrt(self.t1_rate / 2.0)
                ops.append(c)
        if self.ground_dephasing_rate > 0:
            c = np.zeros((_DIM, _DIM), dtype=complex)
            c[GROUND_DOWN, GROUND_DOWN] = math.sqrt(self.ground_dephasing_rate / 2.0)
            c[GROUND_UP, GROUND_UP] = -math.sqrt(self.ground_dephasing_rate / 2.0)
            ops.append(c)
        gamma = self.laser_dephasing_rate(rabi)
        if gamma > 0:
            c = np.zeros((_DIM, _DIM), dtype=complex)
            c[EXCITED_LOWER, EXCITED_LOWER] = math.sqrt(gamma)
            c[EXCITED_UPPER, EXCITED_UPPER] = math.sqrt(gamma)
            ops.append(c)
        return ops


# ---------------------------------------------------------------------------
# generators


def _kron(a, b):
    """``np.kron`` of two 4x4 matrices: the same products, without the
    general-shape handling that makes up most of its cost."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(16, 16)


def dissipator_superoperator(c: np.ndarray) -> np.ndarray:
    """Superoperator of one jump operator in row-major vectorization."""
    c = np.asarray(c, dtype=complex)
    cdc = c.conj().T @ c
    eye = np.eye(_DIM)
    return (_kron(c, c.conj()) - 0.5 * _kron(cdc, eye)
            - 0.5 * _kron(eye, cdc.T))


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    eye = np.eye(_DIM)
    return -1j * (_kron(h, eye) - _kron(eye, h.T))


def liouvillian(hamiltonian: np.ndarray, dissipators: DissipatorSet,
                rabi: float = 0.0) -> np.ndarray:
    """Full 16x16 generator acting on the row-major vectorized state."""
    gen = hamiltonian_superoperator(np.asarray(hamiltonian, dtype=complex))
    for c in dissipators.jump_operators(rabi):
        gen += dissipator_superoperator(c)
    return gen


# ---------------------------------------------------------------------------
# integrators


_METHODS = ("adaptive-rk", "fixed-expm")


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical controls for a pulse window.

    ``max_step`` bounds the step of the adaptive method, which never
    steps further than a fiftieth of the pulse duration, and sets the
    step of the fixed matrix-exponential method (an automatic step is
    chosen when it is infinite). Tolerances must lie in (0, 1e-3].
    """

    method: str = "adaptive-rk"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(
                f"unknown integration method {self.method!r}; choose from {_METHODS}"
            )
        for attr in ("rel_tol", "abs_tol"):
            v = getattr(self, attr)
            if not 0.0 < v <= 1e-3:
                raise ValidationError(f"{attr} must lie in (0, 1e-3], got {v}")
        if self.max_step <= 0:
            raise ValidationError("max_step must be positive")


_BLOCK, _HELD = 64, 512  # steps per batched expm call; exponentials kept


def _midpoint_product(y, keys, generator, h):
    """Left-multiply ``y`` by expm(L_k * h) for each key k in turn.

    ``generator`` maps an array of keys to the stack of their L_k.
    Keys are compared by their bytes. Each block of ``_BLOCK`` steps
    exponentiates its keys not already kept in one batched call; an
    exponential a later step needs is kept while fewer than ``_HELD``
    are, and recomputed past that. Equal keys give equal bytes, so the
    product is the one a per-step loop gives.
    """
    uniq, ids = np.unique(keys.view(np.int64), return_inverse=True)
    uniq = uniq.view(float)
    left = np.bincount(ids).tolist()  # uses still to come, per key
    held = {}
    for start in range(0, keys.size, _BLOCK):
        block = ids[start:start + _BLOCK].tolist()
        new = [i for i in dict.fromkeys(block) if i not in held]
        made = dict(zip(new, expm(generator(uniq[new]) * h))) if new else {}
        for i in block:
            y = (held[i] if i in held else made[i]) @ y
            left[i] -= 1
            if not left[i]:
                held.pop(i, None)
        for i in new:
            if left[i] and len(held) < _HELD:
                held[i] = made[i].copy()
        del made  # frees the block's exponentials before the next batch
    return y


# ---------------------------------------------------------------------------
# pulse windows and silences


def pulse_liouvillian_parts(levels: LevelScheme, pulse: PulseSpec,
                            dissipators: DissipatorSet,
                            spin_detuning: float = 0.0):
    """Split the generator into constant, drive, and dephasing parts.

    During a pulse window the generator is

        L(t) = L_const + Omega_R(t) * L_drive + gamma(t) * L_deph

    which lets propagators reuse three precomputed matrices.
    """
    h0 = np.diag(levels.diagonal(spin_detuning)).astype(complex)
    l_const = liouvillian(h0, dissipators, rabi=0.0)
    w = np.asarray(pulse.coupling_weights, dtype=complex)
    k = np.zeros((_DIM, _DIM), dtype=complex)
    for g in (GROUND_DOWN, GROUND_UP):
        for e in (EXCITED_LOWER, EXCITED_UPPER):
            k[g, e] = -0.5 * w[g, e - 2]
            k[e, g] = np.conj(k[g, e])
    l_drive = hamiltonian_superoperator(k)
    l_deph = dissipator_superoperator(np.diag([0.0, 0.0, 1.0, 1.0]))  # P_e
    return l_const, l_drive, l_deph


def pulse_window_propagator(levels: LevelScheme, pulse: PulseSpec,
                            dissipators: DissipatorSet,
                            config: IntegratorConfig | None = None,
                            spin_detuning: float = 0.0,
                            expm_steps: int = 1024) -> np.ndarray:
    """Superoperator advancing the state across one pulse window.

    The window spans the pulse support (five FWHM on each side for
    shaped pulses). The default method steps the matrix exponential of
    the midpoint generator on a fixed grid, which resolves the optical
    phases exactly and converges quadratically in the envelope. It
    evaluates the envelope on all midpoints at once, steps in the real
    Hermitian basis and maps the product back once; the adaptive method
    integrates the complex 16x16 propagator equation instead, and raises
    :class:`IntegrationFailure` when the integrator stops short.
    """
    config = config or IntegratorConfig(method="fixed-expm")
    t0, t1 = pulse.window()
    parts = pulse_liouvillian_parts(levels, pulse, dissipators, spin_detuning)
    fixed = config.method == "fixed-expm"
    l_const, l_drive, l_deph = _real_parts(parts) if fixed else parts

    def generator(om):
        gamma = dissipators.laser_dephasing_rate(om)
        return (l_const + om[:, None, None] * l_drive
                + gamma[:, None, None] * l_deph)

    with np.errstate(all="ignore"):
        if not np.all(np.isfinite(generator(np.array([pulse.peak_rabi])))):
            raise NumericsError(f"pulse energy {pulse.energy:.6g} J makes the "
                                "generator at the envelope peak non-finite")
    if fixed:
        n = expm_steps if math.isinf(config.max_step) \
            else max(expm_steps, int(math.ceil((t1 - t0) / config.max_step)))
        h = (t1 - t0) / n
        keys = envelope_value(pulse, t0 + (np.arange(n) + 0.5) * h)
        return _T_INV @ _midpoint_product(np.eye(16), keys, generator, h) @ _T

    from scipy.integrate import solve_ivp  # only the adaptive method needs it

    def rhs(t, y):
        gen = generator(np.reshape(envelope_value(pulse, t), 1))[0]
        return (gen @ y.reshape(16, 16)).ravel()

    sol = solve_ivp(rhs, (t0, t1), np.eye(16, dtype=complex).ravel(),
                    method="DOP853", rtol=config.rel_tol, atol=config.abs_tol,
                    max_step=min(config.max_step, pulse.duration / 50.0))
    if not sol.success:
        raise IntegrationFailure(f"adaptive integration failed: {sol.message}",
                                 float(sol.t[-1]))
    return sol.y[:, -1].reshape(16, 16)


def _hermitian_basis() -> np.ndarray:
    """Unitary T whose rows read a flat state as the populations, then
    (rho_ij + rho_ji)/sqrt(2) and i(rho_ij - rho_ji)/sqrt(2) for i < j:
    a Hermitian state has real coordinates, and T L T+ is real."""
    t = np.zeros((16, 16), dtype=complex)
    t[np.arange(_DIM), np.diag(_IDX)] = 1.0
    for r, (i, j) in enumerate(zip(*np.triu_indices(_DIM, 1))):
        t[_DIM + 2 * r:_DIM + 2 * r + 2, [_IDX[i, j], _IDX[j, i]]] = \
            np.array([[1.0, 1.0], [1j, -1j]]) * math.sqrt(0.5)
    return t


_T = _hermitian_basis()
_T_INV = _T.conj().T


def _real_parts(parts):
    """The generator parts in the Hermitian basis, as real matrices; an
    imaginary residue above 1e-12 of a part's scale is refused."""
    mapped = [_T @ part @ _T_INV for part in parts]
    if any(np.max(np.abs(g.imag)) > 1e-12 * np.max(np.abs(g)) for g in mapped):
        raise NumericsError("pulse generator does not preserve Hermiticity")
    return [g.real.copy() for g in mapped]


class SilencePropagator:
    """Exact evolution between pulses, where the drive is off.

    With no drive the generator is constant and decouples: populations
    obey a 4x4 rate equation, and every coherence evolves independently
    with a complex rate (phase plus damping). Both facts are checked
    against the assembled generator at construction time.

    The spin-up level may carry a per-donor Overhauser detuning delta;
    it turns the coherences involving that level by exp(-i*delta*s*t),
    with s read from the flat :attr:`detuning_group`.
    """

    def __init__(self, levels: LevelScheme, dissipators: DissipatorSet):
        h0 = np.diag(levels.diagonal()).astype(complex)
        gen = liouvillian(h0, dissipators, rabi=0.0)

        pop_idx = np.diag(_IDX)
        self.pop_generator = np.real(gen[np.ix_(pop_idx, pop_idx)]).copy()

        # structural checks: populations feed only populations, each
        # coherence only itself
        allowed = np.eye(16, dtype=bool)
        allowed[np.ix_(pop_idx, pop_idx)] = True
        resid = float(np.max(np.abs(gen[~allowed])))
        scale = max(1.0, float(np.max(np.abs(gen))))
        if resid > 1e-12 * scale:
            raise NumericsError(
                "silence generator is not element-diagonal; integrate instead")

        self.coherence_rate = np.diag(gen).reshape(_DIM, _DIM).copy()
        np.fill_diagonal(self.coherence_rate, 0.0)

        # a shift delta of the spin-up level adds -i*delta*s to the rate
        # of element (i, j): s = +1 where i is spin-up, -1 where j is
        group = np.zeros((_DIM, _DIM))
        group[GROUND_UP, :] += 1.0
        group[:, GROUND_UP] -= 1.0
        self.detuning_group = group.ravel()

        self._pop_cache: dict[float, np.ndarray] = {}

    def population_matrix(self, dt: float) -> np.ndarray:
        got = self._pop_cache.get(dt)
        if got is None:
            got = expm(self.pop_generator * dt)
            self._pop_cache[dt] = got
        return got

    def split_by_detuning(self, vec: np.ndarray, taus) -> dict:
        """Advance a flat state across each gap in ``taus``, by detuning group.

        Returns {s: (n, 16)} for s in (0, +1, -1) such that the state
        after gap ``taus[k]`` at detuning delta is the sum over s of
        exp(-i*delta*s*taus[k]) * out[s][k]; s is read from
        :attr:`detuning_group`, and the populations sit in group 0.
        ``vec`` is one state for every gap or an (n, 16) stack of one
        state per gap. A state may be one branch, whose populations are
        complex; they stay complex so that the branches still sum to the
        state. A negative gap raises :class:`ValidationError`.
        """
        taus = np.asarray(taus, dtype=float)
        if np.any(taus < 0):
            raise ValidationError("silence duration must be non-negative, "
                                  f"got {taus.min()}")
        pop_idx = np.diag(_IDX)
        moved = np.exp(np.multiply.outer(taus, self.coherence_rate.ravel())) \
            * vec
        rows = np.broadcast_to(vec, moved.shape)
        moved[:, pop_idx] = np.reshape(
            [self.population_matrix(float(tau)) @ v[pop_idx]
             for tau, v in zip(taus, rows)], (-1, _DIM))
        return {s: np.where(self.detuning_group == s, moved, 0.0)
                for s in (0, 1, -1)}


# ---------------------------------------------------------------------------
# relaxation phenomenology


# T1 of 0.1 s at 2.25 T, and the power of the field it falls with
_T1_REFERENCE_TIME, _T1_REFERENCE_FIELD, _T1_EXPONENT = 0.1, 2.25, 3.5


def t1_rate_model(field: float) -> float:
    """Ground-spin relaxation rate with a power-law field dependence.

    1/T1(B) = (1 / 0.1 s) * (B / 2.25 T) ** 3.5.
    """
    if field < 0:
        raise ValidationError(f"field must be non-negative, got {field} T")
    return (field / _T1_REFERENCE_FIELD) ** _T1_EXPONENT / _T1_REFERENCE_TIME
