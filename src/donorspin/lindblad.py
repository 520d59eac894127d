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
exact for piecewise-constant dynamics, in a Hermitian basis where a
Lindblad generator is a real 16x16 matrix (Havel, J. Math. Phys. 44,
534 (2003)). A window of one repeated step is that step's matrix power.
Otherwise the steps come 64 at a time, each block multiplied pairwise,
and each step is read from a Chebyshev interpolant in the Rabi rate
that an energy scan shares (Trefethen, ATAP, ch. 8) or, where none
passes its check, exponentiated once per distinct step of its block by
:func:`expm`.
The adaptive method, the only user of scipy, runs DOP853 on the complex
propagator equation. Drive-free stretches are never integrated: the
generator is then constant and block-diagonal, and one exact step,
:meth:`SilencePropagator.split_by_detuning`, crosses every gap and every
T1 wait, with a closed-form exponential for the populations and a
phase-and-decay factor per coherence. That removes the stiffness of
picosecond pulses separated by microsecond delays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "expm",
    "pulse_window_propagator",
    "SilencePropagator",
    "t1_rate_model",
]

_DIM = 4
_IDX = np.arange(16).reshape(4, 4)  # element (i, j) -> flat index
_SIGNS = (0, 1, -1)  # the detuning groups of a silence split, in order


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


# the 1-norm up to which each Padé degree needs no scaling (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179 (2005)); numerator b_j = (2m-j)!/(j!(m-j)!)
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068,
          13: 5.371920351148152}
_PADE = {m: [float(math.perm(2 * m - j, m) // math.factorial(j))
             for j in range(m + 1)] for m in _THETA}


def _pade(a, m):
    """The degree-m Padé approximant of exp for a stack of matrices."""
    b, diag = _PADE[m], np.s_[..., range(a.shape[-1]), range(a.shape[-1])]
    a2 = a @ a
    if m == 13:  # Higham's evaluation: one product fewer, more accurate
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2)
    else:
        u, v, power = b[3] * a2, b[2] * a2, a2
        for j in range(4, m, 2):
            power = power @ a2
            u += b[j + 1] * power
            v += b[j] * power
    u[diag] += b[1]
    v[diag] += b[0]
    u = a @ u
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """exp(A) of a square matrix or a stack of them, in A's dtype, by
    scaling and squaring: each matrix takes the lowest Padé degree whose
    theta bounds its 1-norm, or degree 13 after its own s halvings and s
    squarings, so it gets the same bits alone as in any stack; NaN if A
    has a non-finite entry."""
    a = np.asarray(a)
    stack = a.reshape(-1, *a.shape[-2:]).astype(np.result_type(a, float))
    out = np.full_like(stack, np.nan)
    with np.errstate(all="ignore"):
        norm = np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0)
        ok, band = np.isfinite(norm), np.searchsorted([*_THETA.values()], norm)
        s = np.where(ok & (band == len(_THETA)),
                     np.ceil(np.log2(norm / _THETA[13])), 0).astype(int)
        for i, m in enumerate(_THETA):
            pick = np.flatnonzero(ok & (np.minimum(band, 4) == i))
            # 16 at a time, so that the temporaries stay in cache
            for part in (pick[k:k + 16] for k in range(0, len(pick), 16)):
                out[part] = _pade(stack[part] * 2.0 ** -s[part, None, None], m)
        for j in range(s.max(initial=0)):
            out[s > j] = out[s > j] @ out[s > j]
    return out.reshape(a.shape)


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
        if not self.max_step > 0:
            raise ValidationError(
                f"max_step must be positive, got {self.max_step}")


_BLOCK = 64  # steps per batched expm call and pairwise product


def _interpolate(nodes, weights, exps, x):
    """exp(L(x) h) at keys x, barycentric (Berrut & Trefethen 2004)."""
    diff = x[:, None] - nodes
    c = weights / np.where(diff == 0, np.finfo(float).tiny, diff)
    c /= c.sum(axis=1, keepdims=True)
    return (c @ exps.reshape(len(nodes), -1)).reshape(-1, 16, 16)


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


def _generator(levels, pulse, dissipators, spin_detuning, real):
    """The generator at an array of Rabi rates (Hermitian basis if real)."""
    parts = pulse_liouvillian_parts(levels, pulse, dissipators, spin_detuning)
    l_const, l_drive, l_deph = _real_parts(parts) if real else parts
    return lambda om: (l_const + om[:, None, None] * l_drive
                       + dissipators.laser_dephasing_rate(om)[:, None, None]
                       * l_deph)


def _grid(pulse, config, expm_steps):
    """The fixed-step method's midpoint Rabi rates and its step h."""
    if not (isinstance(expm_steps, (int, np.integer)) and expm_steps >= 1):
        raise ValidationError(
            f"expm_steps must be an integer >= 1, got {expm_steps!r}")
    t0, t1 = pulse.window()
    n = expm_steps if math.isinf(config.max_step) \
        else max(expm_steps, int(math.ceil((t1 - t0) / config.max_step)))
    h = (t1 - t0) / n
    return envelope_value(pulse, t0 + (np.arange(n) + 0.5) * h), h


def _step_table(generator, keys, h):
    """(nodes, weights, exps): exp(generator(x) h) at d Chebyshev points of
    the first kind on [0, top key], d the first of 8, 16, 32 to match a
    direct expm at 5 distinct keys within 1e-14 of max(1, largest entry)
    at no more exponentials than distinct keys. () if none does, or if the
    top key is not positive and finite."""
    # counts keep np.unique from importing numpy.ma, which costs 1 MB
    uniq = np.unique(keys, return_counts=True)[0]
    if uniq.size < 13 or not 0.0 < uniq[-1] < math.inf:
        return ()
    checks = uniq[np.linspace(0, uniq.size - 1, 5).astype(int)]
    with np.errstate(all="ignore"):
        direct = expm(generator(checks) * h)
        for d in [k for k in (8, 16, 32) if 2 * k - 3 <= uniq.size]:
            theta = (np.arange(d) + 0.5) * math.pi / d
            nodes = 0.5 * uniq[-1] * (1.0 - np.cos(theta))
            table = (nodes, (-1.0) ** np.arange(d) * np.sin(theta),
                     expm(generator(nodes) * h))
            if np.max(np.abs(_interpolate(*table, checks) - direct)) \
                    <= 1e-14 * max(1.0, np.max(np.abs(direct))):
                return table
    return ()


def pulse_window_propagator(levels: LevelScheme, pulse: PulseSpec,
                            dissipators: DissipatorSet,
                            config: IntegratorConfig | None = None,
                            spin_detuning: float = 0.0,
                            expm_steps: int = 1024, *,
                            _table=None) -> np.ndarray:
    """Superoperator advancing the state across one pulse window.

    The window spans the pulse support (five FWHM on each side for
    shaped pulses). The default method steps the matrix exponential of
    the midpoint generator on a fixed grid, which resolves the optical
    phases exactly and converges quadratically in the envelope. It
    evaluates the envelope on all midpoints at once, steps in the real
    Hermitian basis and maps the product back once. A window of one
    repeated step (rectangular, or zero energy) is that step's matrix
    power. Otherwise each block of ``_BLOCK`` steps is read from an
    interpolant (:func:`_step_table`; ``_table`` is one a scan shares)
    or, where there is none, exponentiated once per distinct step, and
    multiplied pairwise. It refuses an ``expm_steps`` that is not an
    integer >= 1 with :class:`ValidationError`. The adaptive method
    integrates the complex 16x16 propagator equation instead, and raises
    :class:`IntegrationFailure` when the integrator stops short.
    """
    config = config or IntegratorConfig(method="fixed-expm")
    fixed = config.method == "fixed-expm"
    generator = _generator(levels, pulse, dissipators, spin_detuning, fixed)
    with np.errstate(all="ignore"):
        if not np.all(np.isfinite(generator(np.array([pulse.peak_rabi])))):
            raise NumericsError(f"pulse energy {pulse.energy:.6g} J makes the "
                                "generator at the envelope peak non-finite")
    if fixed:
        keys, h = _grid(pulse, config, expm_steps)
        if np.all(keys == keys[0]):  # rectangular pulses and zero energy
            step = expm(generator(keys[:1]) * h)[0]
            return _T_INV @ np.linalg.matrix_power(step, keys.size) @ _T
        table = _step_table(generator, keys, h) if _table is None else _table
        y = np.eye(16)
        for start in range(0, keys.size, _BLOCK):  # each block pairwise
            block = keys[start:start + _BLOCK]
            if table:
                steps = _interpolate(*table, block)
            else:  # one exponential per distinct key of the block
                uniq, ids = np.unique(block, return_inverse=True)
                steps = expm(generator(uniq) * h)[ids]
            while len(steps) > 1:
                steps = np.concatenate([steps[1::2] @ steps[:-1:2],
                                        steps[len(steps) // 2 * 2:]])
            y = steps[0] @ y
        return _T_INV @ y @ _T

    from scipy.integrate import solve_ivp  # only the adaptive method needs it

    def rhs(t, y):
        gen = generator(np.reshape(envelope_value(pulse, t), 1))[0]
        return (gen @ y.reshape(16, 16)).ravel()

    sol = solve_ivp(rhs, pulse.window(), np.eye(16, dtype=complex).ravel(),
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


def _phi(z):
    """(1 - exp(-z)) / z, continued by its limit 1 at z = 0."""
    return np.where(z == 0, 1.0, -np.expm1(-z) / np.where(z == 0, 1.0, z))


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
        # coherence only itself, and the excited populations only decay
        allowed = np.eye(16, dtype=bool)
        allowed[np.ix_(pop_idx, pop_idx)] = True
        g, self.flip_rate = self.pop_generator, dissipators.t1_rate
        resid = [float(np.max(np.abs(b))) for b in (
            gen[~allowed], g[2:, :2], g[2:, 2:] - np.diag(np.diag(g)[2:]),
            g[:2, :2] - self.flip_rate / 2 * np.array([[-1, 1], [1, -1]]))]
        if resid[0] > 1e-12 * max(1.0, float(np.max(np.abs(gen)))):
            raise NumericsError(
                "silence generator is not element-diagonal; integrate instead")
        if max(resid[1:]) > 1e-12 * max(1.0, float(np.max(np.abs(g)))):
            raise NumericsError("silence population generator is not "
                                "[[B, C], [0, D]] with B a spin flip")

        self.coherence_rate = np.diag(gen).reshape(_DIM, _DIM).copy()
        np.fill_diagonal(self.coherence_rate, 0.0)

        # a shift delta of the spin-up level adds -i*delta*s to the rate
        # of element (i, j): s = +1 where i is spin-up, -1 where j is
        group = np.zeros((_DIM, _DIM))
        group[GROUND_UP, :] += 1.0
        group[:, GROUND_UP] -= 1.0
        self.detuning_group = group.ravel()

    def population_matrix(self, taus) -> np.ndarray:
        """exp(G * tau) of the population generator G for each duration in
        ``taus``, as a (..., 4, 4) stack, in closed form. G = [[B, C], [0,
        -diag(d)]]: B flips the spin at rate k (eigenvalues 0 and -k,
        projectors P0 and P1) and excited level e decays at d_e, so
        exp(G tau) = [[P0 + exp(-k tau) P1, F], [0, exp(-d tau)]], with F =
        P0 C tau phi(d tau) + P1 C exp(-min(k, d) tau) tau phi(|d - k| tau);
        phi(z) = -expm1(-z)/z keeps k = d, k = 0 and d = 0 exact."""
        g, k = self.pop_generator, self.flip_rate
        d, c, p1 = -np.diag(g)[2:], g[:2, 2:], np.array([[1, -1], [-1, 1]]) / 2
        t = np.asarray(taus, dtype=float)[..., None, None]
        out = np.zeros(t.shape[:-2] + (4, 4))
        out[..., :2, :2] = np.eye(2) + p1 * np.expm1(-k * t)
        odd = np.exp(-np.minimum(k, d) * t) * t * _phi(np.abs(d - k) * t)
        out[..., :2, 2:] = (c - p1 @ c) * t * _phi(d * t) + p1 @ c * odd
        out[..., [2, 3], [2, 3]] = np.exp(-d * t)[..., 0, :]
        return out

    def split_by_detuning(self, vec: np.ndarray, taus) -> dict:
        """Advance flat states across each gap in ``taus``, by detuning group.

        Returns {s: (..., n, 16)} for s in (0, +1, -1), in that order
        (``_SIGNS``), such that the state after gap ``taus[k]`` at
        detuning delta is the sum over s of
        exp(-i*delta*s*taus[k]) * out[s][..., k, :]; s is read from
        :attr:`detuning_group`, and the populations sit in group 0.
        ``vec`` is one state for every gap or a stack with leading axes
        (..., n), one state per gap along the last of them. A state may
        be one branch, whose populations are complex; they stay complex
        so that the branches still sum to the state. A negative gap
        raises :class:`ValidationError`.
        """
        taus = np.asarray(taus, dtype=float)
        if np.any(taus < 0):
            raise ValidationError("silence duration must be non-negative, "
                                  f"got {taus.min()}")
        pop_idx = np.diag(_IDX)
        moved = np.exp(np.multiply.outer(taus, self.coherence_rate.ravel())) \
            * vec
        moved[..., pop_idx] = (self.population_matrix(taus)
                               @ vec[..., pop_idx, None])[..., 0]
        return {s: np.where(self.detuning_group == s, moved, 0.0)
                for s in _SIGNS}


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
