"""Pulse-sequence experiments over the four-level model.

Every experiment here is a composition of three exactly reusable
pieces: a pulse-window superoperator (numerically integrated once per
pulse shape and energy), the analytic between-pulse propagator, and an
average over the frozen Overhauser detuning of each donor.

Ramsey and echo share one contraction: equal pulse windows separated
by silent gaps. The detuning enters only through phase factors on
coherences involving the spin-up level, so
:meth:`SilencePropagator.split_by_detuning` splits the state across a
gap into detuning groups s in (0, +1, -1) that gain
exp(-i*delta*s*gap); one such split serves a fixed gap (one length) and
the scanned gap (every length at once). A pathway is keyed by a sign
tuple, one sign per gap, and its phase duration is sum(s * gap): a
Ramsey scan has one gap, an echo two (tau1 fixed, tau2 scanned). The
detuning-independent complex amplitude of each key is contracted with
either the bath's characteristic function at that duration (``exact``
ensemble mode) or the empirical phase average of Monte Carlo samples
(``mc`` mode). A thousand-sample Ramsey scan therefore costs
milliseconds, not hours.

Timing convention: delays are pulse-center to pulse-center, and the
drive-free stretch between two windows of half-width w is that delay
minus 2w. A zero delay composes the two windows back to back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from .bath import BathModel
from .errors import NumericsError, ValidationError
from .fitting import FitResult, fit_curve, fit_fringe
from .hamiltonian import (
    EXCITED_LOWER,
    EXCITED_UPPER,
    GROUND_DOWN,
    GROUND_UP,
    LevelScheme,
    PulseSpec,
)
from .lindblad import (
    DensityMatrix,
    DissipatorSet,
    IntegratorConfig,
    SilencePropagator,
    liouvillian,
    pulse_window_propagator,
)

__all__ = [
    "ExperimentTrace",
    "InjectedDecoherence",
    "PumpSettings",
    "PumpResult",
    "RamseyResult",
    "EchoResult",
    "EchoDecayResult",
    "T1RecoveryResult",
    "optical_pump",
    "rabi_populations",
    "fringe_visibilities",
    "run_rabi_sweep",
    "run_ramsey",
    "run_echo",
    "run_echo_decay",
    "run_t1_recovery",
    "ramsey_window_plan",
]

_IDX = np.arange(16).reshape(4, 4)
_UP_FLAT = _IDX[GROUND_UP, GROUND_UP]
_DOWN_FLAT = _IDX[GROUND_DOWN, GROUND_DOWN]
_GROUND_COHERENCES = [_IDX[GROUND_UP, GROUND_DOWN],
                      _IDX[GROUND_DOWN, GROUND_UP]]
_MC_BLOCK, _STD_COLUMNS = 512, 16  # mc samples per block; points per std
_ENSEMBLE_MODES = ("exact", "mc")  # the bath averages a run can take


@dataclass
class ExperimentTrace:
    """Sampled populations against one swept axis."""

    abscissa: np.ndarray
    abscissa_name: str
    p_up: np.ndarray
    p_down: np.ndarray
    p_up_stderr: np.ndarray | None = None
    p_down_stderr: np.ndarray | None = None

    def __post_init__(self):
        self.abscissa = np.asarray(self.abscissa, dtype=float)
        self.p_up = np.asarray(self.p_up, dtype=float)
        self.p_down = np.asarray(self.p_down, dtype=float)

    def validate(self, tol: float = 1e-6) -> "ExperimentTrace":
        problems = []
        for name, values in (("p_up", self.p_up), ("p_down", self.p_down)):
            if values.shape != self.abscissa.shape:
                problems.append(f"{name} length differs from abscissa")
                continue
            if np.any(values < -tol) or np.any(values > 1.0 + tol):
                problems.append(f"{name} leaves [0, 1]")
        if self.p_up.shape == self.p_down.shape \
                and np.any(self.p_up + self.p_down > 1.0 + tol):
            problems.append("p_up + p_down exceeds 1")
        if problems:
            raise ValidationError("invalid trace: " + "; ".join(problems),
                                  problems)
        return self

    def as_rows(self):
        """(header, rows) ready for delimited-file output."""
        header = [self.abscissa_name, "p_up"]
        columns = [self.abscissa, self.p_up]
        if self.p_up_stderr is not None:
            header.append("p_up_stderr")
            columns.append(self.p_up_stderr)
        header.append("p_down")
        columns.append(self.p_down)
        if self.p_down_stderr is not None:
            header.append("p_down_stderr")
            columns.append(self.p_down_stderr)
        rows = list(zip(*[np.asarray(c, dtype=float) for c in columns]))
        return header, rows


@dataclass(frozen=True)
class InjectedDecoherence:
    """Extra ground-coherence decay channel applied between pulses.

    The coherence magnitude follows exp(-(t/time_constant)**exponent)
    cumulatively in sequence time, so split delays compose to the
    envelope of the total elapsed time.
    """

    time_constant: float
    exponent: float = 1.0

    def __post_init__(self):
        if self.time_constant <= 0:
            raise ValidationError("time_constant must be positive")
        if self.exponent < 1.0:
            raise ValidationError("exponent must be >= 1")

    def envelope(self, t):
        return np.exp(-np.power(np.asarray(t, dtype=float)
                                / self.time_constant, self.exponent))

    def ratio(self, t_start, t_end):
        t_start = np.asarray(t_start, dtype=float)
        t_end = np.asarray(t_end, dtype=float)
        return np.exp(
            np.power(t_start / self.time_constant, self.exponent)
            - np.power(t_end / self.time_constant, self.exponent))


# ---------------------------------------------------------------------------
# state preparation and readout


def _as_matrix(state) -> np.ndarray:
    if state is None:
        return DensityMatrix.pure(GROUND_DOWN).matrix
    if isinstance(state, DensityMatrix):
        return np.asarray(state.matrix, dtype=complex)
    return np.asarray(state, dtype=complex)


@dataclass(frozen=True)
class PumpSettings:
    """Continuous-wave spin-initialization drive."""

    rabi: float
    duration: float
    samples: int = 256

    def __post_init__(self):
        if self.rabi < 0:
            raise ValidationError("pump rabi must be non-negative")
        if self.duration <= 0:
            raise ValidationError("pump duration must be positive")
        if self.samples < 1:
            raise ValidationError("pump samples must be >= 1")

    def step(self, levels: LevelScheme, dissipators: DissipatorSet):
        """exp(L dt) of the resonant drive over one of ``samples`` steps."""
        gen = liouvillian(_pump_hamiltonian(levels, self.rabi), dissipators,
                          rabi=self.rabi)
        return expm(gen * (self.duration / self.samples))


@dataclass
class PumpResult:
    final: DensityMatrix
    fidelity: float
    times: np.ndarray
    emission_rate: np.ndarray   # radiative_rate * excited population, 1/s
    rabi: float
    duration: float


def _pump_hamiltonian(levels: LevelScheme, rabi: float) -> np.ndarray:
    """Rotating frame of a cw laser resonant with spin-up -> lower exciton."""
    we = levels.electron_splitting
    h = np.diag([0.0, we, we, we + levels.hole_splitting]).astype(complex)
    h[GROUND_UP, EXCITED_LOWER] = -0.5 * rabi
    h[EXCITED_LOWER, GROUND_UP] = -0.5 * rabi
    return h


def optical_pump(state, levels: LevelScheme, rabi: float, duration: float,
                 dissipators: DissipatorSet, samples: int = 256) -> PumpResult:
    """Drive spin-up into the exciton until it decays into spin-down.

    The drive is resonant, so the generator is constant and the
    evolution is advanced with one matrix exponential per recorded
    sample. Returns the final state, the pump fidelity (spin-down
    population), and the emitted-photon rate curve.
    """
    step = PumpSettings(rabi, duration, samples).step(levels, dissipators)
    dt = duration / samples
    vec = _as_matrix(state).reshape(16).copy()
    times = np.empty(samples + 1)
    excited = np.empty(samples + 1)
    times[0] = 0.0
    excited[0] = np.real(vec[_IDX[EXCITED_LOWER, EXCITED_LOWER]]
                         + vec[_IDX[EXCITED_UPPER, EXCITED_UPPER]])
    for k in range(samples):
        vec = step @ vec
        times[k + 1] = (k + 1) * dt
        excited[k + 1] = np.real(vec[_IDX[EXCITED_LOWER, EXCITED_LOWER]]
                                 + vec[_IDX[EXCITED_UPPER, EXCITED_UPPER]])
    if not (np.all(np.isfinite(vec)) and np.all(np.isfinite(excited))):
        raise NumericsError("optical pump produced a non-finite state")
    final = DensityMatrix(vec.reshape(4, 4))
    return PumpResult(
        final=final,
        fidelity=float(final.matrix[GROUND_DOWN, GROUND_DOWN].real),
        times=times,
        emission_rate=dissipators.radiative_rate * excited,
        rabi=rabi,
        duration=duration,
    )


def _prepare_initial(initial, pump, levels, dissipators):
    if pump is not None:
        return optical_pump(DensityMatrix.scrambled().matrix, levels,
                            pump.rabi, pump.duration, dissipators,
                            pump.samples).final.matrix
    return _as_matrix(initial)


# ---------------------------------------------------------------------------
# the contraction


def _ensemble_reduce(terms_by_shift, bath, mode, samples, durations_of):
    """Average sum_s exp(-i*delta*shift_s) * T_s over the bath.

    ``terms_by_shift`` maps a shift key to a (n,) complex array;
    ``durations_of(key)`` returns the (n,) array of phase durations for
    that key. Returns (mean, stderr or None).

    ``mc`` adds a key with all-zero durations without a phase, and gives
    a key whose durations negate an earlier key's bit for bit (IEEE
    negation is exact) the conjugate of that key's phase. Memory grows
    as 8 bytes x samples x points, plus two complex blocks of
    ``_MC_BLOCK`` samples, which the phases held for their mirrors
    share; stderr takes ``_STD_COLUMNS`` points at a time.
    """
    keys = list(terms_by_shift)
    if bath is None:
        total = sum(terms_by_shift[k] for k in keys)
        return np.real(total), None
    if mode == "exact":
        total = 0.0
        for k in keys:
            total = total + bath.characteristic_function(durations_of(k)) \
                * terms_by_shift[k]
        return np.real(total), None
    # Monte Carlo over frozen detunings: dynamics are linear in the phase
    # factors, so averaging the phases exactly averages per-donor traces
    n_points = len(next(iter(terms_by_shift.values())))
    pairs = [(durations_of(k), terms_by_shift[k]) for k in keys]
    mirror_of, unmatched = {}, {}
    for i, (durations, _) in enumerate(pairs):
        if durations.tobytes() in unmatched:
            mirror_of[i] = unmatched.pop(durations.tobytes())
        elif np.any(durations):
            unmatched[(-durations).tobytes()] = i
    held_keys = set(mirror_of.values())
    # the held phases and one product share two blocks of _MC_BLOCK
    rows = 2 * _MC_BLOCK // (1 + len(held_keys))
    values = np.zeros((len(samples), n_points))
    for start in range(0, len(samples), rows):
        block, held, phase = samples[start:start + rows], {}, None
        # a complex sum adds the real parts alone: sum them in place
        acc = values[start:start + rows]
        for i, (durations, terms) in enumerate(pairs):
            if not np.any(durations):
                acc += terms.real
                continue
            if i in mirror_of:
                phase = held.pop(mirror_of[i])
                np.conjugate(phase, out=phase)
            else:
                phase = np.multiply.outer(block, -1j * durations)
                np.exp(phase, out=phase)
            if i in held_keys:
                held[i], phase = phase, phase * terms
            else:
                phase *= terms
            acc += phase.real
    mean = values.mean(axis=0)
    stderr = np.zeros(n_points)
    if len(samples) > 1:
        # a lone column slice sums pairwise, not row by row: never leave one
        starts = list(range(0, max(n_points - 1, 1), _STD_COLUMNS))
        for a, b in zip(starts, starts[1:] + [n_points]):
            stderr[a:b] = values[:, a:b].std(axis=0, ddof=1) \
                / math.sqrt(len(samples))
    return mean, stderr


def _resolve_ensemble(bath, mode, n, seed):
    if mode not in _ENSEMBLE_MODES:
        raise ValidationError(f"unknown ensemble mode {mode!r}; choose "
                              + " or ".join(map(repr, _ENSEMBLE_MODES)))
    if bath is None or mode == "exact":
        return None
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    if n < 1:
        raise ValidationError(f"bath_samples must be >= 1, got {n}")
    return bath.sample_detunings(rng, n)


def _check_sampling(taus: np.ndarray, larmor: float, label: str):
    if len(taus) < 2:
        return
    steps = np.diff(np.sort(taus))
    steps = steps[steps > 0]
    if steps.size == 0:
        return
    limit = (2.0 * math.pi / larmor) / 8.0
    # a step is a difference of two delays, each rounded to its spacing
    slack = limit * 1e-9 + 2.0 * np.spacing(np.max(np.abs(taus)))
    if steps.max() > limit + slack:
        raise ValidationError(
            f"{label} step {steps.max():.3e} s would alias the spin "
            f"precession; use a step of at most {limit:.3e} s")


def _clip_populations(values: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise NumericsError("population is not finite")
    if np.any(values < -tol) or np.any(values > 1.0 + tol):
        raise NumericsError(
            f"population left [0, 1] by more than {tol}: "
            f"range [{values.min():.3e}, {values.max():.3e}]")
    return np.clip(values, 0.0, 1.0)


def _split_gap(silence, u, taus, mults):
    """Split one branch across a gap; ``mults`` scale its ground coherence."""
    groups = silence.split_by_detuning(u, taus)
    for s in (1, -1):
        groups[s][:, _GROUND_COHERENCES] *= np.asarray(mults)[:, None]
    return groups


def _contract(window, silence, rho0, gaps, mults, scan, scan_mult, bath,
              mode, samples, abscissa, abscissa_name) -> ExperimentTrace:
    """Equal pulse windows separated by silent gaps, the last one scanned.

    The window acts on ``rho0``; each fixed gap (with its injected
    ground-coherence factor from ``mults``) splits every branch into
    its detuning groups and is followed by another window. The scanned
    gap ``scan`` (factors ``scan_mult``) splits each branch once, and
    that split is contracted against the final window's p_up and p_down
    rows. A key holds one sign per gap, and its phase duration is
    sum(s * gap).
    """
    branches = {(): window @ rho0.reshape(16)}
    for gap, mult in zip(gaps, mults):
        branches = {key + (s,): window @ v[0]
                    for key, u in branches.items()
                    for s, v in _split_gap(silence, u, [gap], [mult]).items()}
    scanned = {key + (s,): v
               for key, u in branches.items()
               for s, v in _split_gap(silence, u, scan, scan_mult).items()}

    def durations(key):
        return sum((s * gap for s, gap in zip(key, gaps)), key[-1] * scan)

    results = {}
    for name, flat in (("p_up", _UP_FLAT), ("p_down", _DOWN_FLAT)):
        terms = {key: v @ window[flat] for key, v in scanned.items()}
        mean, stderr = _ensemble_reduce(terms, bath, mode, samples, durations)
        results[name] = (_clip_populations(mean), stderr)
    return ExperimentTrace(
        abscissa=abscissa, abscissa_name=abscissa_name,
        p_up=results["p_up"][0], p_down=results["p_down"][0],
        p_up_stderr=results["p_up"][1],
        p_down_stderr=results["p_down"][1]).validate()


# ---------------------------------------------------------------------------
# single-pulse experiments


def _pulse_populations(energies, levels, pulse, dissipators, initial,
                       expm_steps, flats, integrator=None):
    """Populations after one control pulse, one propagator per energy.

    Returns one clipped (n,) array per flat density-matrix index in
    ``flats``, all read from the same pulse-window propagator.
    """
    v0 = _as_matrix(initial).reshape(16)
    out = np.empty((len(flats), len(energies)))
    for k, energy in enumerate(energies):
        w = pulse_window_propagator(levels, replace(pulse, energy=float(energy)),
                                    dissipators, config=integrator,
                                    expm_steps=expm_steps)
        for j, flat in enumerate(flats):
            out[j, k] = float(np.real(w[flat] @ v0))
    return [_clip_populations(row) for row in out]


def rabi_populations(energies, levels: LevelScheme, pulse: PulseSpec,
                     dissipators: DissipatorSet, initial=None,
                     integrator: IntegratorConfig | None = None,
                     expm_steps: int = 256,
                     observable: str = "p_up") -> np.ndarray:
    """Population after one control pulse, per pulse energy."""
    flat = {"p_up": _UP_FLAT, "p_down": _DOWN_FLAT}.get(observable)
    if flat is None:
        raise ValidationError(f"unknown observable {observable!r}")
    return _pulse_populations(energies, levels, pulse, dissipators, initial,
                              expm_steps, (flat,), integrator)[0]


def run_rabi_sweep(energies, levels: LevelScheme, pulse: PulseSpec,
                   dissipators: DissipatorSet,
                   pump: PumpSettings | None = None,
                   expm_steps: int = 1024) -> ExperimentTrace:
    """Spin-flip probability against single-pulse energy.

    The state before each pulse is the optical-pump output when
    ``pump`` is given (so residual pump infidelity shows at zero
    energy), else the ideal spin-down state.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or len(energies) == 0:
        raise ValidationError("energies must be a non-empty 1-D sequence")
    if np.any(energies < 0):
        raise ValidationError("pulse energies must be non-negative")
    rho0 = _prepare_initial(None, pump, levels, dissipators)
    p_up, p_down = _pulse_populations(energies, levels, pulse, dissipators,
                                      rho0, expm_steps, (_UP_FLAT, _DOWN_FLAT))
    return ExperimentTrace(abscissa=energies, abscissa_name="pulse_energy_J",
                           p_up=p_up, p_down=p_down).validate()


# ---------------------------------------------------------------------------
# Ramsey interferometry


def ramsey_window_plan(centers, larmor: float, periods: float = 2.0,
                       points_per_period: int = 9):
    """Delay windows for fringe-amplitude extraction.

    Each window spans ``periods`` precession periods around a center
    with ``points_per_period`` samples per period, satisfying the
    anti-aliasing step bound of one eighth of a period.
    """
    if points_per_period < 8:
        raise ValidationError("points_per_period must be >= 8 to stay below "
                              "the aliasing limit")
    period = 2.0 * math.pi / larmor
    count = max(int(round(periods * points_per_period)) + 1, 4)
    offsets = np.linspace(-0.5 * periods * period, 0.5 * periods * period,
                          count)
    return [np.asarray(c, dtype=float) + offsets for c in np.atleast_1d(centers)]


@dataclass
class RamseyResult:
    """Ramsey trace plus per-window fringe analysis."""

    trace: ExperimentTrace
    window_centers: np.ndarray
    visibilities: np.ndarray
    visibility_stderr: np.ndarray


def _ramsey_windows_input(tau):
    if isinstance(tau, (list, tuple)) and len(tau) \
            and isinstance(tau[0], (list, tuple, np.ndarray)):
        windows = [np.asarray(w, dtype=float) for w in tau]
    else:
        windows = [np.asarray(tau, dtype=float)]
    for w in windows:
        if w.ndim != 1 or len(w) == 0:
            raise ValidationError("each delay window must be a non-empty "
                                  "1-D sequence")
        if np.any(np.diff(w) <= 0):
            raise ValidationError("delays within a window must be strictly "
                                  "increasing")
    return windows


def run_ramsey(tau, levels: LevelScheme, pulse: PulseSpec,
               dissipators: DissipatorSet, bath: BathModel | None = None,
               ensemble_mode: str = "exact", bath_samples: int = 1000,
               seed=None, injected: InjectedDecoherence | None = None,
               expm_steps: int = 1024) -> RamseyResult:
    """Two-pulse interferometer scanned over the inter-pulse delay.

    The sequence starts from the ideal spin-down state. ``tau`` is
    either one array of delays (a single window) or a list of arrays
    (one fringe window each). Delays are center-to-center;
    each must be zero or at least one full pulse window (2w). The
    population oscillates at the spin precession frequency, and the
    per-window fringe amplitude carries the dephasing envelope.

    Ensemble handling: ``exact`` contracts with the bath's
    characteristic function (no sampling noise); ``mc`` averages
    ``bath_samples`` frozen detunings and attaches standard errors.
    """
    windows = _ramsey_windows_input(tau)
    w = pulse.half_window
    larmor = levels.electron_splitting
    for win in windows:
        if np.any((win != 0.0) & (win < 2.0 * w - 1e-18)):
            raise ValidationError(
                f"delays must be 0 or >= one full pulse window (2w = "
                f"{2 * w:.3e} s); shorter delays overlap the pulses")
        if len(win) >= 4:
            # windows this size get a fringe fit, which needs
            # alias-free sampling of the precession
            _check_sampling(win, larmor, "delay")

    samples = _resolve_ensemble(bath, ensemble_mode, bath_samples, seed)
    window = pulse_window_propagator(levels, pulse, dissipators,
                                     expm_steps=expm_steps)
    all_tau = np.concatenate(windows)
    mult = injected.ratio(0.0, all_tau) if injected is not None \
        else np.ones_like(all_tau)
    trace = _contract(window, SilencePropagator(levels, dissipators),
                      _as_matrix(None), (), (),
                      np.maximum(all_tau - 2.0 * w, 0.0), mult, bath,
                      ensemble_mode, samples, all_tau, "tau_s")

    centers, vis, vis_err = [], [], []
    start = 0
    for win in windows:
        stop = start + len(win)
        centers.append(float(np.mean(win)))
        if len(win) >= 4:
            stderr = trace.p_up_stderr[start:stop] \
                if trace.p_up_stderr is not None else None
            fit = fit_fringe(win, trace.p_up[start:stop],
                             known_frequency=larmor, stderr=stderr)
            vis.append(fit.visibility)
            vis_err.append(fit.visibility_stderr)
        else:
            vis.append(math.nan)
            vis_err.append(math.nan)
        start = stop
    return RamseyResult(
        trace=trace,
        window_centers=np.asarray(centers),
        visibilities=np.asarray(vis),
        visibility_stderr=np.asarray(vis_err),
    )


def fringe_visibilities(energies, levels: LevelScheme, pulse: PulseSpec,
                        dissipators: DissipatorSet,
                        expm_steps: int = 256) -> np.ndarray:
    """Ramsey fringe amplitude against pulse energy (fixed short delay).

    This is the second dataset of the joint pulse-response fit: for
    each energy a two-pulse scan over one fringe window is run (no
    bath) and the fixed-frequency amplitude extracted.
    """
    energies = np.asarray(energies, dtype=float)
    larmor = levels.electron_splitting
    out = np.empty(len(energies))
    for k, energy in enumerate(energies):
        p = replace(pulse, energy=float(energy))
        window = ramsey_window_plan([2.0 * p.half_window
                                     + 4.0 * math.pi / larmor],
                                    larmor, periods=2.0)[0]
        window = window[window >= 2.0 * p.half_window]
        result = run_ramsey(window, levels, p, dissipators,
                            expm_steps=expm_steps)
        out[k] = result.visibilities[0]
    return out


# ---------------------------------------------------------------------------
# three-pulse echo


@dataclass
class EchoResult:
    """One echo point: fringe scan at fixed tau1, swept tau2."""

    total_time: float
    amplitude: float
    amplitude_stderr: float
    trace: ExperimentTrace


def run_echo(tau1: float, tau2, levels: LevelScheme, pulse: PulseSpec,
             dissipators: DissipatorSet, bath: BathModel | None = None,
             ensemble_mode: str = "exact", bath_samples: int = 1000,
             seed=None, initial=None, pump: PumpSettings | None = None,
             injected: InjectedDecoherence | None = None,
             expm_steps: int = 1024, *,
             _window: np.ndarray | None = None) -> EchoResult:
    """Three equal pulses at 0, tau1, tau1+tau2; scan tau2, read p_up.

    A static detuning acquired over tau1 unwinds over tau2, so the
    oscillation amplitude of p_up versus tau2 peaks at the echo
    condition tau2 = tau1 and, for a purely static bath, is independent
    of tau1 + tau2. An ``injected`` channel multiplies the ground
    coherence by its cumulative envelope and is what a decay fit
    recovers. ``_window`` is a prebuilt pulse-window propagator for
    this pulse, shared by the points of :func:`run_echo_decay`.
    """
    tau2 = np.asarray(tau2, dtype=float)
    if tau2.ndim != 1 or len(tau2) == 0:
        raise ValidationError("tau2 must be a non-empty 1-D sequence")
    if np.any(np.diff(tau2) <= 0):
        raise ValidationError("tau2 values must be strictly increasing")
    w = pulse.half_window
    if tau1 < 2.0 * w:
        raise ValidationError(f"tau1 must be >= one full pulse window "
                              f"(2w = {2 * w:.3e} s)")
    if tau2[0] < 2.0 * w:
        raise ValidationError(f"tau2 must be >= one full pulse window "
                              f"(2w = {2 * w:.3e} s)")
    larmor = levels.electron_splitting
    _check_sampling(tau2, larmor, "tau2")

    samples = _resolve_ensemble(bath, ensemble_mode, bath_samples, seed)
    rho0 = _prepare_initial(initial, pump, levels, dissipators)
    window = _window if _window is not None else pulse_window_propagator(
        levels, pulse, dissipators, expm_steps=expm_steps)

    mult1 = float(injected.ratio(0.0, tau1)) if injected is not None else 1.0
    mult2 = injected.ratio(tau1, tau1 + tau2) if injected is not None \
        else np.ones_like(tau2)
    trace = _contract(window, SilencePropagator(levels, dissipators), rho0,
                      (tau1 - 2.0 * w,), (mult1,), tau2 - 2.0 * w, mult2,
                      bath, ensemble_mode, samples, tau2, "tau2_s")

    fringe = fit_fringe(tau2, trace.p_up, known_frequency=larmor,
                        stderr=trace.p_up_stderr)
    return EchoResult(
        total_time=float(tau1 + np.mean(tau2)),
        amplitude=fringe.visibility,
        amplitude_stderr=fringe.visibility_stderr,
        trace=trace,
    )


@dataclass
class EchoDecayResult:
    """Echo amplitude against total evolution time."""

    total_times: np.ndarray
    amplitudes: np.ndarray
    amplitude_stderr: np.ndarray
    points: list

    def as_rows(self):
        header = ["echo_total_s", "amplitude", "amplitude_stderr"]
        rows = list(zip(self.total_times, self.amplitudes,
                        self.amplitude_stderr))
        return header, rows


def run_echo_decay(tau1_values, levels: LevelScheme, pulse: PulseSpec,
                   dissipators: DissipatorSet, periods: float = 2.0,
                   points_per_period: int = 9, *, initial=None,
                   pump: PumpSettings | None = None,
                   expm_steps: int = 1024, **kwargs) -> EchoDecayResult:
    """Echo amplitude versus total time: one fringe scan per tau1.

    Each tau1 gets a tau2 scan of ``periods`` precession periods
    centered on the echo condition tau2 = tau1. The initial state and
    the pulse propagator are prepared once and shared by every point.
    Keyword arguments pass through to :func:`run_echo`.
    """
    tau1_values = np.asarray(tau1_values, dtype=float)
    if tau1_values.ndim != 1 or len(tau1_values) == 0:
        raise ValidationError("tau1_values must be a non-empty 1-D sequence")
    larmor = levels.electron_splitting
    rho0 = _prepare_initial(initial, pump, levels, dissipators)
    window = pulse_window_propagator(levels, pulse, dissipators,
                                     expm_steps=expm_steps)
    points = []
    for tau1 in tau1_values:
        scan = ramsey_window_plan([tau1], larmor, periods,
                                  points_per_period)[0]
        points.append(run_echo(float(tau1), scan, levels, pulse, dissipators,
                               initial=rho0, expm_steps=expm_steps,
                               _window=window, **kwargs))
    return EchoDecayResult(
        total_times=np.array([p.total_time for p in points]),
        amplitudes=np.array([p.amplitude for p in points]),
        amplitude_stderr=np.array([p.amplitude_stderr for p in points]),
        points=points,
    )


# ---------------------------------------------------------------------------
# T1 recovery


@dataclass
class T1RecoveryResult:
    trace: ExperimentTrace
    fitted_t1: float
    fit: FitResult
    pump: PumpResult


def run_t1_recovery(wait_values, levels: LevelScheme,
                    dissipators: DissipatorSet,
                    pump: PumpSettings) -> T1RecoveryResult:
    """Pump, wait, read: population recovery toward the thermal mixture.

    The spin-flip channel drives the ground populations to 1/2 each at
    the configured relaxation rate; an exponential fit of p_up against
    the wait time returns the relaxation time.
    """
    wait_values = np.asarray(wait_values, dtype=float)
    if wait_values.ndim != 1 or len(wait_values) < 4:
        raise ValidationError("wait_values must hold at least four delays "
                              "to fit the three-parameter recovery")
    if np.any(wait_values < 0):
        raise ValidationError("wait values must be non-negative")
    pumped = optical_pump(DensityMatrix.scrambled().matrix, levels,
                          pump.rabi, pump.duration, dissipators, pump.samples)
    silence = SilencePropagator(levels, dissipators)
    p_up = np.empty(len(wait_values))
    p_down = np.empty(len(wait_values))
    for k, wait in enumerate(wait_values):
        rho = silence.propagate(pumped.final.matrix, float(wait))
        p_up[k] = float(rho[GROUND_UP, GROUND_UP].real)
        p_down[k] = float(rho[GROUND_DOWN, GROUND_DOWN].real)
    trace = ExperimentTrace(
        abscissa=wait_values, abscissa_name="wait_s",
        p_up=_clip_populations(p_up),
        p_down=_clip_populations(p_down)).validate()
    result = fit_curve("exp_decay", wait_values, trace.p_up)
    return T1RecoveryResult(trace=trace,
                            fitted_t1=result.parameters["t_decay"],
                            fit=result, pump=pumped)
