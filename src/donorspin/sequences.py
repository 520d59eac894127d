"""Pulse-sequence experiments over the four-level model.

Every experiment here is a composition of three exactly reusable
pieces: a pulse-window superoperator (numerically integrated once per
pulse shape and energy), the analytic between-pulse propagator, and an
average over the frozen Overhauser detuning of each donor.

Every pulse experiment is one contraction: pulse windows separated by
silent gaps, one row per scan point. A Rabi scan has no gap and one
window per energy. Every fringe scan runs through one driver,
``_fringe_scans``, which turns each row's delays into gaps: a Ramsey
scan has one, as has the joint fit's fringe side with rows of every
energy; an echo has two, tau1 and the scanned tau2. The detuning
enters only through phase factors on coherences involving the spin-up
level, so :meth:`SilencePropagator.split_by_detuning` splits each
row's state across its gap into detuning groups s in (0, +1, -1) that
gain exp(-i*delta*s*gap). Each gap splits the whole
(keys, n, 16) stack of pathways in one call; a pathway holds one sign
per gap, and its phase duration is sum(s * gap), a (keys, n) array.
The detuning-independent complex amplitude of each key is contracted
with the bath's characteristic function at that duration (``exact``
ensemble mode) or, when samples are drawn, their empirical phase
average (``mc`` mode), so a thousand-sample Ramsey scan costs
milliseconds, not hours. A T1 wait crosses the same split and reads
its populations from group 0. One check reads the population rows of
every contraction and of a T1 recovery.

Timing convention: delays are pulse-center to pulse-center, and the
drive-free stretch between two windows of half-width w is that delay
minus 2w. A zero delay composes the two windows back to back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bath import BathModel
from .errors import NumericsError, ValidationError
from .fitting import fit_curve, fit_fringe
from .hamiltonian import (
    EXCITED_LOWER,
    EXCITED_UPPER,
    GROUND_DOWN,
    GROUND_UP,
    LevelScheme,
    PulseSpec,
)
from .lindblad import (
    _SIGNS,
    _generator,
    _grid,
    _step_table,
    DensityMatrix,
    DissipatorSet,
    IntegratorConfig,
    SilencePropagator,
    expm,
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
_MC_BLOCK = 512  # mc samples per block of the streamed average
_MC_SAMPLES_CAP = 10 ** 7  # most bath samples a run may draw
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
    )


def _prepare_initial(pump, levels, dissipators):
    if pump is not None:
        return optical_pump(DensityMatrix.scrambled().matrix, levels,
                            pump.rabi, pump.duration, dissipators,
                            pump.samples).final.matrix
    return _as_matrix(None)


# ---------------------------------------------------------------------------
# the contraction


def _ensemble_reduce(terms, durations, bath, samples):
    """Average sum_k exp(-i*delta*durations[k]) * terms[k] over the bath.

    ``terms`` (complex) and ``durations`` are (keys, n) arrays. Returns
    (mean, stderr or None).

    Without ``samples`` the sum is exact, each key weighted by the
    bath's characteristic function (bare with no bath), in key order.
    With ``mc`` samples, keys with all-zero durations add without a
    phase, and the others merge into one term per duration up to sign:
    a key whose durations negate a merged key's bit for bit (IEEE
    negation is exact) adds its conjugate terms, since
    Re(e^{+i delta d} T) = Re(e^{-i delta d} conj T). Blocks of
    ``_MC_BLOCK`` samples stream into a running sum and sum of squared
    deviations (the pairwise update of Chan, Golub & LeVeque, Am. Stat.
    37, 242 (1983)), so memory is a few (block, points) arrays for any
    sample count.
    """
    if samples is None:
        total = 0.0  # a bath-free term adds bare: (1+0j) * (x+inf*j) is nan
        for term, duration in zip(terms, durations):
            if bath is not None:
                term = bath.characteristic_function(duration) * term
            total = total + term
        return np.real(total), None
    # Monte Carlo over frozen detunings: dynamics are linear in the phase
    # factors, so averaging the phases exactly averages per-donor traces
    n_points = terms.shape[1]
    still, merged = 0.0, {}
    for term, duration in zip(terms, durations):
        if not np.any(duration):
            still = still + term.real
            continue
        if (-duration).tobytes() in merged:
            duration, term = -duration, np.conj(term)
        entry = merged.setdefault(duration.tobytes(), [duration, 0.0])
        entry[1] = entry[1] + term
    n, total, m2 = 0, 0.0, 0.0
    for start in range(0, len(samples), _MC_BLOCK):
        block = samples[start:start + _MC_BLOCK]
        values = np.zeros((len(block), n_points))
        for durations, terms in merged.values():
            phase = np.multiply.outer(block, -1j * durations)
            np.exp(phase, out=phase)
            phase *= terms
            values += phase.real
        # Chan et al.: fold the block's sum and squared deviations in
        block_total = values.sum(axis=0)
        block_m2 = np.square(values - block_total / len(block)).sum(axis=0)
        delta = block_total / len(block) - total / max(n, 1)
        m2 = m2 + block_m2 + delta ** 2 * (n * len(block) / (n + len(block)))
        n, total = n + len(block), total + block_total
    stderr = np.sqrt(m2 / (n - 1) / n) if n > 1 else np.zeros(n_points)
    return still + total / n, stderr


def _resolve_ensemble(bath, mode, n, seed):
    """The Monte Carlo detunings of a run, or None for an exact sum."""
    if mode not in _ENSEMBLE_MODES:
        raise ValidationError(f"unknown ensemble mode {mode!r}; choose "
                              + " or ".join(map(repr, _ENSEMBLE_MODES)))
    if bath is None or mode == "exact":
        return None
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    if not 1 <= n <= _MC_SAMPLES_CAP:
        raise ValidationError(f"bath_samples must lie in [1, "
                              f"{_MC_SAMPLES_CAP}], got {n}")
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


def _clip_populations(p_up, p_down, tol: float = 1e-6):
    """Both population rows, checked and clipped to [0, 1].

    A non-finite value, a row outside [0, 1] or a pair summing above 1,
    by more than ``tol``, raises NumericsError stating the excursion.
    """
    if not np.all(np.isfinite(p_up + p_down)):
        raise NumericsError("population is not finite")
    up, down = np.clip(p_up, 0.0, 1.0), np.clip(p_down, 0.0, 1.0)
    for what, excess in (
            ("p_up left [0, 1]", np.abs(p_up - up).max(initial=0.0)),
            ("p_down left [0, 1]", np.abs(p_down - down).max(initial=0.0)),
            ("p_up + p_down exceeds 1", (up + down).max(initial=1.0) - 1.0)):
        if excess > tol:
            raise NumericsError(f"{what} by {excess:.3e}, more than {tol}")
    return up, down


def _contract(window, rho0, abscissa, abscissa_name, silence=None, gaps=(),
              mults=(), bath=None, samples=None) -> ExperimentTrace:
    """Pulse windows separated by silent gaps, one row per point.

    ``window`` is one (16, 16) window for all rows or an (n, 16, 16)
    stack, one per row; it acts on ``rho0``. Gap j of row k lasts
    ``gaps[j][k]`` and scales the ground coherence by ``mults[j][k]``.
    Each gap splits the (keys, n, 16) stack of branches in one call,
    each branch followed by its groups in the split's order, and the
    next window acts on every branch; their (keys, n) phase durations
    sum(s * gap) grow alike. The final window's p_up and p_down rows
    read the last split (``rho0`` with no gap).
    """
    n = len(abscissa)
    states = np.broadcast_to(rho0.reshape(16), (1, n, 16))
    # -0.0 adds as an exact identity: a zero gap keeps the mc merge's sign
    durations = np.full((1, n), -0.0)
    for gap, mult in zip(gaps, mults):
        # a stack of matrix-vector products keeps the bits of one
        # product per row, which v @ window.T does not
        split = silence.split_by_detuning(
            (window @ states[..., None])[..., 0], gap)
        states = np.stack([split[s] for s in _SIGNS], axis=1).reshape(
            3 * len(states), n, 16)
        states[..., _GROUND_COHERENCES] *= mult[:, None]
        durations = (durations[:, None]
                     + np.multiply.outer(_SIGNS, gap)).reshape(len(states), n)

    rows = []
    for flat in (_UP_FLAT, _DOWN_FLAT):
        # one dot per row keeps the bits of a gemv and of a lone dot
        terms = np.einsum("...i,...i->...", window[..., flat, :], states,
                          optimize=True)
        rows.append(_ensemble_reduce(terms, durations, bath, samples))
    (p_up, up_err), (p_down, down_err) = rows
    return ExperimentTrace(abscissa, abscissa_name,
                           *_clip_populations(p_up, p_down), up_err, down_err)


def _fringe_scans(scans, leads, window, levels, pulse, dissipators,
                  bath=None, ensemble_mode="exact", bath_samples=1000,
                  seed=None, pump=None, injected=None, expm_steps=1024):
    """Fringe scans of one pulse sequence as one contraction.

    Row k of scan i runs the delays ``leads[0][i], ..., leads[-1][i]``,
    then ``scans[i][k]``, between equal pulses: a Ramsey scan of tau has
    no lead, an echo scan of tau2 the one tau1. Every scan and lead is
    checked first; only a scan with no lead may hold a zero delay. The
    bath is drawn, the initial state prepared and, unless ``window``
    gives one per row, the pulse window built once. Each delay becomes
    the gap max(delay - 2w, 0) and the ``injected`` envelope ratio over
    its stretch of the sequence clock. Returns the joined trace and, per
    scan, its center on that clock and its visibility and stderr fitted
    at the precession frequency (nan below four points).
    """
    w = pulse.half_window
    larmor = levels.electron_splitting
    *lead_names, name = [f"tau{j + 1}" for j in range(len(leads) + 1)] \
        if leads else ["tau"]
    leads = [np.asarray(lead, dtype=float) for lead in leads]
    scans = [np.asarray(scan, dtype=float) for scan in scans]
    for lead_name, lead in zip(lead_names, leads):
        if not np.all(np.isfinite(lead)) or np.any(lead < 2.0 * w):
            raise ValidationError(f"{lead_name} must be finite and >= one "
                                  f"full pulse window (2w = {2 * w:.3e} s)")
    for scan in scans:
        if scan.ndim != 1 or len(scan) == 0 or not np.all(np.isfinite(scan)):
            raise ValidationError(f"each {name} scan must be a non-empty "
                                  "1-D sequence of finite values")
        if np.any(np.diff(scan) <= 0):
            raise ValidationError(f"{name} values must be strictly "
                                  "increasing")
        short = scan < 2.0 * w - 1e-18
        if not leads:
            short &= scan != 0.0  # the two pulses back to back
        if np.any(short):
            raise ValidationError(
                f"{name} values must be {'' if leads else '0 or '}>= one "
                f"full pulse window (2w = {2 * w:.3e} s); shorter delays "
                "overlap the pulses")
        if len(scan) >= 4:  # a fringe fit needs alias-free sampling
            _check_sampling(scan, larmor, name)

    samples = _resolve_ensemble(bath, ensemble_mode, bath_samples, seed)
    rho0 = _prepare_initial(pump, levels, dissipators)
    if window is None:
        window = pulse_window_propagator(levels, pulse, dissipators,
                                         expm_steps=expm_steps)
    spans = [np.repeat(lead, list(map(len, scans))) for lead in leads]
    spans.append(np.concatenate(scans) if scans else np.empty(0))
    gaps, mults, start = [], [], 0.0
    for span in spans:
        gaps.append(np.maximum(span - 2.0 * w, 0.0))
        mults.append(np.ones_like(span) if injected is None
                     else injected.ratio(start, start + span))
        start = start + span
    trace = _contract(window, rho0, spans[-1], f"{name}_s",
                      SilencePropagator(levels, dissipators), gaps, mults,
                      bath, samples)

    fits, stop = [], 0
    for i, scan in enumerate(scans):
        rows, stop = slice(stop, stop + len(scan)), stop + len(scan)
        vis = err = math.nan
        if len(scan) >= 4:
            fit = fit_fringe(scan, trace.p_up[rows], known_frequency=larmor,
                             stderr=None if trace.p_up_stderr is None
                             else trace.p_up_stderr[rows])
            vis, err = fit.visibility, fit.visibility_stderr
        fits.append((sum(lead[i] for lead in leads) + float(np.mean(scan)),
                     vis, err))
    return trace, np.reshape(fits, (-1, 3)).T


# ---------------------------------------------------------------------------
# single-pulse experiments


def _windows(energies, levels, pulse, dissipators, expm_steps,
             integrator=None):
    """(n, 16, 16) pulse windows, one per energy, sharing one step table."""
    top = replace(pulse, energy=float(np.max(energies, initial=0.0)))
    config = integrator or IntegratorConfig(method="fixed-expm")
    table = () if config.method != "fixed-expm" else _step_table(
        _generator(levels, top, dissipators, 0.0, True),
        *_grid(top, config, expm_steps))
    return np.array([
        pulse_window_propagator(levels, replace(pulse, energy=float(energy)),
                                dissipators, config=integrator,
                                expm_steps=expm_steps, _table=table)
        for energy in energies]).reshape(-1, 16, 16)


def rabi_populations(energies, levels: LevelScheme, pulse: PulseSpec,
                     dissipators: DissipatorSet, initial=None,
                     integrator: IntegratorConfig | None = None,
                     expm_steps: int = 256) -> np.ndarray:
    """p_up after one control pulse per energy, read as in a Rabi sweep."""
    return _contract(_windows(energies, levels, pulse, dissipators,
                              expm_steps, integrator),
                     _as_matrix(initial), energies, "pulse_energy_J").p_up


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
    if not np.all(np.isfinite(energies)) or np.any(energies < 0):
        raise ValidationError("pulse energies must be finite and "
                              "non-negative")
    rho0 = _prepare_initial(pump, levels, dissipators)
    return _contract(_windows(energies, levels, pulse, dissipators,
                              expm_steps), rho0, energies, "pulse_energy_J")


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
    scans = tau if isinstance(tau, (list, tuple)) and len(tau) \
        and isinstance(tau[0], (list, tuple, np.ndarray)) else [tau]
    trace, fits = _fringe_scans(
        scans, (), None, levels, pulse, dissipators, bath, ensemble_mode,
        bath_samples, seed, injected=injected, expm_steps=expm_steps)
    return RamseyResult(trace, *fits)


def fringe_visibilities(energies, levels: LevelScheme, pulse: PulseSpec,
                        dissipators: DissipatorSet,
                        expm_steps: int = 256) -> np.ndarray:
    """Ramsey fringe amplitude against pulse energy (fixed short delay).

    This is the second dataset of the joint pulse-response fit: for
    each energy, a two-pulse scan (no bath) over one fringe window and
    the amplitude fitted at the precession frequency. The window does
    not depend on the energy, so all energies share one contraction.
    """
    energies = np.asarray(energies, dtype=float)
    larmor = levels.electron_splitting
    # two precession periods past the pulse overlap, so every delay > 2w
    delays = ramsey_window_plan([2.0 * pulse.half_window
                                 + 4.0 * math.pi / larmor], larmor,
                                periods=2.0)[0]
    windows = np.repeat(_windows(energies, levels, pulse, dissipators,
                                 expm_steps), len(delays), axis=0)
    return _fringe_scans([delays] * len(energies), (), windows, levels,
                         pulse, dissipators)[1][1]


# ---------------------------------------------------------------------------
# three-pulse echo


@dataclass
class EchoResult:
    """One echo point: fringe scan at fixed tau1, swept tau2."""

    amplitude: float
    amplitude_stderr: float
    trace: ExperimentTrace


def run_echo(tau1: float, tau2, levels: LevelScheme, pulse: PulseSpec,
             dissipators: DissipatorSet, bath: BathModel | None = None,
             ensemble_mode: str = "exact", bath_samples: int = 1000,
             seed=None, pump: PumpSettings | None = None,
             injected: InjectedDecoherence | None = None,
             expm_steps: int = 1024) -> EchoResult:
    """Three equal pulses at 0, tau1, tau1+tau2; scan tau2, read p_up.

    A static detuning acquired over tau1 unwinds over tau2, so the
    oscillation amplitude of p_up versus tau2 peaks at the echo
    condition tau2 = tau1 and, for a purely static bath, is independent
    of tau1 + tau2. An ``injected`` channel multiplies the ground
    coherence by its cumulative envelope and is what a decay fit
    recovers. A scan of fewer than four points has a nan amplitude.
    """
    trace, (_, (amplitude,), (stderr,)) = _fringe_scans(
        [tau2], ([tau1],), None, levels, pulse, dissipators, bath,
        ensemble_mode, bath_samples, seed, pump, injected, expm_steps)
    return EchoResult(amplitude, stderr, trace)


@dataclass
class EchoDecayResult:
    """Echo amplitude against total evolution time."""

    total_times: np.ndarray
    amplitudes: np.ndarray
    amplitude_stderr: np.ndarray
    trace: ExperimentTrace

    def as_rows(self):
        header = ["echo_total_s", "amplitude", "amplitude_stderr"]
        rows = list(zip(self.total_times, self.amplitudes,
                        self.amplitude_stderr))
        return header, rows


def run_echo_decay(tau1_values, levels: LevelScheme, pulse: PulseSpec,
                   dissipators: DissipatorSet, periods: float = 2.0,
                   points_per_period: int = 9, **kwargs) -> EchoDecayResult:
    """Echo amplitude versus total time: one fringe scan per tau1.

    Each tau1 gets a tau2 scan of ``periods`` precession periods
    centered on the echo condition tau2 = tau1. One draw of the bath,
    one initial state and one pulse propagator serve every scan, and
    ``trace`` joins the scans in order. Keyword arguments are those of
    :func:`run_echo`.
    """
    tau1_values = np.asarray(tau1_values, dtype=float)
    if tau1_values.ndim != 1 or len(tau1_values) == 0:
        raise ValidationError("tau1_values must be a non-empty 1-D sequence")
    scans = ramsey_window_plan(tau1_values, levels.electron_splitting,
                               periods, points_per_period)
    trace, fits = _fringe_scans(scans, (tau1_values,), None, levels, pulse,
                                dissipators, **kwargs)
    return EchoDecayResult(*fits, trace)


# ---------------------------------------------------------------------------
# T1 recovery


@dataclass
class T1RecoveryResult:
    trace: ExperimentTrace
    fitted_t1: float
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
    if not np.all(np.isfinite(wait_values)) or np.any(wait_values < 0):
        raise ValidationError("wait values must be finite and non-negative")
    pumped = optical_pump(DensityMatrix.scrambled().matrix, levels,
                          pump.rabi, pump.duration, dissipators, pump.samples)
    rows = SilencePropagator(levels, dissipators).split_by_detuning(
        pumped.final.matrix.reshape(16), wait_values)[0].real
    trace = ExperimentTrace(wait_values, "wait_s", *_clip_populations(
        rows[:, _UP_FLAT], rows[:, _DOWN_FLAT]))
    fitted_t1 = fit_curve("exp_decay", wait_values,
                          trace.p_up).parameters["t_decay"]
    return T1RecoveryResult(trace=trace, fitted_t1=fitted_t1, pump=pumped)


# ---------------------------------------------------------------------------
# runners: a parsed run config to its trace files and summary values


def _execute_rabi(config) -> tuple:
    exp = config.experiment
    trace = run_rabi_sweep(
        np.asarray(exp["energies"], dtype=float), config.levels, config.pulse,
        config.dissipators, pump=exp.get("pump"))
    summary = {"p_up_max": float(np.max(trace.p_up)),
               "p_up_at_zero": float(trace.p_up[0])}
    return {"rabi_trace.csv": trace.as_rows()}, summary


def _execute_ramsey(config) -> tuple:
    exp = config.experiment
    larmor = config.levels.electron_splitting
    if exp.get("delays") is not None:
        windows = [np.asarray(exp["delays"], dtype=float)]
    else:
        windows = ramsey_window_plan(exp["delay_centers"], larmor,
                                     exp["periods"],
                                     exp["points_per_period"])
    result = run_ramsey(windows, config.levels, config.pulse,
                        config.dissipators, bath=config.bath,
                        ensemble_mode=config.ensemble_mode,
                        bath_samples=config.bath_samples, seed=config.seed,
                        injected=exp.get("injected"))
    files = {"ramsey_trace.csv": result.trace.as_rows(),
             "ramsey_visibility.csv": (
                 ["tau_center_s", "visibility", "visibility_stderr"],
                 list(zip(result.window_centers, result.visibilities,
                          result.visibility_stderr)))}
    first = windows[0]
    try:
        free = fit_fringe(first, result.trace.p_up[:len(first)],
                          stderr=None, frequency_guess=larmor)
        fitted_hz = free.frequency / (2 * math.pi)
    except ValidationError:
        fitted_hz = math.nan
    summary = {
        "larmor_rad_per_s": larmor,
        "windows": len(result.window_centers),
        "fitted_frequency_Hz": fitted_hz,
        "visibility_first": float(result.visibilities[0]),
        "visibility_last": float(result.visibilities[-1]),
    }
    return files, summary


def _execute_echo(config) -> tuple:
    exp = config.experiment
    result = run_echo_decay(
        np.asarray(exp["tau1_values"], dtype=float), config.levels,
        config.pulse, config.dissipators, periods=exp["periods"],
        points_per_period=exp["points_per_period"], bath=config.bath,
        ensemble_mode=config.ensemble_mode, bath_samples=config.bath_samples,
        seed=config.seed, injected=exp.get("injected"))
    summary = {
        "amplitude_first": float(result.amplitudes[0]),
        "amplitude_last": float(result.amplitudes[-1]),
        "total_time_span_s": float(result.total_times[-1]
                                   - result.total_times[0]),
    }
    return {"echo_trace.csv": result.as_rows()}, summary


def _execute_t1(config) -> tuple:
    exp = config.experiment
    result = run_t1_recovery(np.asarray(exp["waits"], dtype=float),
                             config.levels, config.dissipators, exp["pump"])
    summary = {
        "fitted_t1_s": float(result.fitted_t1),
        "pump_fidelity": float(result.pump.fidelity),
        "t1_rate_per_s": float(config.dissipators.t1_rate),
    }
    return {"t1_trace.csv": result.trace.as_rows()}, summary


def _execute_pump(config) -> tuple:
    settings = config.experiment["pump"]
    result = optical_pump(DensityMatrix.scrambled().matrix, config.levels,
                          settings.rabi, settings.duration,
                          config.dissipators, settings.samples)
    rows = list(zip(result.times, result.emission_rate))
    summary = {"fidelity": float(result.fidelity),
               "pump_rabi_rad_per_s": float(settings.rabi),
               "pump_duration_s": float(settings.duration)}
    return {"pump_trace.csv": (["time_s", "emission_rate_Hz"], rows)}, summary
