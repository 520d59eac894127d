"""Least-squares analysis of simulated and measured traces.

The fitter is a bounded Levenberg-Marquardt loop with numerically
differenced Jacobians, chosen because the forward models here include
full density-matrix simulations with no analytic derivatives. Model
kinds cover the decay laws and fringe shapes this package produces:
plain/Gaussian/cubed exponentials, sinusoids (damped or not), and
power laws. Fixed-frequency fringe extraction reduces to weighted
linear least squares and never iterates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DonorSpinError, ValidationError

__all__ = [
    "ParameterSpec",
    "FitResult",
    "FringeFit",
    "fit_curve",
    "fit_fringe",
    "compare_models",
    "simultaneous_fit_rabi_fringe",
    "SimultaneousFitResult",
    "ingest_trace",
    "IngestedTrace",
    "MODEL_KINDS",
    "canonical_models",
]

logger = logging.getLogger("donorspin.fitting")

_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_GRID_CHUNK = 1 << 17  # frequencies x points per batch of the fringe grid


# ---------------------------------------------------------------------------
# model catalogue


@dataclass(frozen=True)
class ParameterSpec:
    name: str
    init: float
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self):
        if not self.lower <= self.init <= self.upper:
            raise ValidationError(
                f"initial value of {self.name!r} must lie inside its bounds: "
                f"{self.lower} <= {self.init} <= {self.upper} fails")


def _eval_sinusoid(p, x):
    amplitude, angular_frequency, phase, offset = p
    return offset + amplitude * np.cos(angular_frequency * x + phase)


def _bounded_decay(x, t_decay, shape=np.positive):
    """exp(-shape(x / t_decay)), the argument clamped against overflow."""
    with np.errstate(over="ignore"):
        argument = shape(x / t_decay)
    return np.exp(-np.minimum(argument, 745.0))


def _eval_exp_decay(p, x):
    amplitude, t_decay, offset = p
    return offset + amplitude * _bounded_decay(x, t_decay)


def _eval_gaussian_decay(p, x):
    amplitude, t_decay, offset = p
    return offset + amplitude * _bounded_decay(x, t_decay, np.square)


def _eval_cubed_exp_decay(p, x):
    amplitude, t_decay, offset = p
    return offset + amplitude * _bounded_decay(x, t_decay,
                                               lambda u: np.power(u, 3))


def _eval_power_law(p, x):
    amplitude, exponent = p
    return amplitude * np.power(x, exponent)


def _eval_damped_sinusoid(p, x):
    amplitude, angular_frequency, phase, offset, t_decay = p
    return offset + amplitude * _bounded_decay(x, t_decay) * np.cos(
        angular_frequency * x + phase)


def _guess_decay(x, y):
    offset = float(y[-1])
    amplitude = float(y[0] - offset)
    norm = (y - offset) / (amplitude if amplitude != 0 else 1.0)
    below = np.nonzero(norm < math.exp(-1.0))[0]
    t_decay = float(x[below[0]]) if below.size and x[below[0]] > 0 \
        else float(max(x[-1], np.finfo(float).tiny))
    return {"amplitude": amplitude, "t_decay": t_decay, "offset": offset}


def _dominant_frequency(x, y):
    # FFT on a uniform resample; good enough as an LM starting point
    n = max(len(x), 64)
    grid = np.linspace(x[0], x[-1], n)
    resampled = np.interp(grid, x, y)
    spectrum = np.abs(np.fft.rfft(resampled - resampled.mean()))
    freqs = np.fft.rfftfreq(n, grid[1] - grid[0])
    if spectrum[1:].size == 0:
        return 0.0
    peak = 1 + int(np.argmax(spectrum[1:]))
    return 2.0 * math.pi * float(freqs[peak])


def _guess_sinusoid(x, y):
    return {
        "amplitude": float((y.max() - y.min()) / 2.0),
        "angular_frequency": max(_dominant_frequency(x, y), 1e-30),
        "phase": 0.0,
        "offset": float(y.mean()),
    }


def _guess_damped_sinusoid(x, y):
    out = _guess_sinusoid(x, y)
    out["t_decay"] = float(max(x[-1], np.finfo(float).tiny))
    return out


def _guess_power_law(x, y):
    mask = (x > 0) & (y > 0)
    if mask.sum() >= 2:
        slope, intercept = np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)
        return {"amplitude": float(math.exp(intercept)),
                "exponent": float(slope)}
    return {"amplitude": 1.0, "exponent": 1.0}


_TINY = np.finfo(float).tiny

_CATALOGUE = {
    "sinusoid": (("amplitude", "angular_frequency", "phase", "offset"),
                 _eval_sinusoid, _guess_sinusoid,
                 {"angular_frequency": (_TINY, math.inf)}),
    "exp_decay": (("amplitude", "t_decay", "offset"),
                  _eval_exp_decay, _guess_decay,
                  {"t_decay": (_TINY, math.inf)}),
    "gaussian_decay": (("amplitude", "t_decay", "offset"),
                       _eval_gaussian_decay, _guess_decay,
                       {"t_decay": (_TINY, math.inf)}),
    "cubed_exp_decay": (("amplitude", "t_decay", "offset"),
                        _eval_cubed_exp_decay, _guess_decay,
                        {"t_decay": (_TINY, math.inf)}),
    "power_law": (("amplitude", "exponent"),
                  _eval_power_law, _guess_power_law, {}),
    "damped_sinusoid": (("amplitude", "angular_frequency", "phase", "offset",
                         "t_decay"),
                        _eval_damped_sinusoid, _guess_damped_sinusoid,
                        {"angular_frequency": (_TINY, math.inf),
                         "t_decay": (_TINY, math.inf)}),
}

MODEL_KINDS = tuple(_CATALOGUE)
# short names that ``fit --compare`` and the ``fit`` config section accept
_MODEL_ALIASES = {
    "exp": "exp_decay",
    "gaussian": "gaussian_decay",
    "cubed_exp": "cubed_exp_decay",
    "power": "power_law",
}


def canonical_models(names, key: str) -> list:
    """The model kinds that ``names`` give, each a kind or an alias."""
    kinds = []
    for name in names:
        kind = _MODEL_ALIASES.get(name.strip(), name.strip()) \
            if isinstance(name, str) else name
        if kind not in MODEL_KINDS:
            raise ValidationError(
                f"{key}: unknown model {name!r}; known: "
                f"{sorted(MODEL_KINDS)} (aliases: {sorted(_MODEL_ALIASES)})")
        kinds.append(kind)
    return kinds


def _catalogue_entry(kind):
    if kind not in _CATALOGUE:
        raise ValidationError(
            f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
    return _CATALOGUE[kind]


@dataclass
class FitResult:
    """Outcome of one least-squares fit."""

    parameters: dict
    uncertainties: dict
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""


# ---------------------------------------------------------------------------
# Levenberg-Marquardt core

# LM stops at a relative parameter step or residual change below these
_STEP_TOL, _COST_TOL = 1e-8, 1e-10


def _lm_minimize(residual_fn, p0, lower, upper, max_iterations):
    """Bounded LM on a residual function. Returns (p, info dict)."""
    p = np.array(p0, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    def clamp(q):
        return np.minimum(np.maximum(q, lower), upper)

    p = clamp(p)
    r = residual_fn(p)
    cost = float(r @ r)
    lam = 1e-3
    iterations = 0
    converged = False
    message = "iteration limit reached"

    for iterations in range(1, max_iterations + 1):
        jac = _numeric_jacobian(residual_fn, p, lower, upper, r)
        normal = jac.T @ jac
        grad = jac.T @ r
        diag = np.diag(normal).copy()
        diag[diag <= 0] = max(diag.max(initial=0.0), 1.0) * 1e-12 + _TINY
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                if lam > 1e18:
                    return p, {
                        "iterations": iterations, "converged": False,
                        "message": "singular Jacobian: no solvable step",
                        "residual": r, "jacobian": jac, "cost": cost,
                    }
                continue
            trial = clamp(p + step)
            r_trial = residual_fn(trial)
            cost_trial = float(r_trial @ r_trial)
            if math.isfinite(cost_trial) and cost_trial <= cost:
                accepted = True
                break
            lam *= 5.0
            if lam > 1e18:
                break
        if not accepted:
            converged = True
            message = "no downhill step found (stationary within damping limit)"
            break
        rel_step = float(np.max(np.abs(trial - p)
                                / np.maximum(np.abs(trial), 1.0)))
        rel_drop = (cost - cost_trial) / max(cost, _TINY)
        p, r, cost = trial, r_trial, cost_trial
        lam = max(lam / 3.0, 1e-12)
        if rel_step < _STEP_TOL:
            converged = True
            message = "relative parameter step below tolerance"
            break
        if rel_drop < _COST_TOL:
            converged = True
            message = "relative residual change below tolerance"
            break

    if converged:
        # Normalize columns before the rank test: parameters carry
        # wildly different units, so raw singular values only reflect
        # scale. A parameter is unconstrained when its column is zero
        # or parallel to the others, not when it is merely small.
        norms = np.linalg.norm(jac, axis=0)
        live = norms > 0
        rank = int(np.linalg.matrix_rank(jac[:, live] / norms[live])) \
            if live.any() else 0
        if rank < p.size:
            converged = False
            message = (f"singular Jacobian: rank {rank} < {p.size}, "
                       "parameter(s) unconstrained by the data")
    return p, {
        "iterations": iterations, "converged": converged, "message": message,
        "residual": r, "jacobian": jac, "cost": cost,
    }


def _numeric_jacobian(residual_fn, p, lower, upper, r0):
    """Central differences; ``r0`` is the caller's residual at ``p``.

    A side that a bound clamps back to ``p`` reuses ``r0`` instead of
    evaluating the residual there again.
    """
    jac = np.empty((r0.size, p.size))
    for k in range(p.size):
        h = _SQRT_EPS * max(abs(p[k]), 1.0)
        up = p.copy()
        dn = p.copy()
        up[k] = min(p[k] + h, upper[k])
        dn[k] = max(p[k] - h, lower[k])
        span = up[k] - dn[k]
        if span == 0.0:
            jac[:, k] = 0.0
            continue
        r_up = r0 if up[k] == p[k] else residual_fn(up)
        r_dn = r0 if dn[k] == p[k] else residual_fn(dn)
        jac[:, k] = (r_up - r_dn) / span
    return jac


def _validate_xy(x, y, weights, n_params):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValidationError("x and y must be one-dimensional and equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("x and y must be finite (no NaN or inf)")
    if len(x) < n_params + 1:
        raise ValidationError(
            f"need at least {n_params + 1} points to fit {n_params} parameters, "
            f"got {len(x)}")
    if weights is None:
        w = np.ones_like(y)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape or np.any(~np.isfinite(w)) or np.any(w < 0):
            raise ValidationError("weights must be finite, non-negative, and "
                                  "match the data length")
    return x, y, w


def fit_curve(kind, x, y, weights=None, init=None) -> FitResult:
    """Fit the catalogue model ``kind`` to data.

    ``weights`` are inverse variances. ``init`` maps parameter names to
    starting values; the parameters it leaves out start from a guess
    made from the data, and every start is clamped into its bounds.
    Convergence follows the fixed contract: relative parameter step
    below 1e-8 or relative residual change below 1e-10, within 500
    iterations. A singular Jacobian produces a non-converged result
    with diagnostics, never an exception.
    """
    names, evaluate, guess, bounds = _catalogue_entry(kind)
    x, y, w = _validate_xy(x, y, weights, len(names))
    if kind == "power_law" and np.any(x <= 0):
        raise ValidationError("power_law needs every abscissa > 0, got "
                              f"{np.min(x):.6g}")
    init = dict(init or {})
    unknown = set(init) - set(names)
    if unknown:
        raise ValidationError(
            f"unknown parameters for {kind!r}: {sorted(unknown)}")
    if len(init) < len(names):
        init = {**guess(x, y), **init}
    specs = []
    for name in names:
        lo, hi = bounds.get(name, (-math.inf, math.inf))
        specs.append(ParameterSpec(name, float(min(max(init[name], lo), hi)),
                                   lo, hi))
    sw = np.sqrt(w)

    def residual_fn(p):
        return (evaluate(p, x) - y) * sw

    return _least_squares(specs, residual_fn, 500)


def _least_squares(specs, residual_fn, max_iterations) -> FitResult:
    """Run LM from the :class:`ParameterSpec` inits and summarize the fit.

    The uncertainties are the root diagonal of the reduced chi-square
    times the pseudo-inverse of J^T J, from the last Jacobian of the run.
    """
    names = tuple(spec.name for spec in specs)
    lower = np.array([spec.lower for spec in specs])
    upper = np.array([spec.upper for spec in specs])
    p, info = _lm_minimize(residual_fn, [spec.init for spec in specs],
                           lower, upper, max_iterations)
    dof = max(info["residual"].size - len(names), 1)
    jac = info["jacobian"]
    cov = info["cost"] / dof * np.linalg.pinv(jac.T @ jac)
    sigma = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(
        parameters=dict(zip(names, map(float, p))),
        uncertainties=dict(zip(names, map(float, sigma))),
        residual_norm=math.sqrt(info["cost"]),
        iterations=info["iterations"],
        converged=info["converged"],
        message=info["message"],
    )


def compare_models(kinds, x, y, weights=None) -> dict:
    """Fit several kinds to the same data: a :class:`FitResult` per kind,
    or the error of a known kind that cannot fit. Raises the first error
    when no kind fits, and ``ValidationError`` when no kind is given."""
    out = {}
    for kind in kinds:
        _catalogue_entry(kind)  # an unknown kind raises, it does not list
        try:
            out[kind] = fit_curve(kind, x, y, weights)
        except (DonorSpinError, np.linalg.LinAlgError) as err:
            out[kind] = err
    if all(isinstance(r, Exception) for r in out.values()):
        raise next(iter(out.values()), ValidationError("no model kind given"))
    return out


# ---------------------------------------------------------------------------
# fringe extraction


@dataclass(frozen=True)
class FringeFit:
    """Amplitude and frequency of one fringe window.

    ``visibility`` is the oscillation amplitude, half the peak-to-peak
    excursion of the noiseless fitted curve, and ``frequency`` the
    angular frequency it oscillates at, fitted or as given.
    """

    visibility: float
    visibility_stderr: float
    frequency: float                 # rad/s


def _inverse_variance(stderr, y):
    """Weights 1/stderr^2, or ones without ``stderr``.

    A zero error is floored at 1e-3 of the smallest positive one.
    """
    if stderr is None:
        return np.ones_like(y)
    stderr = np.asarray(stderr, dtype=float)
    if np.any(stderr < 0):
        raise ValidationError("stderr values must be non-negative")
    floor = stderr[stderr > 0].min() if np.any(stderr > 0) else 1.0
    return 1.0 / np.maximum(stderr, 1e-3 * floor) ** 2


def _linear_fringe(x, y, w, omega):
    design = np.stack([np.ones_like(x), np.cos(omega * x),
                       np.sin(omega * x)], axis=1)
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    resid = (design @ coef - y) * sw
    cost = float(resid @ resid)
    return coef, cost, design


def _grid_costs(x, y, w, omegas):
    """The cost of :func:`_linear_fringe` at each of ``omegas``: what is
    left of b = y * sqrt(w) after its projection on the left singular
    vectors of the weighted designs that ``lstsq``'s cutoff keeps."""
    sw = np.sqrt(w)
    b = y * sw
    costs = np.empty(len(omegas))
    step = max(1, _GRID_CHUNK // len(x))
    for start in range(0, len(omegas), step):
        phase = np.multiply.outer(omegas[start:start + step], x)
        design = np.stack([np.ones_like(phase), np.cos(phase), np.sin(phase)],
                          axis=2)
        u, s, _ = np.linalg.svd(design * sw[:, None], full_matrices=False)
        kept = s > np.finfo(float).eps * max(len(x), 3) * s[:, :1]
        resid = np.einsum("knj,kj->kn", u, kept * (b @ u)) - b
        costs[start:start + step] = np.einsum("kn,kn->k", resid, resid)
    return costs


def fit_fringe(x, y, known_frequency: float | None = None, stderr=None,
               frequency_guess: float | None = None) -> FringeFit:
    """Extract the fringe amplitude, its stderr and frequency from a scan.

    With ``known_frequency`` (rad/s) the problem is linear and solved
    directly. Otherwise the frequency is found by a dense grid search
    around ``frequency_guess`` (or the FFT peak), priced in batches of
    ``_GRID_CHUNK`` frequency-points, followed by a Levenberg-Marquardt
    polish from the cheapest frequency; that path requires the scan to
    cover at least two oscillation periods.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.shape != x.shape or len(x) < 4:
        raise ValidationError("fringe fit needs >= 4 points of equal-length "
                              "x and y")
    w = _inverse_variance(stderr, y)

    if known_frequency is not None:
        if known_frequency <= 0:
            raise ValidationError("known_frequency must be positive")
        coef, cost, design = _linear_fringe(x, y, w, known_frequency)
        _, b, c = coef
        visibility = math.hypot(b, c)
        dof = max(len(x) - 3, 1)
        scale = cost / dof if stderr is None else 1.0
        cov = scale * np.linalg.pinv((design * w[:, None]).T @ design)
        if visibility > 0:
            grad = np.array([0.0, b / visibility, c / visibility])
            v_err = float(math.sqrt(max(grad @ cov @ grad, 0.0)))
        else:
            v_err = float(math.sqrt(max(cov[1, 1] + cov[2, 2], 0.0)))
        return FringeFit(visibility=float(visibility), visibility_stderr=v_err,
                         frequency=float(known_frequency))

    guess = frequency_guess if frequency_guess else _dominant_frequency(x, y)
    if guess <= 0:
        raise ValidationError("cannot locate an oscillation frequency; "
                              "pass known_frequency or frequency_guess")
    span = x[-1] - x[0]
    if span * guess / (2.0 * math.pi) < 2.0 * (1.0 - 1e-9):
        raise ValidationError(
            "free-frequency fringe fit needs >= 2 oscillation periods in the "
            f"scan; cover >= {4.0 * math.pi / guess:.3e} s or fix the frequency")
    omegas = guess * np.linspace(0.7, 1.3, 4001)
    omega0 = float(omegas[int(np.argmin(_grid_costs(x, y, w, omegas)))])
    coef, _, _ = _linear_fringe(x, y, w, omega0)
    result = fit_curve("sinusoid", x, y, weights=w, init={
        "amplitude": float(math.hypot(coef[1], coef[2])),
        "angular_frequency": omega0,
        "phase": float(math.atan2(-coef[2], coef[1])),
        "offset": float(coef[0]),
    })
    return FringeFit(
        visibility=abs(result.parameters["amplitude"]),
        visibility_stderr=result.uncertainties["amplitude"],
        frequency=result.parameters["angular_frequency"])


# ---------------------------------------------------------------------------
# simultaneous pulse-response fit


@dataclass
class SimultaneousFitResult:
    """The joint fit of ``calibration``, ``beta1`` and ``beta2``."""

    fit: FitResult


def simultaneous_fit_rabi_fringe(rabi_energies, rabi_p_up,
                                 fringe_energies, fringe_visibility,
                                 levels, pulse_template, dissipator_template,
                                 initial: dict | None = None,
                                 rabi_stderr=None, fringe_stderr=None,
                                 expm_steps: int = 256) -> SimultaneousFitResult:
    """Joint fit of a pulse-energy sweep and its fringe-amplitude curve.

    Free parameters are the energy-to-Rabi calibration ``k`` (the ratio
    of the squared-envelope integral to pulse energy) and the two
    dephasing coefficients ``beta1`` and ``beta2``. The forward model
    is the full four-level simulation of one control pulse (for the
    population sweep) and of a two-pulse interferometer (for the fringe
    amplitudes). Points are weighted by inverse variance where standard
    errors are given, normalized so each dataset carries the same total
    weight. The fit stops after 200 iterations.

    Forward-model failures at trial parameters are logged and rejected
    through a large residual penalty instead of aborting the fit; a
    failure at the returned parameters raises its error.
    """
    from . import sequences  # imported here to avoid a module cycle

    rabi_energies = np.asarray(rabi_energies, dtype=float)
    rabi_p_up = np.asarray(rabi_p_up, dtype=float)
    fringe_energies = np.asarray(fringe_energies, dtype=float)
    fringe_visibility = np.asarray(fringe_visibility, dtype=float)
    if rabi_energies.shape != rabi_p_up.shape or rabi_energies.ndim != 1:
        raise ValidationError("rabi energies and populations must match")
    if fringe_energies.shape != fringe_visibility.shape \
            or fringe_energies.ndim != 1:
        raise ValidationError("fringe energies and visibilities must match")

    def dataset_w(stderr, y):
        w = _inverse_variance(stderr, y)
        return w * (1.0 / w.sum())

    w_all = np.concatenate([dataset_w(rabi_stderr, rabi_p_up),
                            dataset_w(fringe_stderr, fringe_visibility)])
    y_all = np.concatenate([rabi_p_up, fringe_visibility])
    sw = np.sqrt(w_all)

    init = {"calibration": pulse_template.calibration,
            "beta1": dissipator_template.laser_dephasing_linear,
            "beta2": dissipator_template.laser_dephasing_quadratic}
    if initial:
        unknown = set(initial) - set(init)
        if unknown:
            raise ValidationError(f"unknown fit parameters: {sorted(unknown)}")
        init.update(initial)

    def forward(p):
        calibration, beta1, beta2 = p
        pulse = replace(pulse_template, calibration=calibration)
        diss = replace(dissipator_template,
                       laser_dephasing_linear=beta1,
                       laser_dephasing_quadratic=beta2)
        rabi = sequences.rabi_populations(rabi_energies, levels, pulse, diss,
                                          expm_steps=expm_steps)
        fringe = sequences.fringe_visibilities(fringe_energies, levels, pulse,
                                               diss, expm_steps=expm_steps)
        return np.concatenate([rabi, fringe])

    penalty = 1e6 * max(float(np.linalg.norm(y_all * sw)), 1.0)
    failed = set()  # parameter bytes the forward model failed at

    def residual_fn(p):
        try:
            model = forward(p)
        except Exception as exc:  # forward model failed at these parameters
            logger.warning("forward model rejected parameters %s: %s", p, exc)
            failed.add(p.tobytes())
            return np.full(y_all.shape, penalty)
        return (model - y_all) * sw

    specs = (ParameterSpec("calibration", init["calibration"], _TINY),
             ParameterSpec("beta1", init["beta1"], 0.0),
             ParameterSpec("beta2", init["beta2"], 0.0))
    fit = _least_squares(specs, residual_fn, 200)
    p = np.array(list(fit.parameters.values()))
    if p.tobytes() in failed:  # the model failed at p: raise its error here
        forward(p)
    return SimultaneousFitResult(fit=fit)


# ---------------------------------------------------------------------------
# trace ingestion


_UNIT_SUFFIXES = ("_s", "_J", "_T", "_Hz", "_rad")
_DIMENSIONLESS_NAMES = frozenset({
    "p_up", "p_down", "amplitude", "visibility", "fidelity", "exponent",
    "purity", "population", "contrast",
})


def _column_is_valid(name: str) -> bool:
    if name.endswith("_stderr"):
        return _column_is_valid(name[: -len("_stderr")])
    return name in _DIMENSIONLESS_NAMES or name.endswith(_UNIT_SUFFIXES)


@dataclass
class IngestedTrace:
    """Parsed tabular trace with unit-checked column names."""

    path: str
    columns: dict

    @property
    def abscissa(self) -> np.ndarray:
        return next(iter(self.columns.values()))

    @property
    def ordinate(self) -> np.ndarray:
        names = list(self.columns)
        return self.columns[names[1]]

    @property
    def stderr(self) -> np.ndarray | None:
        for name, values in self.columns.items():
            if name.endswith("_stderr"):
                return values
        return None


def ingest_trace(path) -> IngestedTrace:
    """Read a delimited trace file with `#` comments and a header row.

    Column names must carry a recognized unit suffix (``_s``, ``_J``,
    ``_T``, ``_Hz``, ``_rad``), be a known dimensionless quantity such
    as ``p_up``, or be the ``_stderr`` companion of a valid name.
    Malformed rows are reported all at once with their line numbers.
    """
    path = str(path)
    header: list[str] | None = None
    rows: list[list[float]] = []
    problems: list[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                header = cells
                continue
            if len(cells) != len(header):
                problems.append(
                    f"line {lineno}: expected {len(header)} columns, "
                    f"got {len(cells)}")
                continue
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                problems.append(f"line {lineno}: non-numeric value")

    if header is None:
        problems.append("no header row found")
    else:
        if len(header) < 2:
            problems.append("header must name at least two columns")
        for name in header:
            if not _column_is_valid(name):
                problems.append(
                    f"column {name!r} has no recognized unit suffix "
                    f"{_UNIT_SUFFIXES} and is not a known dimensionless "
                    "quantity")
        if len(set(header)) != len(header):
            problems.append("duplicate column names in header")
    if header is not None and not rows and not problems:
        problems.append("no data rows found")
    if problems:
        raise ValidationError(
            f"malformed trace file {path}: " + "; ".join(problems), problems)

    data = np.asarray(rows, dtype=float)
    columns = {name: data[:, k].copy() for k, name in enumerate(header)}
    return IngestedTrace(path=path, columns=columns)
