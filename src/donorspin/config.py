"""Run configuration: one structured document describes one run.

Every physical quantity is a string with an explicit unit (for
example ``"5 T"``, ``"1.9 ps"``, ``"137.9 GHz"``); bare numbers are
accepted only for dimensionless values and zero. Validation walks the
whole document and reports every problem at once, each unknown key
among them. ``--set key.path=value`` overrides are applied to the raw
document before validation, so an override is checked exactly like the
file contents.

A valid document parses to a typed ``RunConfig``. Its ``resolved``
record is those typed fields as plain data in SI units, so it holds
every value a run computes from, and its digest names the run.
"""

from __future__ import annotations

import copy
import hashlib
import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .bath import _DISPERSION_MODES, BathModel
from .errors import ValidationError
from .estimators import ID_VARIANTS
from .fitting import canonical_models
from .hamiltonian import (_SHAPES, LevelScheme, PulseSpec,
                          energy_for_rotation_angle)
from .lindblad import DissipatorSet, t1_rate_model
from .materials import (FieldConfig, MaterialParams, dump_yaml, load_material,
                        load_yaml)
from .sequences import (_ENSEMBLE_MODES, _MC_SAMPLES_CAP, InjectedDecoherence,
                        PumpSettings, _execute_echo, _execute_pump,
                        _execute_rabi, _execute_ramsey, _execute_t1)
from .units import _NUMBER, parse_quantity

__all__ = [
    "RunConfig",
    "load_config_document",
    "load_run_config",
    "parse_run_config",
    "apply_overrides",
    "config_digest",
]

_TWO_PI = 2.0 * math.pi
_PUMP_KEYS = ("rabi_frequency", "duration", "samples")
# the keys each section knows, by its dotted path ("" is the top level)
_KEYS = {
    "": ("material", "field", "levels", "dissipators", "pulse", "bath",
         "experiment", "fit", "output", "seed"),
    "field": ("magnitude", "orientation"),
    "levels": ("optical_detuning",),
    "dissipators": ("radiative_rate", "radiative_lifetime", "t1_rate",
                    "ground_dephasing_rate", "laser_dephasing_linear",
                    "laser_dephasing_quadratic", "branching"),
    "pulse": ("shape", "duration", "energy", "rotation_angle", "calibration"),
    "bath": ("kind", "ensemble", "samples", "dispersion_mode", "cutoff",
             "t2_star"),
    "experiment.pump": _PUMP_KEYS,
    "experiment.injected": ("time_constant", "exponent"),
    "fit": ("theta2", "variant", "model", "compare"),
}


class _Kind(NamedTuple):
    """An experiment kind, as all code outside its parse branch sees it."""

    keys: tuple  # the experiment section's keys besides ``kind``
    runner: Callable  # parsed config -> (files, summary)
    needs: tuple = ()  # "pulse" section, positive spin "precession"
    loglog: str | None = None  # summary value a sweep fits on log-log axes


_KINDS = {
    "rabi": _Kind(("energies", "max_energy", "count", "pump"), _execute_rabi,
                  ("pulse",)),
    "ramsey": _Kind(("delay_centers", "delays", "periods",
                     "points_per_period", "injected"), _execute_ramsey,
                    ("pulse", "precession")),
    "echo": _Kind(("tau1_values", "periods", "points_per_period",
                   "injected"), _execute_echo, ("pulse", "precession")),
    "t1": _Kind(("waits", "max_wait", "count", "pump"), _execute_t1,
                loglog="fitted_t1_s"),
    "pump": _Kind(_PUMP_KEYS, _execute_pump),
}


def _raise_if_any(problems):
    if problems:
        raise ValidationError(
            "invalid configuration: " + "; ".join(problems), problems)


class _Section:
    """One mapping of the run document, read key by key.

    Bound to its dotted path and to the problem list that every section
    of one document shares, it names each problem by the key's path and
    lists every key that the section does not know. A key set to null
    reads as absent.
    """

    def __init__(self, data: dict, path: str, problems: list):
        self.data, self.path, self.problems = data, path, problems
        if path in _KEYS:
            self.check_keys(_KEYS[path])

    def at(self, key) -> str:
        return f"{self.path}.{key}" if self.path else str(key)

    def add(self, message: str):
        self.problems.append(message)

    def fail(self, err):
        """List ``err`` as a problem of the whole section."""
        self.add(f"{self.path}: {err}")

    def check_keys(self, known):
        for key in self.data:
            if key not in known:
                self.add(f"unknown key '{self.at(key)}' "
                         f"(known: {sorted(known)})")

    def section(self, key, required=False) -> "_Section":
        value, path = self.data.get(key), self.at(key)
        if value is None:
            if required:
                self.add(f"missing required section '{path}'")
            value = {}
        elif not isinstance(value, dict):
            self.add(f"section '{path}' must be a mapping")
            value = {}
        return _Section(value, path, self.problems)

    def value(self, key, default=None, required=False):
        value = self.data.get(key)
        if value is None and required:
            self.add(f"{self.at(key)} is required")
        return default if value is None else value

    def build(self, make, *args, **kwargs):
        """``make(*args, **kwargs)``, or None: when a positional argument
        is None, its problem is already listed; when ``make`` raises
        ``ValidationError``, the error is listed against the section."""
        if any(arg is None for arg in args):
            return None
        try:
            return make(*args, **kwargs)
        except ValidationError as err:
            self.fail(err)
            return None

    def _quantity(self, value, path, dimension):
        """One quantity, alone or a list item: a bare 0 is zero in any
        unit, and every other value is read by ``parse_quantity``."""
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and value == 0:
            return 0.0
        try:
            return parse_quantity(value, dimension, key=path)
        except ValidationError as err:
            self.add(str(err))
            return None

    def quantity(self, key, dimension, default=None, required=False):
        value = self.value(key, default, required)
        return None if value is None \
            else self._quantity(value, self.at(key), dimension)

    def quantities(self, key, dimension):
        values = self.value(key)
        if values is None:
            return None
        if not isinstance(values, (list, tuple)) or not values:
            self.add(f"{self.at(key)} must be a non-empty list")
            return None
        out = [self._quantity(item, f"{self.at(key)}[{k}]", dimension)
               for k, item in enumerate(values)]
        return None if None in out else out

    def grid(self, key, top_key, dimension, count, minimum):
        """The list at ``key``, else ``count`` points from 0 to the value
        at ``top_key``; the section's ``count`` key overrides ``count``."""
        values = self.quantities(key, dimension)
        if values is not None:
            return values
        top = self.quantity(top_key, dimension)
        count = self.number("count", default=count, minimum=minimum,
                            integer=True)
        if top is not None and count is not None:
            return list(np.linspace(0.0, top, count))
        if self.value(key) is None and self.value(top_key) is None:
            self.fail(f"{self.data['kind']} needs {key} or {top_key}")
        return None

    def number(self, key, default=None, minimum=None, integer=False):
        value, path = self.numbers(key, (), default), self.at(key)
        if value is None:
            return None
        if integer and int(value) != value:
            self.add(f"{path} must be an integer")
        elif minimum is not None and value < minimum:
            self.add(f"{path} must be >= {minimum}")
        else:
            return int(value) if integer else float(value)
        return None

    def numbers(self, key, shape, default=None):
        """A finite number, or for a ``shape`` such as (2, 2) tuples of
        them; each wrong length and each bad element is a problem."""
        def read(item, path, dims):
            if dims:
                if not isinstance(item, (list, tuple)) or len(item) != dims[0]:
                    self.add(f"{path} must be a list of {dims[0]}")
                    return None
                rows = [read(x, f"{path}[{n}]", dims[1:])
                        for n, x in enumerate(item)]
                return None if None in rows else tuple(rows)
            if isinstance(item, str) and _NUMBER.match(item):
                item = float(item)  # YAML 1.1 reads 3.5e23 as text
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                self.add(f"{path} must be a number")
            elif not abs(item) <= sys.float_info.max:
                self.add(f"{path} must be finite, got {item}")
            else:
                return item
            return None

        value = self.value(key, default)
        return None if value is None else read(value, self.at(key), shape)

    def choice(self, key, options, default=None, required=False):
        value = self.value(key, default, required)
        if value is None or value in options:
            return value
        self.add(f"{self.at(key)} must be one of {sorted(options)}, "
                 f"got {value!r}")
        return None


@dataclass
class RunConfig:
    """Fully resolved run description: the typed objects a run computes
    from, every quantity in SI units.

    ``resolved`` is these fields as plain data. It is what run metadata
    records, and its digest names the run directory, so a change to any
    value the run computes from changes the digest.
    """

    material: MaterialParams
    field: FieldConfig
    levels: LevelScheme
    dissipators: DissipatorSet
    pulse: PulseSpec | None
    bath: BathModel | None
    ensemble_mode: str
    bath_samples: int
    experiment: dict
    fit: dict
    output: str
    seed: int

    @property
    def resolved(self) -> dict:
        return plain_data(asdict(self))

    @property
    def experiment_kind(self) -> str:
        return self.experiment["kind"]


def apply_overrides(document: dict, overrides) -> dict:
    """Apply ``key.path=value`` strings onto a nested mapping."""
    problems: list[str] = []
    result = copy.deepcopy(document)
    for text in overrides or ():
        if "=" not in text:
            problems.append(f"override {text!r} is not of the form key=value")
            continue
        path, _, raw_value = text.partition("=")
        keys = [k for k in path.strip().split(".") if k]
        if not keys:
            problems.append(f"override {text!r} has an empty key path")
            continue
        try:
            value = load_yaml(raw_value)
        except yaml.YAMLError:
            value = raw_value
        node = result
        for k in keys[:-1]:
            nxt = node.get(k)
            if not isinstance(nxt, dict):
                nxt = {}
                node[k] = nxt
            node = nxt
        node[keys[-1]] = value
    _raise_if_any(problems)
    return result


def plain_data(value):
    """Recursively convert numpy scalars and arrays to built-in types;
    a complex number with no imaginary part becomes its real part."""
    if isinstance(value, dict):
        return {k: plain_data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_data(v) for v in value]
    if isinstance(value, np.ndarray):
        return [plain_data(v) for v in value.tolist()]
    if isinstance(value, (np.complexfloating, complex)):
        return plain_data(value.real) if value.imag == 0 \
            else repr(complex(value))
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def config_digest(resolved: dict) -> str:
    """Stable 8-hex-digit digest of a resolved configuration.

    The output directory is excluded: it changes where artifacts land,
    not what is computed, and the digest identifies the computation.
    """
    identity = {k: v for k, v in plain_data(resolved).items()
                if k != "output"}
    canonical = dump_yaml(identity)
    return hashlib.sha256(canonical.encode()).hexdigest()[:8]


def load_config_document(path, overrides=()) -> dict:
    """The raw document of a config file with overrides applied."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = load_yaml(handle)
    except yaml.YAMLError as err:
        raise ValidationError(f"config {path} is not valid YAML: {err}") \
            from err
    if not isinstance(document, dict):
        raise ValidationError(f"config {path} must hold a mapping at the top")
    return apply_overrides(document, overrides) if overrides else document


def load_run_config(path, overrides=()) -> RunConfig:
    return parse_run_config(load_config_document(path, overrides))


def parse_run_config(document: dict) -> RunConfig:
    problems: list[str] = []
    doc = _Section(document, "", problems)

    # material + field -------------------------------------------------
    material = None
    material_name = document.get("material", "zno-natural")
    if not isinstance(material_name, str):
        doc.add("material must be a profile name or file path")
    else:
        try:
            material = load_material(material_name)
        except (ValidationError, OSError) as err:
            doc.add(f"material: {err}")

    field_section = doc.section("field", required=True)
    magnitude = field_section.quantity("magnitude", "field", required=True)
    orientation = field_section.numbers("orientation", (3,), (1.0, 0.0, 0.0))
    field_config = field_section.build(FieldConfig, magnitude, orientation)

    # level scheme -----------------------------------------------------
    levels_section = doc.section("levels")
    detuning_hz = levels_section.quantity("optical_detuning", "frequency",
                                          default="1 THz")
    levels = levels_section.build(
        lambda m, f, hz: LevelScheme.from_material(m, f, _TWO_PI * hz),
        material, field_config, detuning_hz)

    # dissipators --------------------------------------------------------
    diss_section = doc.section("dissipators")
    radiative = diss_section.quantity("radiative_rate", "rate")
    lifetime = diss_section.quantity("radiative_lifetime", "time")
    if radiative is not None and lifetime is not None:
        diss_section.fail("give radiative_rate or radiative_lifetime, "
                          "not both")
    if radiative is None:
        radiative = (1.0 / lifetime) if lifetime else 0.0

    if diss_section.value("t1_rate") == "auto":
        t1_rate = t1_rate_model(field_config.magnitude) \
            if field_config is not None else None
    else:
        t1_rate = diss_section.quantity("t1_rate", "rate", default=0.0)

    dephasing = diss_section.quantity("ground_dephasing_rate", "rate",
                                      default=0.0) or 0.0
    laser_linear = diss_section.number("laser_dephasing_linear", default=0.0,
                                       minimum=0.0) or 0.0
    laser_quadratic = diss_section.quantity("laser_dephasing_quadratic",
                                            "time", default=0.0) or 0.0
    branching = diss_section.numbers("branching", (2, 2),
                                     ((0.5, 0.5), (0.5, 0.5)))
    dissipators = diss_section.build(
        DissipatorSet, radiative, branching, t1_rate,
        ground_dephasing_rate=dephasing,
        laser_dephasing_linear=laser_linear,
        laser_dephasing_quadratic=laser_quadratic)

    # pulse ---------------------------------------------------------------
    pulse_section = doc.section("pulse")
    pulse = None
    if pulse_section.data:
        shape = pulse_section.choice("shape", _SHAPES, default="gaussian")
        duration = pulse_section.quantity("duration", "time", required=True)
        energy = pulse_section.quantity("energy", "energy")
        angle = pulse_section.quantity("rotation_angle", "angle")
        calibration = pulse_section.number("calibration", default=3.5e23,
                                           minimum=0.0)
        if energy is not None and angle is not None:
            pulse_section.fail("give energy or rotation_angle, not both")
        elif energy is None and angle is None:
            pulse_section.fail("one of energy or rotation_angle is required")
        else:
            pulse = pulse_section.build(
                PulseSpec, shape, duration,
                1e-15 if energy is None else energy, 0.0, calibration)
        if angle is not None:
            # solved inside the guard, so its errors name the section
            pulse = pulse_section.build(
                lambda p, lv: replace(p, energy=energy_for_rotation_angle(
                    p, lv, angle)), pulse, levels)

    # bath ------------------------------------------------------------
    bath_section = doc.section("bath")
    bath = None
    ensemble_mode = bath_section.choice("ensemble", _ENSEMBLE_MODES,
                                        default="exact") or "exact"
    bath_samples = bath_section.number("samples", default=1000, minimum=1,
                                       integer=True) or 1000
    if bath_samples > _MC_SAMPLES_CAP:  # listed before any draw
        bath_section.add(f"{bath_section.at('samples')} must be <= "
                         f"{_MC_SAMPLES_CAP}")
    bath_kind = bath_section.choice("kind", ("none", "material", "gaussian"),
                                    default="none") or "none"
    if bath_kind == "material" and material is not None:
        mode = bath_section.choice("dispersion_mode", _DISPERSION_MODES,
                                   default="continuum") or "continuum"
        # None means the default cutoff, so it goes by keyword
        cutoff = bath_section.quantity("cutoff", "length")
        bath = bath_section.build(BathModel.from_material, material,
                                  mode=mode, cutoff=cutoff)
    elif bath_kind == "gaussian":
        t2_star = bath_section.quantity("t2_star", "time", required=True)
        bath = bath_section.build(BathModel.gaussian, t2_star,
                                  getattr(material, "g_electron", None))

    experiment = _parse_experiment(doc.section("experiment", required=True))
    fit = _parse_fit(doc.section("fit"))

    # a drive that overflows is a listed problem, not a failed run: the
    # generator at the pulse peak scales with these two rates, and no
    # entry of a pump step exceeds 1 in a true propagator
    if None not in (pulse, dissipators) and not math.isfinite(
            dissipators.laser_dephasing_rate(pulse.peak_rabi)):
        key = "pulse.energy" if angle is None else "levels.optical_detuning"
        doc.add(f"{key}: the pulse energy {pulse.energy:.6g} J makes the "
                "generator at the envelope peak non-finite")
    # the rotation_angle solve is the far-detuned closed form: it needs a
    # detuning well clear of the pulse bandwidth and the hole splitting
    if None not in (pulse, levels) and angle is not None:
        needed = 5.0 * (1.0 / pulse.duration + levels.hole_splitting)
        if not levels.optical_detuning >= needed:
            doc.add(f"levels.optical_detuning: {levels.optical_detuning:.6g} "
                    "rad/s is below 5 x (1/pulse.duration + hole splitting)"
                    f" = {needed:.6g} rad/s, where pulse.rotation_angle "
                    "sets the pulse energy")
    pump = experiment.get("pump") if experiment else None
    with np.errstate(all="ignore"):
        if None not in (pump, levels, dissipators) and not np.max(
                np.abs(pump.step(levels, dissipators))) <= 1.0 + 1e-6:
            key = "pump.rabi_frequency" if "pump" in \
                _KINDS[experiment["kind"]].keys else "rabi_frequency"
            doc.add(f"experiment.{key} = {pump.rabi / _TWO_PI:.6g} Hz makes "
                    "the pump step non-finite or not a propagator")

    output = document.get("output", "runs")
    if not isinstance(output, str):
        doc.add("output must be a directory path string")
        output = "runs"
    seed = doc.number("seed", default=0, integer=True)

    needs = _KINDS[experiment["kind"]].needs if experiment else ()
    # when a pulse section exists but failed to resolve, its own
    # problems are already on the list
    if "pulse" in needs and not pulse_section.data:
        doc.add(f"experiment '{experiment['kind']}' requires a pulse section")
    # fringe experiments sample the spin precession, so it must run
    if "precession" in needs and levels is not None \
            and not levels.electron_splitting > 0:
        doc.add(f"experiment '{experiment['kind']}' needs a positive "
                f"spin precession frequency; got "
                f"{levels.electron_splitting} rad/s at field.magnitude "
                f"= {field_config.magnitude} T")

    _raise_if_any(problems)
    return RunConfig(
        material=material,
        field=field_config,
        levels=levels,
        dissipators=dissipators,
        pulse=pulse,
        bath=bath,
        ensemble_mode=ensemble_mode,
        bath_samples=int(bath_samples),
        experiment=experiment,
        fit=fit,
        output=output,
        seed=int(seed),
    )


def _parse_pump_settings(section: _Section):
    rabi_hz = section.quantity("rabi_frequency", "frequency",
                               default="20 MHz")
    duration = section.quantity("duration", "time", default="10 us")
    samples = section.number("samples", default=256, minimum=1, integer=True)
    return section.build(lambda hz, t, n: PumpSettings(_TWO_PI * hz, t, n),
                         rabi_hz, duration, samples)


def _parse_injected(section: _Section):
    if not section.data:
        return None
    time_constant = section.quantity("time_constant", "time", required=True)
    exponent = section.number("exponent", default=1.0, minimum=1.0)
    return section.build(InjectedDecoherence, time_constant, exponent)


def _parse_experiment(section: _Section):
    if not section.data:
        return None
    kind = section.choice("kind", tuple(_KINDS), required=True)
    if kind is None:
        return None
    section.check_keys(("kind",) + _KINDS[kind].keys)
    experiment: dict = {"kind": kind}
    if kind == "rabi":
        experiment["energies"] = section.grid("energies", "max_energy",
                                              "energy", 41, 2)
        experiment["pump"] = _parse_pump_settings(section.section("pump")) \
            if section.value("pump") is not None else None
    elif kind == "ramsey":
        centers = section.quantities("delay_centers", "time")
        delays = section.quantities("delays", "time")
        if centers is None and delays is None:
            section.fail("ramsey needs delay_centers or delays")
        experiment["delay_centers"] = centers
        experiment["delays"] = delays
    elif kind == "echo":
        tau1_values = section.quantities("tau1_values", "time")
        if tau1_values is None:
            section.fail("echo needs tau1_values")
        experiment["tau1_values"] = tau1_values
    elif kind == "t1":
        # the recovery fit has three parameters, so it needs 4 waits
        waits = section.grid("waits", "max_wait", "time", 25, 4)
        if waits is not None and len(waits) < 4:
            section.add(f"{section.at('waits')} must hold at least 4 "
                        f"entries, got {len(waits)}")
        experiment["waits"] = waits
        experiment["pump"] = _parse_pump_settings(section.section("pump"))
    elif kind == "pump":
        experiment["pump"] = _parse_pump_settings(section)
    if kind in ("ramsey", "echo"):
        experiment["periods"] = section.number("periods", default=2.0,
                                               minimum=0.5)
        experiment["points_per_period"] = section.number(
            "points_per_period", default=9, minimum=8, integer=True)
        experiment["injected"] = _parse_injected(section.section("injected"))
    return experiment


def _parse_fit(section: _Section) -> dict:
    """The refocusing angle and variant of ``estimate``, and the models
    that ``fit`` tries: the ``compare`` list, else the one ``model``."""
    key = "model" if section.value("compare") is None else "compare"
    names = section.value("compare", [section.value("model", "exp_decay")])
    models = None
    if not isinstance(names, list) or not names:
        section.add(f"{section.at(key)} must be a non-empty list of "
                    f"model names")
    else:
        try:
            models = canonical_models(names, section.at(key))
        except ValidationError as err:
            section.add(str(err))
    return {"theta2": section.quantity("theta2", "angle",
                                       default=math.pi / 2.0),
            "variant": section.choice("variant", ID_VARIANTS,
                                      default=ID_VARIANTS[0]),
            "models": models}

