"""Run configuration: one structured document describes one run.

Every physical quantity is a string with an explicit unit (for
example ``"5 T"``, ``"1.9 ps"``, ``"137.9 GHz"``); bare numbers are
accepted only for dimensionless values. Validation walks the whole
document and reports every problem at once. ``--set key.path=value``
overrides are applied to the raw document before validation, so an
override is checked exactly like the file contents.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .bath import BathModel
from .errors import ValidationError
from .hamiltonian import (
    LevelScheme,
    PulseSpec,
    energy_for_rotation_angle,
)
from .lindblad import DissipatorSet, t1_rate_model
from .materials import (FieldConfig, MaterialParams, dump_yaml, load_material,
                        load_yaml)
from .sequences import InjectedDecoherence, PumpSettings
from .units import parse_quantity

__all__ = [
    "RunConfig",
    "load_config_document",
    "load_run_config",
    "parse_run_config",
    "apply_overrides",
    "config_digest",
]

EXPERIMENT_KINDS = ("rabi", "ramsey", "echo", "t1", "pump")
_TWO_PI = 2.0 * math.pi


class _Problems:
    def __init__(self):
        self.items: list[str] = []

    def add(self, message: str):
        self.items.append(message)

    def raise_if_any(self):
        if self.items:
            raise ValidationError(
                "invalid configuration: " + "; ".join(self.items), self.items)


def _get_map(document, path, problems, required=False):
    value = document.get(path.rpartition(".")[2])
    if value is None:
        if required:
            problems.add(f"missing required section '{path}'")
        return {}
    if not isinstance(value, dict):
        problems.add(f"section '{path}' must be a mapping")
        return {}
    return value


def _quantity(section, key, dimension, problems, path, default=None):
    value = section.get(key)
    if value is None:
        if default is None:
            return None
        if isinstance(default, (int, float)):
            return float(default)
        value = default
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and value == 0:
        return 0.0
    try:
        return parse_quantity(value, dimension, key=path)
    except ValidationError as err:
        problems.add(str(err))
        return None


def _quantity_list(section, key, dimension, problems, path):
    values = section.get(key)
    if values is None:
        return None
    if not isinstance(values, (list, tuple)) or not values:
        problems.add(f"{path} must be a non-empty list")
        return None
    out = []
    for k, item in enumerate(values):
        try:
            out.append(parse_quantity(item, dimension, key=f"{path}[{k}]"))
        except ValidationError as err:
            problems.add(str(err))
    return out if len(out) == len(values) else None


def _number(section, key, problems, path, default=None, minimum=None,
            integer=False):
    value = section.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.add(f"{path} must be a number")
        return None
    if not math.isfinite(value):
        problems.add(f"{path} must be finite, got {value}")
        return None
    if integer and int(value) != value:
        problems.add(f"{path} must be an integer")
        return None
    if minimum is not None and value < minimum:
        problems.add(f"{path} must be >= {minimum}")
        return None
    return int(value) if integer else float(value)


def _choice(section, key, options, problems, path, default=None):
    value = section.get(key, default)
    if value is None:
        return None
    if value not in options:
        problems.add(f"{path} must be one of {sorted(options)}, "
                     f"got {value!r}")
        return None
    return value


@dataclass
class RunConfig:
    """Fully resolved run description.

    ``resolved`` mirrors the input document with every quantity in SI
    units; it is what run metadata records, and its digest names the
    run directory.
    """

    material: MaterialParams
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
    resolved: dict = field(default_factory=dict)

    @property
    def experiment_kind(self) -> str:
        return self.experiment["kind"]


def apply_overrides(document: dict, overrides) -> dict:
    """Apply ``key.path=value`` strings onto a nested mapping."""
    problems = _Problems()
    result = load_yaml(dump_yaml(document)) or {}
    for text in overrides or ():
        if "=" not in text:
            problems.add(f"override {text!r} is not of the form key=value")
            continue
        path, _, raw_value = text.partition("=")
        keys = [k for k in path.strip().split(".") if k]
        if not keys:
            problems.add(f"override {text!r} has an empty key path")
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
    problems.raise_if_any()
    return result


def plain_data(value):
    """Recursively convert numpy scalars and arrays to built-in types."""
    if isinstance(value, dict):
        return {k: plain_data(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain_data(v) for v in value]
    if isinstance(value, np.ndarray):
        return [plain_data(v) for v in value.tolist()]
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
    problems = _Problems()
    resolved: dict = {}

    # material + field -------------------------------------------------
    material = None
    material_name = document.get("material", "zno-natural")
    if not isinstance(material_name, str):
        problems.add("material must be a profile name or file path")
    else:
        try:
            material = load_material(material_name)
        except (ValidationError, OSError) as err:
            problems.add(f"material: {err}")
    resolved["material"] = material_name

    field_section = _get_map(document, "field", problems, required=True)
    magnitude = _quantity(field_section, "magnitude", "field", problems,
                          "field.magnitude")
    orientation = field_section.get("orientation", (1.0, 0.0, 0.0))
    field_config = None
    if magnitude is not None:
        try:
            field_config = FieldConfig(magnitude, tuple(orientation))
        except (ValidationError, TypeError, ValueError) as err:
            problems.add(f"field: {err}")
    if field_config is not None:
        resolved["field"] = {
            "magnitude_T": field_config.magnitude,
            "orientation": [float(x) for x in field_config.orientation],
        }

    # level scheme -----------------------------------------------------
    levels_section = _get_map(document, "levels", problems)
    detuning_hz = _quantity(levels_section, "optical_detuning", "frequency",
                            problems, "levels.optical_detuning",
                            default="1 THz")
    levels = None
    if material is not None and field_config is not None \
            and detuning_hz is not None:
        try:
            levels = LevelScheme.from_material(material, field_config,
                                               _TWO_PI * detuning_hz)
        except ValidationError as err:
            problems.add(f"levels: {err}")
    if detuning_hz is not None:
        resolved["levels"] = {"optical_detuning_Hz": detuning_hz}

    # dissipators --------------------------------------------------------
    diss_section = _get_map(document, "dissipators", problems)
    radiative = _quantity(diss_section, "radiative_rate", "rate", problems,
                          "dissipators.radiative_rate")
    lifetime = _quantity(diss_section, "radiative_lifetime", "time", problems,
                         "dissipators.radiative_lifetime")
    if radiative is not None and lifetime is not None:
        problems.add("dissipators: give radiative_rate or "
                     "radiative_lifetime, not both")
    if radiative is None:
        radiative = (1.0 / lifetime) if lifetime else 0.0

    t1_value = diss_section.get("t1_rate", 0.0)
    if t1_value == "auto":
        t1_rate = t1_rate_model(field_config.magnitude) \
            if field_config is not None else None
    elif t1_value == 0.0 or t1_value == 0:
        t1_rate = 0.0
    else:
        t1_rate = _quantity(diss_section, "t1_rate", "rate", problems,
                            "dissipators.t1_rate")

    dephasing = _quantity(diss_section, "ground_dephasing_rate", "rate",
                          problems, "dissipators.ground_dephasing_rate",
                          default=0.0) or 0.0
    laser_linear = _number(diss_section, "laser_dephasing_linear", problems,
                           "dissipators.laser_dephasing_linear", default=0.0,
                           minimum=0.0) or 0.0
    laser_quadratic = _quantity(diss_section, "laser_dephasing_quadratic",
                                "time", problems,
                                "dissipators.laser_dephasing_quadratic",
                                default=0.0) or 0.0
    branching = diss_section.get("branching", ((0.5, 0.5), (0.5, 0.5)))
    dissipators = None
    if t1_rate is not None:
        try:
            dissipators = DissipatorSet(
                radiative_rate=radiative,
                branching=tuple(tuple(float(x) for x in row)
                                for row in branching),
                t1_rate=t1_rate,
                ground_dephasing_rate=dephasing,
                laser_dephasing_linear=laser_linear,
                laser_dephasing_quadratic=laser_quadratic,
            )
        except (ValidationError, TypeError, ValueError) as err:
            problems.add(f"dissipators: {err}")
    if dissipators is not None:
        resolved["dissipators"] = {
            "radiative_rate_per_s": dissipators.radiative_rate,
            "branching": [list(r) for r in dissipators.branching],
            "t1_rate_per_s": dissipators.t1_rate,
            "ground_dephasing_rate_per_s": dissipators.ground_dephasing_rate,
            "laser_dephasing_linear": dissipators.laser_dephasing_linear,
            "laser_dephasing_quadratic_s":
                dissipators.laser_dephasing_quadratic,
        }

    # pulse ---------------------------------------------------------------
    pulse_section = _get_map(document, "pulse", problems)
    pulse = None
    if pulse_section:
        shape = _choice(pulse_section, "shape",
                        ("gaussian", "sech2", "rectangular"), problems,
                        "pulse.shape", default="gaussian")
        duration = _quantity(pulse_section, "duration", "time", problems,
                             "pulse.duration")
        energy = _quantity(pulse_section, "energy", "energy", problems,
                           "pulse.energy")
        angle = _quantity(pulse_section, "rotation_angle", "angle", problems,
                          "pulse.rotation_angle")
        calibration = _number(pulse_section, "calibration", problems,
                              "pulse.calibration", default=3.5e23,
                              minimum=0.0)
        if energy is not None and angle is not None:
            problems.add("pulse: give energy or rotation_angle, not both")
        if duration is None:
            problems.add("pulse.duration is required when a pulse section "
                         "is present")
        if energy is None and angle is None:
            problems.add("pulse: one of energy or rotation_angle is required")
        if not problems.items and shape is not None:
            try:
                template = PulseSpec(shape=shape, duration=duration,
                                     energy=energy if energy is not None
                                     else 1e-15,
                                     calibration=calibration)
                if angle is not None:
                    template = PulseSpec(
                        shape=shape, duration=duration,
                        energy=energy_for_rotation_angle(template, levels,
                                                         angle),
                        calibration=calibration)
                pulse = template
            except ValidationError as err:
                problems.add(f"pulse: {err}")
        if pulse is not None:
            resolved["pulse"] = {
                "shape": pulse.shape,
                "duration_s": pulse.duration,
                "energy_J": pulse.energy,
                "calibration": pulse.calibration,
            }

    # bath ------------------------------------------------------------
    bath_section = _get_map(document, "bath", problems)
    bath = None
    ensemble_mode = _choice(bath_section, "ensemble", ("exact", "mc"),
                            problems, "bath.ensemble", default="exact") \
        or "exact"
    bath_samples = _number(bath_section, "samples", problems, "bath.samples",
                           default=1000, minimum=1, integer=True) or 1000
    bath_kind = _choice(bath_section, "kind",
                        ("none", "material", "gaussian"), problems,
                        "bath.kind", default="none") or "none"
    if bath_kind == "material" and material is not None:
        mode = _choice(bath_section, "dispersion_mode",
                       ("continuum", "lattice-sum"), problems,
                       "bath.dispersion_mode", default="continuum") \
            or "continuum"
        cutoff = _quantity(bath_section, "cutoff", "length", problems,
                           "bath.cutoff")
        try:
            bath = BathModel.from_material(material, mode=mode, cutoff=cutoff)
        except ValidationError as err:
            problems.add(f"bath: {err}")
    elif bath_kind == "gaussian":
        t2_star = _quantity(bath_section, "t2_star", "time", problems,
                            "bath.t2_star")
        if t2_star is not None and material is not None:
            bath = BathModel.gaussian(t2_star,
                                      electron_g=material.g_electron)
    resolved["bath"] = {"kind": bath_kind, "ensemble": ensemble_mode,
                        "samples": bath_samples}

    # experiment --------------------------------------------------------
    experiment_section = _get_map(document, "experiment", problems,
                                  required=True)
    experiment = _parse_experiment(experiment_section, problems)
    if experiment is not None:
        resolved["experiment"] = _resolved_experiment(experiment)

    # fit -----------------------------------------------------------------
    fit_section = _get_map(document, "fit", problems)
    if fit_section:
        resolved["fit"] = dict(fit_section)

    output = document.get("output", "runs")
    if not isinstance(output, str):
        problems.add("output must be a directory path string")
        output = "runs"
    seed = _number(document, "seed", problems, "seed", default=0,
                   integer=True)
    resolved["output"] = output
    resolved["seed"] = seed

    known = {"material", "field", "levels", "dissipators", "pulse", "bath",
             "experiment", "fit", "output", "seed"}
    for key in document:
        if key not in known:
            problems.add(f"unknown top-level key '{key}' "
                         f"(known: {sorted(known)})")

    # experiments that need a pulse; when a pulse section exists but
    # failed to resolve, its own problems are already on the list
    if experiment is not None and experiment["kind"] in \
            ("rabi", "ramsey", "echo") and not pulse_section:
        problems.add(f"experiment '{experiment['kind']}' requires a "
                     "pulse section")
    # fringe experiments sample the spin precession, so it must run
    if experiment is not None and experiment["kind"] in ("ramsey", "echo") \
            and levels is not None and not levels.electron_splitting > 0:
        problems.add(f"experiment '{experiment['kind']}' needs a positive "
                     f"spin precession frequency; got "
                     f"{levels.electron_splitting} rad/s at field.magnitude "
                     f"= {field_config.magnitude} T")

    problems.raise_if_any()
    resolved = plain_data(resolved)
    return RunConfig(
        material=material,
        levels=levels,
        dissipators=dissipators,
        pulse=pulse,
        bath=bath,
        ensemble_mode=ensemble_mode,
        bath_samples=int(bath_samples),
        experiment=experiment,
        fit=dict(fit_section),
        output=output,
        seed=int(seed),
        resolved=resolved,
    )


def _parse_pump_settings(section, problems, path):
    rabi_hz = _quantity(section, "rabi_frequency", "frequency", problems,
                        f"{path}.rabi_frequency", default="20 MHz")
    duration = _quantity(section, "duration", "time", problems,
                         f"{path}.duration", default="10 us")
    samples = _number(section, "samples", problems, f"{path}.samples",
                      default=256, minimum=1, integer=True)
    if None in (rabi_hz, duration, samples):
        return None
    try:
        return PumpSettings(rabi=_TWO_PI * rabi_hz, duration=duration,
                            samples=samples)
    except ValidationError as err:
        problems.add(f"{path}: {err}")
        return None


def _parse_injected(section, problems, path):
    if not section:
        return None
    time_constant = _quantity(section, "time_constant", "time", problems,
                              f"{path}.time_constant")
    exponent = _number(section, "exponent", problems, f"{path}.exponent",
                       default=1.0, minimum=1.0)
    if time_constant is None or exponent is None:
        return None
    try:
        return InjectedDecoherence(time_constant, exponent)
    except ValidationError as err:
        problems.add(f"{path}: {err}")
        return None


def _parse_experiment(section, problems):
    if not section:
        return None
    kind = section.get("kind")
    if kind not in EXPERIMENT_KINDS:
        problems.add(f"experiment.kind must be one of "
                     f"{sorted(EXPERIMENT_KINDS)}, got {kind!r}")
        return None
    experiment: dict = {"kind": kind}
    path = f"experiment"
    if kind == "rabi":
        energies = _quantity_list(section, "energies", "energy", problems,
                                  f"{path}.energies")
        if energies is None:
            max_energy = _quantity(section, "max_energy", "energy", problems,
                                   f"{path}.max_energy")
            count = _number(section, "count", problems, f"{path}.count",
                            default=41, minimum=2, integer=True)
            if max_energy is not None and count is not None:
                energies = list(np.linspace(0.0, max_energy, count))
            else:
                problems.add(f"{path}: rabi needs energies or max_energy")
        experiment["energies"] = energies
        if "pump" in section:
            experiment["pump"] = _parse_pump_settings(
                _get_map(section, f"{path}.pump", problems), problems,
                f"{path}.pump")
        else:
            experiment["pump"] = None
    elif kind == "ramsey":
        centers = _quantity_list(section, "delay_centers", "time", problems,
                                 f"{path}.delay_centers")
        delays = _quantity_list(section, "delays", "time", problems,
                                f"{path}.delays")
        if centers is None and delays is None:
            problems.add(f"{path}: ramsey needs delay_centers or delays")
        experiment["delay_centers"] = centers
        experiment["delays"] = delays
    elif kind == "echo":
        tau1_values = _quantity_list(section, "tau1_values", "time", problems,
                                     f"{path}.tau1_values")
        if tau1_values is None:
            problems.add(f"{path}: echo needs tau1_values")
        experiment["tau1_values"] = tau1_values
    elif kind == "t1":
        # the recovery fit has three parameters, so it needs 4 waits
        waits = _quantity_list(section, "waits", "time", problems,
                               f"{path}.waits")
        if waits is not None and len(waits) < 4:
            problems.add(f"{path}.waits must hold at least 4 entries, "
                         f"got {len(waits)}")
        if waits is None:
            max_wait = _quantity(section, "max_wait", "time", problems,
                                 f"{path}.max_wait")
            count = _number(section, "count", problems, f"{path}.count",
                            default=25, minimum=4, integer=True)
            if max_wait is not None and count is not None:
                waits = list(np.linspace(0.0, max_wait, count))
            else:
                problems.add(f"{path}: t1 needs waits or max_wait")
        experiment["waits"] = waits
        experiment["pump"] = _parse_pump_settings(
            _get_map(section, f"{path}.pump", problems), problems,
            f"{path}.pump")
    elif kind == "pump":
        experiment["pump"] = _parse_pump_settings(section, problems, path)
    if kind in ("ramsey", "echo"):
        experiment["periods"] = _number(section, "periods", problems,
                                        f"{path}.periods", default=2.0,
                                        minimum=0.5)
        experiment["points_per_period"] = _number(
            section, "points_per_period", problems,
            f"{path}.points_per_period", default=9, minimum=8, integer=True)
        experiment["injected"] = _parse_injected(
            _get_map(section, f"{path}.injected", problems), problems,
            f"{path}.injected")
    return experiment


def _resolved_experiment(experiment: dict) -> dict:
    out: dict = {"kind": experiment["kind"]}
    for key, value in experiment.items():
        if key == "kind":
            continue
        if value is None:
            out[key] = None
        elif isinstance(value, PumpSettings):
            out[key] = {"rabi_rad_per_s": value.rabi,
                        "duration_s": value.duration,
                        "samples": value.samples}
        elif isinstance(value, InjectedDecoherence):
            out[key] = {"time_constant_s": value.time_constant,
                        "exponent": value.exponent}
        elif isinstance(value, (list, tuple)):
            out[key] = [float(v) for v in value]
        else:
            out[key] = value
    return out
