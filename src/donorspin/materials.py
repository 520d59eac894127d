"""Material profiles for donor-bound spins and the applied field.

A material profile is a small YAML document in which every physical
value carries an explicit unit string. The bundled ``zno-natural``
profile describes a shallow Ga donor in ZnO with natural isotopic
abundances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .errors import ValidationError
from .units import parse_quantity

__all__ = ["MaterialParams", "FieldConfig", "load_material", "bundled_materials",
           "load_yaml", "dump_yaml"]

# profile key -> (dimension, attribute)
_SCHEMA = {
    "g_electron": ("dimensionless", "g_electron"),
    "g_hole": ("dimensionless", "g_hole"),
    "gallium_moment": ("moment", "gallium_moment"),
    "gallium_spin": ("dimensionless", "gallium_spin"),
    "zinc67_moment": ("moment", "zinc67_moment"),
    "zinc67_spin": ("dimensionless", "zinc67_spin"),
    "zinc67_abundance": ("dimensionless", "zinc67_abundance"),
    "central_cell_amplification": ("dimensionless", "central_cell_amplification"),
    "bohr_radius": ("length", "bohr_radius"),
    "lattice_a": ("length", "lattice_a"),
    "lattice_c": ("length", "lattice_c"),
    "donor_density": ("density", "donor_density"),
}


@dataclass(frozen=True)
class MaterialParams:
    """Parameters of the host crystal and the donor wavefunction.

    Magnetic moments are stored in J/T, lengths in meters, densities in
    m^-3. ``central_cell_amplification`` is the squared Bloch amplitude
    at the nuclear sites relative to a plane wave.
    """

    name: str
    g_electron: float
    g_hole: float
    gallium_moment: float
    gallium_spin: float
    zinc67_moment: float
    zinc67_spin: float
    zinc67_abundance: float
    central_cell_amplification: float
    bohr_radius: float
    lattice_a: float
    lattice_c: float
    donor_density: float

    def __post_init__(self):
        problems = []
        for attr in ("g_electron", "g_hole", "gallium_moment", "gallium_spin",
                     "zinc67_moment", "zinc67_spin",
                     "central_cell_amplification"):
            if getattr(self, attr) < 0:
                problems.append(f"{attr} must be non-negative")
        if not 0.0 <= self.zinc67_abundance <= 1.0:
            problems.append(
                f"zinc67_abundance must lie in [0, 1], got {self.zinc67_abundance}"
            )
        for attr in ("bohr_radius", "lattice_a", "lattice_c"):
            if getattr(self, attr) <= 0:
                problems.append(f"{attr} must be positive")
        if self.donor_density < 0:
            problems.append("donor_density must be non-negative")
        if problems:
            raise ValidationError(
                f"invalid material {self.name!r}: " + "; ".join(problems), problems
            )

    @property
    def zn_site_density(self) -> float:
        """Zn sites per unit volume of the wurtzite cell, m^-3."""
        cell_volume = math.sqrt(3.0) / 2.0 * self.lattice_a**2 * self.lattice_c
        return 2.0 / cell_volume

    def with_(self, **changes) -> "MaterialParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field: magnitude in tesla plus orientation.

    The orientation is stored as a unit vector in crystal coordinates
    with the wurtzite c axis along z. The default is perpendicular to
    the c axis (Voigt geometry).
    """

    magnitude: float
    orientation: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if self.magnitude < 0:
            raise ValidationError(
                f"field magnitude must be non-negative, got {self.magnitude} T"
            )
        try:
            vec = np.asarray(self.orientation, dtype=float)
        except (TypeError, ValueError):
            vec = np.zeros(0)
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(vec))
        if vec.shape != (3,) or not 0.0 < norm < math.inf:
            raise ValidationError("field orientation must be a nonzero "
                                  f"finite 3-vector, got {self.orientation!r}")
        object.__setattr__(self, "orientation", tuple(vec / norm))


def _bundled_dir():
    return resources.files("donorspin") / "materials"


def bundled_materials() -> list[str]:
    """Names of the material profiles shipped with the package."""
    return sorted(p.name[: -len(".yaml")] for p in _bundled_dir().iterdir()
                  if p.name.endswith(".yaml"))


def load_material(source) -> MaterialParams:
    """Load a material profile by bundled name or explicit file path.

    Args:
        source: either the name of a bundled profile (``"zno-natural"``)
            or a path to a YAML profile file.

    Returns:
        A fully validated :class:`MaterialParams`.

    Raises:
        ValidationError: missing keys, unknown units, or out-of-range
            values. All problems found are reported at once.
    """
    path = Path(str(source))
    if path.suffix in (".yaml", ".yml") or path.exists():
        if not path.exists():
            raise ValidationError(f"material file not found: {path}")
        text = path.read_text()
        default_name = path.stem
    else:
        candidate = _bundled_dir() / f"{source}.yaml"
        try:
            text = candidate.read_text()
        except FileNotFoundError:
            raise ValidationError(
                f"unknown material {source!r}; bundled profiles: "
                f"{', '.join(bundled_materials())}"
            ) from None
        default_name = str(source)

    doc = load_yaml(text)
    if not isinstance(doc, dict):
        raise ValidationError(f"material profile {default_name!r} is not a mapping")

    problems = []
    values = {}
    for key, (dimension, attr) in _SCHEMA.items():
        if key not in doc:
            problems.append(f"missing key {key!r}")
            continue
        try:
            values[attr] = parse_quantity(doc[key], dimension, key=key)
        except ValidationError as err:
            problems.append(str(err))
    unknown = set(doc) - set(_SCHEMA) - {"name"}
    if unknown:
        problems.append(f"unknown keys: {', '.join(sorted(unknown))}")
    if problems:
        raise ValidationError(
            f"invalid material profile {default_name!r}: " + "; ".join(problems),
            problems,
        )
    return MaterialParams(name=str(doc.get("name", default_name)), **values)


# libyaml when PyYAML has it; the pure-Python classes give the same documents
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def load_yaml(stream):
    """One YAML document (text or open file) under the safe schema."""
    return yaml.load(stream, Loader=_LOADER)


def dump_yaml(data) -> str:
    """``data`` as block-style YAML text with sorted keys."""
    return yaml.dump(data, Dumper=_DUMPER, sort_keys=True)
