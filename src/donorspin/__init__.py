"""Simulation and parameter-estimation toolkit for optically controlled
donor-spin qubits.

The package models a four-level donor system (two ground spin states,
two exciton states) driven by short optical rotation pulses, evolves it
with a Lindblad master equation, averages over the frozen nuclear-spin
Overhauser field of an ensemble, and provides the decoherence
estimators and fitting tools needed to compare simulated and measured
coherence decays.
"""

from __future__ import annotations

from .bath import (
    BathModel,
    T2StarSummary,
    ga_field_values,
    t2_star_theory,
    zn_dispersion,
)
from .constants import (
    BOHR_MAGNETON,
    HBAR,
    NUCLEAR_MAGNETON,
    VACUUM_PERMEABILITY,
    density_at_origin,
    zeeman_frequency_hz,
    zeeman_splitting,
)
from .config import RunConfig, load_run_config, parse_run_config
from .errors import (
    DonorSpinError,
    IntegrationFailure,
    LatticeSumError,
    NumericsError,
    ValidationError,
)
from .estimators import (
    ID_VARIANTS,
    DecoherenceBudget,
    IDEstimate,
    LatticeSumResult,
    SDEstimate,
    decoherence_budget,
    dipolar_lattice_sum,
    t2_instantaneous_diffusion,
    t2_spectral_diffusion,
)
from .fitting import (
    MODEL_KINDS,
    CurveModel,
    FitResult,
    FringeFit,
    IngestedTrace,
    ParameterSpec,
    SimultaneousFitResult,
    compare_models,
    fit_curve,
    fit_fringe,
    ingest_trace,
    simultaneous_fit_rabi_fringe,
)
from .hamiltonian import (
    EXCITED_LOWER,
    EXCITED_UPPER,
    GROUND_DOWN,
    GROUND_UP,
    LevelScheme,
    PulseSpec,
    build_hamiltonian,
    effective_rabi,
    energy_for_rotation_angle,
    pulse_rotation_angle,
)
from .lindblad import (
    DensityMatrix,
    DissipatorSet,
    IntegratorConfig,
    SilencePropagator,
    evolve,
    integrate_master,
    liouvillian,
    pulse_window_propagator,
    t1_rate_model,
)
from .materials import FieldConfig, MaterialParams, bundled_materials, load_material
from .sequences import (
    EchoDecayResult,
    EchoResult,
    ExperimentTrace,
    InjectedDecoherence,
    PumpResult,
    PumpSettings,
    RamseyResult,
    T1RecoveryResult,
    extracted_rotation_angle,
    fringe_visibilities,
    optical_pump,
    rabi_populations,
    ramsey_window_plan,
    run_echo,
    run_echo_decay,
    run_rabi_sweep,
    run_ramsey,
    run_t1_recovery,
)

__version__ = "0.1.0"
