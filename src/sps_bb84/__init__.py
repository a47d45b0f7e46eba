"""Modeling and simulation toolkit for single-photon-source BB84 links.

The package is organized around the lifecycle of a polarization-encoded
BB84 experiment driven by a sub-Poissonian (quantum-dot style) source:

``params``
    Validated parameter containers for the source, the optical link, the
    protocol schedule and the security budget, plus scenario-file loading.
``keyrate``
    Analytic detection/error model and secret-key-rate engine, including
    the maximum-tolerable-loss solver and loss sweeps.
``finitekey``
    Finite-block security bounds (concentration inequalities, sampling
    corrections, extractable key length).
``montecarlo``
    Event-driven stochastic simulation producing time-tagged detection
    records compatible with the analytic model.
``tagproc``
    Estimators that consume time-tag streams: correlation histograms,
    autocorrelation at zero delay, state truth tables, lifetime fits and
    temporal-filter optimization.
``keygen``
    Classical post-processing: sifting, error estimation, interactive
    reconciliation, verification and privacy amplification.
``polcomp``
    Polarization-drift modeling and automated compensator search.
``cli``
    Command-line front end over the above.
"""

from .finitekey import FiniteKeyReport, finite_skb_per_pulse
from .keygen import KeySessionLedger, SessionResult, run_session
from .keyrate import (
    KeyRateReport,
    NoPositiveKeyError,
    max_tolerable_loss,
    qber_total,
    skb_per_pulse,
)
from .montecarlo import Scenario, TagStream, simulate_run
from .params import (
    LinkModel,
    OperatingPoint,
    ParameterError,
    ProtocolParams,
    ScenarioConfig,
    SecurityBudget,
    SimulationConfig,
    SourceModel,
    load_scenario,
)
from .polcomp import (
    CompensatorState,
    PolarizationDrift,
    compensate,
    track_compensation,
)
from .tagproc import g2_zero, truth_table

__all__ = [
    "CompensatorState",
    "FiniteKeyReport",
    "KeyRateReport",
    "KeySessionLedger",
    "LinkModel",
    "NoPositiveKeyError",
    "OperatingPoint",
    "ParameterError",
    "PolarizationDrift",
    "ProtocolParams",
    "Scenario",
    "ScenarioConfig",
    "SecurityBudget",
    "SessionResult",
    "SimulationConfig",
    "SourceModel",
    "TagStream",
    "compensate",
    "finite_skb_per_pulse",
    "g2_zero",
    "load_scenario",
    "max_tolerable_loss",
    "qber_total",
    "run_session",
    "simulate_run",
    "skb_per_pulse",
    "track_compensation",
    "truth_table",
]

__version__ = "0.1.0"
