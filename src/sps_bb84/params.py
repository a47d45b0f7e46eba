"""Validated parameter containers, unit helpers, and scenario-file loading.

Everything downstream (rate models, simulation, post-processing) consumes the
frozen dataclasses defined here.  Units are fixed per field and documented on
each class: efficiencies and probabilities are dimensionless, ``lifetime`` is
picoseconds, ``dead_time`` is nanoseconds, rates are Hz, losses are dB, fibre
attenuation is dB/km.  All containers are immutable after construction and
therefore safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = [
    "ParameterError",
    "SourceModel",
    "LinkModel",
    "ProtocolParams",
    "SecurityBudget",
    "OperatingPoint",
    "SimulationConfig",
    "ScenarioConfig",
    "binary_entropy",
    "sift_ratio",
    "loss_to_length",
    "length_to_loss",
    "load_scenario",
    "scenario_from_mapping",
]


class ParameterError(ValueError):
    """A parameter violated its documented range.

    ``field_name`` identifies the first offending field so configuration
    errors can be reported precisely.
    """

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _require(condition: bool, field_name: str, message: str) -> None:
    if not condition:
        raise ParameterError(field_name, message)


def _replace_checked(instance, **changes):
    """``dataclasses.replace`` for values the caller has already checked.

    The other fields are copied as they are: the instance is frozen and
    was validated when built, so ``__post_init__`` is not run again.
    """
    copy = object.__new__(type(instance))
    for name in type(instance).__slots__:
        value = changes[name] if name in changes else getattr(instance, name)
        object.__setattr__(copy, name, value)
    return copy


# ---------------------------------------------------------------------------
# shared math utilities
# ---------------------------------------------------------------------------

def _interior_entropy(p):
    # numpy's log2 on both paths: math.log2 rounds differently for some
    # arguments, and scalar and array results must agree bit for bit
    return -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """Binary Shannon entropy h(x) in bits, with h(0) = h(1) = 0 by continuity.

    Accepts a scalar or an ndarray; raises :class:`ParameterError` if any
    value lies outside [0, 1] or is NaN.  A scalar returns a ``float``
    equal bit for bit to the matching element of the array result.
    """
    if isinstance(x, (float, int)):
        # the rate chain calls this per operating point, so Python
        # numbers skip the array machinery
        if not 0.0 <= x <= 1.0:
            raise ParameterError(
                "x", "binary_entropy argument must lie in [0, 1]"
            )
        if x == 0.0 or x == 1.0:
            return 0.0
        return float(_interior_entropy(x))
    arr = np.asarray(x, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)) or np.any(np.isnan(arr)):
        raise ParameterError("x", "binary_entropy argument must lie in [0, 1]")
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    out[interior] = _interior_entropy(arr[interior])
    if arr.ndim == 0:
        return float(out)
    return out


def sift_ratio(basis_bias: float) -> float:
    """Probability that transmitter and receiver basis choices coincide.

    With both sides drawing one of two bases with probability ``basis_bias``
    for the first basis, the kept fraction is p² + (1−p)².
    """
    _require(0.0 <= basis_bias <= 1.0, "basis_bias", "must lie in [0, 1]")
    return basis_bias**2 + (1.0 - basis_bias) ** 2


def loss_to_length(loss_db: float, attenuation_db_per_km: float) -> float:
    """Convert a channel loss in dB to km of fibre at the given attenuation."""
    _require(
        attenuation_db_per_km > 0.0,
        "attenuation_db_per_km",
        "must be positive",
    )
    return loss_db / attenuation_db_per_km


def length_to_loss(length_km: float, attenuation_db_per_km: float) -> float:
    """Convert a fibre length in km to its channel loss in dB."""
    _require(
        attenuation_db_per_km > 0.0,
        "attenuation_db_per_km",
        "must be positive",
    )
    return length_km * attenuation_db_per_km


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SourceModel:
    """Per-pulse photon statistics of the emitter.

    mean_photon_number
        Mean photons per excitation pulse at the source reference plane,
        restricted to the sub-one-photon regime (0, 1).
    g2_zero
        Second-order intensity correlation at zero delay, in [0, 1];
        0 means a perfect single-photon emitter.
    lifetime
        Emission lifetime in picoseconds (exponential decay constant).
    pre_attenuation
        Deliberate transmitter-side attenuation factor in (0, 1] applied
        before the channel; suppresses two-photon emission quadratically
        while reducing the single-photon rate only linearly.
    """

    mean_photon_number: float = 0.138
    g2_zero: float = 0.0243
    lifetime: float = 592.5
    pre_attenuation: float = 1.0

    def __post_init__(self) -> None:
        _require(
            0.0 < self.mean_photon_number < 1.0,
            "mean_photon_number",
            "must lie in (0, 1)",
        )
        _require(0.0 <= self.g2_zero <= 1.0, "g2_zero", "must lie in [0, 1]")
        _require(self.lifetime > 0.0, "lifetime", "must be positive")
        _require(
            0.0 < self.pre_attenuation <= 1.0,
            "pre_attenuation",
            "must lie in (0, 1]",
        )

    @property
    def effective_mean_photon_number(self) -> float:
        """Mean photon number after pre-attenuation."""
        return self.mean_photon_number * self.pre_attenuation

    def photon_number_pmf(self) -> tuple[float, float, float]:
        """Probabilities of emitting 0, 1, or 2 photons in one pulse.

        The distribution is truncated at two photons: with mean n and
        correlation g₂ the two-photon weight is g₂·n²/2, the one-photon
        weight n − 2·P(2), and the vacuum takes the remainder.  Attenuation
        rescales the mean but leaves g₂ invariant, so the pmf is evaluated
        at the effective mean.
        """
        n = self.effective_mean_photon_number
        p2 = 0.5 * self.g2_zero * n * n
        p1 = n - 2.0 * p2
        if p1 < 0.0:
            raise ParameterError(
                "g2_zero",
                "photon-number distribution invalid: g2_zero * mean > 1",
            )
        p0 = 1.0 - p1 - p2
        return p0, p1, p2

    def with_pre_attenuation(self, pre_attenuation: float) -> "SourceModel":
        return replace(self, pre_attenuation=pre_attenuation)


def _check_loss(channel_loss_db: float) -> None:
    _require(
        channel_loss_db >= 0.0, "channel_loss_db", "must be non-negative"
    )


@dataclass(frozen=True, slots=True)
class LinkModel:
    """Optical chain from transmitter output through channel to detectors.

    transmitter_efficiency, receiver_efficiency, detector_efficiency
        Dimensionless efficiencies in (0, 1].
    dark_count_prob
        Dark-count probability per pulse window at ``dark_count_reference_rate``.
        Interpreted as the combined probability across all detectors when
        ``dark_count_is_total`` is true (the default), or per detector
        otherwise.  Scales linearly with the window duration at other clock
        rates.
    dark_count_reference_rate
        Clock rate (Hz) at which ``dark_count_prob`` was referenced.
    dead_time
        Detector recovery time in nanoseconds (non-paralyzable model).
    misalignment_prob
        Probability that a detected photon lands in the wrong port of the
        correct basis.
    channel_loss_db, fibre_attenuation
        Channel loss in dB and fibre attenuation in dB/km.
    detector_count
        Number of signal detectors behind the decoder (one per port).
    receiver_includes_detector
        When true (default), ``receiver_efficiency`` is taken as the full
        receiver chain including the detectors, and ``detector_efficiency``
        is not applied a second time in throughput budgets.  Set false to
        multiply both factors independently.
    dark_count_is_total
        See ``dark_count_prob``.
    """

    transmitter_efficiency: float = 0.464
    receiver_efficiency: float = 0.740
    detector_efficiency: float = 0.740
    dark_count_prob: float = 8.74e-7
    dark_count_reference_rate: float = 228e6
    dead_time: float = 35.865
    misalignment_prob: float = 2.57e-4
    channel_loss_db: float = 25.49
    fibre_attenuation: float = 0.1956
    detector_count: int = 4
    receiver_includes_detector: bool = True
    dark_count_is_total: bool = True

    def __post_init__(self) -> None:
        for name in (
            "transmitter_efficiency",
            "receiver_efficiency",
            "detector_efficiency",
        ):
            value = getattr(self, name)
            _require(0.0 < value <= 1.0, name, "must lie in (0, 1]")
        _require(
            0.0 <= self.dark_count_prob < 1.0,
            "dark_count_prob",
            "must lie in [0, 1)",
        )
        _require(
            self.dark_count_reference_rate > 0.0,
            "dark_count_reference_rate",
            "must be positive",
        )
        _require(self.dead_time >= 0.0, "dead_time", "must be non-negative")
        _require(
            0.0 <= self.misalignment_prob <= 1.0,
            "misalignment_prob",
            "must lie in [0, 1]",
        )
        _check_loss(self.channel_loss_db)
        _require(
            self.fibre_attenuation > 0.0,
            "fibre_attenuation",
            "must be positive",
        )
        _require(self.detector_count >= 1, "detector_count", "must be >= 1")

    @property
    def channel_transmittance(self) -> float:
        """Channel power transmittance 10^(−loss/10), in (0, 1]."""
        return 10.0 ** (-self.channel_loss_db / 10.0)

    @property
    def receiver_chain_efficiency(self) -> float:
        """Receiver throughput from channel output to a registered click."""
        if self.receiver_includes_detector:
            return self.receiver_efficiency
        return self.receiver_efficiency * self.detector_efficiency

    def dark_prob_total(self, clock_rate: float) -> float:
        """Combined dark-count probability per pulse window, all detectors.

        The per-window probability scales linearly with window duration,
        i.e. inversely with the clock rate, relative to the reference rate.
        """
        _require(clock_rate > 0.0, "clock_rate", "must be positive")
        scaled = self.dark_count_prob * (self.dark_count_reference_rate / clock_rate)
        scaled = min(scaled, 1.0)
        if self.dark_count_is_total:
            return scaled
        return 1.0 - (1.0 - scaled) ** self.detector_count

    def dark_prob_per_detector(self, clock_rate: float) -> float:
        """Dark-count probability per detector per pulse window."""
        _require(clock_rate > 0.0, "clock_rate", "must be positive")
        scaled = self.dark_count_prob * (self.dark_count_reference_rate / clock_rate)
        scaled = min(scaled, 1.0)
        if self.dark_count_is_total:
            return 1.0 - (1.0 - scaled) ** (1.0 / self.detector_count)
        return scaled

    def with_loss(self, channel_loss_db: float) -> "LinkModel":
        """This link with another channel loss; only the loss is checked."""
        _check_loss(channel_loss_db)
        return _replace_checked(self, channel_loss_db=channel_loss_db)


@dataclass(frozen=True, slots=True)
class ProtocolParams:
    """Protocol schedule and classical post-processing settings.

    clock_rate
        Excitation/clock rate in Hz.
    acquisition_time
        Key-accumulation time in seconds.
    basis_bias
        Probability of choosing the diagonal basis, in (0, 1).
    block_size
        Target received block size (bits) for finite-size evaluation.
    error_correction_inefficiency
        Multiplier ≥ 1 on the Shannon limit of reconciliation leakage.
    """

    clock_rate: float = 228e6
    acquisition_time: float = 1800.0
    basis_bias: float = 0.5
    block_size: float = 1e8
    error_correction_inefficiency: float = 1.16

    def __post_init__(self) -> None:
        _require(self.clock_rate > 0.0, "clock_rate", "must be positive")
        _require(
            self.acquisition_time > 0.0,
            "acquisition_time",
            "must be positive",
        )
        _require(
            0.0 < self.basis_bias < 1.0,
            "basis_bias",
            "must lie in (0, 1)",
        )
        _require(self.block_size >= 1.0, "block_size", "must be >= 1")
        _require(
            self.error_correction_inefficiency >= 1.0,
            "error_correction_inefficiency",
            "must be >= 1",
        )

    @property
    def pulse_period_ps(self) -> float:
        return 1e12 / self.clock_rate

    @property
    def sift_probability(self) -> float:
        return sift_ratio(self.basis_bias)

    def with_clock_rate(self, clock_rate: float) -> "ProtocolParams":
        return replace(self, clock_rate=clock_rate)


@dataclass(frozen=True, slots=True)
class SecurityBudget:
    """Failure-probability allocations for the composable security claim.

    ``eps_PE + eps_EC + eps_PA`` must not exceed ``eps_sec``; ``eps_cor``
    bounds the verification-hash collision probability separately.
    """

    eps_sec: float = 1e-10
    eps_cor: float = 1e-15
    eps_PE: float = 2e-10 / 3.0
    eps_EC: float = 1e-10 / 6.0
    eps_PA: float = 1e-10 / 6.0

    def __post_init__(self) -> None:
        for name in ("eps_sec", "eps_cor", "eps_PE", "eps_EC", "eps_PA"):
            value = getattr(self, name)
            _require(0.0 < value < 1.0, name, "must lie in (0, 1)")
        # tiny relative slack so exact thirds/sixths survive binary floats
        _require(
            self.eps_PE + self.eps_EC + self.eps_PA
            <= self.eps_sec * (1.0 + 1e-9),
            "eps_sec",
            "eps_PE + eps_EC + eps_PA must not exceed eps_sec",
        )


@dataclass(frozen=True, slots=True)
class OperatingPoint:
    """One complete configuration of source, link, protocol, and budget."""

    source: SourceModel = field(default_factory=SourceModel)
    link: LinkModel = field(default_factory=LinkModel)
    protocol: ProtocolParams = field(default_factory=ProtocolParams)
    budget: SecurityBudget = field(default_factory=SecurityBudget)

    def with_loss(self, channel_loss_db: float) -> "OperatingPoint":
        return _replace_checked(
            self, link=self.link.with_loss(channel_loss_db)
        )

    def with_clock_rate(self, clock_rate: float) -> "OperatingPoint":
        return replace(
            self, protocol=self.protocol.with_clock_rate(clock_rate)
        )

    def with_source(self, source: SourceModel) -> "OperatingPoint":
        return replace(self, source=source)

    def with_basis_bias(self, basis_bias: float) -> "OperatingPoint":
        return replace(
            self, protocol=replace(self.protocol, basis_bias=basis_bias)
        )


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Event-level simulation settings.

    n_pulses
        Number of excitation pulses to simulate.
    seed
        64-bit seed; identical (scenario, seed) pairs reproduce streams
        bit-identically.
    jitter_sigma
        Detection-timing jitter standard deviation in picoseconds.
    encoded_state
        ``None`` draws a fresh uniformly random state per pulse; an integer
        0–3 statically encodes one state (H, V, D, A) for characterization
        runs.
    """

    n_pulses: int = 10_000_000
    seed: int = 7
    jitter_sigma: float = 50.0
    encoded_state: int | None = None

    def __post_init__(self) -> None:
        _require(self.n_pulses >= 1, "n_pulses", "must be >= 1")
        _require(
            self.jitter_sigma >= 0.0, "jitter_sigma", "must be non-negative"
        )
        _require(
            0 <= self.seed < 2**64,
            "seed",
            "must fit in an unsigned 64-bit integer",
        )
        if self.encoded_state is not None:
            _require(
                0 <= self.encoded_state <= 3,
                "encoded_state",
                "must be None or an integer in 0..3",
            )


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """A named operating point plus simulation settings, as read from file."""

    point: OperatingPoint = field(default_factory=OperatingPoint)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    name: str = "default"


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

_SECTION_TYPES: dict[str, type] = {
    "source": SourceModel,
    "link": LinkModel,
    "protocol": ProtocolParams,
    "budget": SecurityBudget,
    "simulation": SimulationConfig,
}


def _build_section(section: str, mapping: Mapping[str, Any]) -> Any:
    cls = _SECTION_TYPES[section]
    valid = set(cls.__dataclass_fields__)
    for key in mapping:
        if key not in valid:
            raise ParameterError(
                f"{section}.{key}", "unknown field in scenario file"
            )
    if section == "simulation":
        mapping = dict(mapping)
        if "n_pulses" in mapping:
            mapping["n_pulses"] = int(mapping["n_pulses"])
        if "seed" in mapping:
            mapping["seed"] = int(mapping["seed"])
    try:
        return cls(**mapping)
    except ParameterError as exc:
        raise ParameterError(
            f"{section}.{exc.field_name}", str(exc).split(": ", 1)[1]
        ) from exc


def _deep_merge(base: dict, update: Mapping[str, Any]) -> dict:
    merged = dict(base)
    for key, value in update.items():
        if (
            key in merged
            and isinstance(merged[key], dict)
            and isinstance(value, Mapping)
        ):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _read_mapping(path: Path, depth: int = 0) -> dict:
    if depth > 8:
        raise ParameterError("base", "scenario base chain too deep (cycle?)")
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ParameterError("path", f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ParameterError("path", f"scenario file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParameterError("path", "scenario file must hold a JSON object")
    base_name = data.pop("base", None)
    if base_name is not None:
        base = _read_mapping((path.parent / base_name).resolve(), depth + 1)
        data = _deep_merge(base, data)
    return data


def scenario_from_mapping(data: Mapping[str, Any]) -> ScenarioConfig:
    """Build a validated :class:`ScenarioConfig` from a JSON-style mapping.

    Recognized top-level keys: ``name``, the five parameter sections
    (``source``, ``link``, ``protocol``, ``budget``, ``simulation``), and an
    ``overrides`` mapping of dotted ``section.field`` keys applied last —
    the hook sweep drivers use to patch single fields of a base scenario.
    """
    data = dict(data)
    overrides = data.pop("overrides", {})
    if not isinstance(overrides, Mapping):
        raise ParameterError("overrides", "must be a mapping of dotted keys")
    name = data.pop("name", "default")
    sections: dict[str, dict] = {}
    for section in _SECTION_TYPES:
        raw = data.pop(section, {})
        if not isinstance(raw, Mapping):
            raise ParameterError(section, "must be a mapping")
        sections[section] = dict(raw)
    for key in data:
        raise ParameterError(key, "unknown top-level key in scenario file")
    for dotted, value in overrides.items():
        section, _, fieldname = str(dotted).partition(".")
        if section not in sections or not fieldname:
            raise ParameterError(
                f"overrides.{dotted}", "expected a 'section.field' key"
            )
        sections[section][fieldname] = value
    built = {
        section: _build_section(section, mapping)
        for section, mapping in sections.items()
    }
    point = OperatingPoint(
        source=built["source"],
        link=built["link"],
        protocol=built["protocol"],
        budget=built["budget"],
    )
    return ScenarioConfig(
        point=point, simulation=built["simulation"], name=str(name)
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load and validate a scenario file (JSON, optionally with a base)."""
    resolved = Path(path).resolve()
    data = _read_mapping(resolved)
    if "name" not in data:
        data["name"] = resolved.stem
    return scenario_from_mapping(data)
