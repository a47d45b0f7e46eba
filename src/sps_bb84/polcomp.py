"""Fibre polarization drift and the receiver's automatic compensation loop.

The fibre's birefringence is lumped into a single Jones-calculus unitary
that performs a slow random walk on the Poincare sphere.  The receiver
undoes it with a retarder stack (quarter-, half-, quarter-wave by
default) driven by a derivative-free coordinate search that minimizes
the locally measured error rate.  Residual misalignment raises the
matched-basis error rate above the operating point's intrinsic floor;
perfect compensation recovers the floor exactly.

Axis convention for Poincare-sphere rotations: component 0 points at
horizontal/vertical, component 1 at diagonal/antidiagonal, component 2
at the circular poles.  A sphere rotation by ``angle`` maps to a Jones
unitary with half that rotation angle, as usual for the SU(2) double
cover.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ._table import read_table, write_table
from .keyrate import qber_total
from .params import OperatingPoint, _require

__all__ = [
    "CompensationTrace",
    "CompensatorState",
    "PolarizationDrift",
    "apply_drift",
    "basis_error_rates",
    "compensate",
    "measured_qber",
    "read_trace_csv",
    "residual_rotation",
    "rotation_from_axis_angle",
    "track_compensation",
    "waveplate",
    "write_trace_csv",
]

_IDENTITY = np.eye(2, dtype=np.complex128)
#: Pauli operators whose eigenstates are the H/V, D/A, and circular
#: poles respectively, matching the axis convention above
_POLE_OPERATORS = (
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
)
_H = np.array([1.0, 0.0], dtype=np.complex128)
_V = np.array([0.0, 1.0], dtype=np.complex128)
_D = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
_A = np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0)
_V_CONJ = _V.conj()
_A_CONJ = _A.conj()

#: tolerance on ||U*U - I|| accepted from constructors and preserved
#: by arbitrarily long drift composition
_UNITARITY_TOL = 1e-9


def rotation_from_axis_angle(
    axis: tuple[float, float, float], angle: float
) -> np.ndarray:
    """Jones unitary of a Poincare-sphere rotation about ``axis``."""
    vector = np.asarray(axis, dtype=np.float64)
    norm = float(np.linalg.norm(vector))
    _require(norm > 0.0, "axis", "must have nonzero length")
    vector = vector / norm
    generator = sum(
        component * pole
        for component, pole in zip(vector, _POLE_OPERATORS)
    )
    half = 0.5 * angle
    return math.cos(half) * _IDENTITY - 1j * math.sin(half) * generator


def waveplate(angle: float, retardance: float) -> np.ndarray:
    """Jones matrix of an ideal linear retarder with its fast axis at
    ``angle`` from horizontal."""
    c, s = math.cos(angle), math.sin(angle)
    frame = np.array([[c, -s], [s, c]], dtype=np.complex128)
    phases = np.array(
        [
            [np.exp(-0.5j * retardance), 0.0],
            [0.0, np.exp(0.5j * retardance)],
        ],
        dtype=np.complex128,
    )
    return frame @ phases @ frame.T


#: plate and stack matrices kept per wrapped angle: the tracking loop's
#: one-degree probe moves revisit a few hundred angle sets over
#: thousands of probes, so nearly every probe reuses a cached matrix
_PLATE_CACHE_SIZE = 1024


def _read_only(matrix: np.ndarray) -> np.ndarray:
    """Freeze a cached matrix so that no caller can alter the cache."""
    matrix.flags.writeable = False
    return matrix


@functools.lru_cache(maxsize=_PLATE_CACHE_SIZE)
def _quarter_wave(angle: float) -> np.ndarray:
    return _read_only(waveplate(angle, math.pi / 2.0))


@functools.lru_cache(maxsize=_PLATE_CACHE_SIZE)
def _half_wave(angle: float) -> np.ndarray:
    return _read_only(waveplate(angle, math.pi))


def _reorthonormalize(matrix: np.ndarray) -> np.ndarray:
    """Project a near-unitary 2x2 matrix back onto the unitary group."""
    first = matrix[:, 0] / np.linalg.norm(matrix[:, 0])
    second = matrix[:, 1] - (first.conj() @ matrix[:, 1]) * first
    second = second / np.linalg.norm(second)
    return np.column_stack([first, second])


def _unitarity_defect(matrix: np.ndarray) -> float:
    return float(
        np.abs(matrix.conj().T @ matrix - _IDENTITY).max()
    )


@dataclass(frozen=True, slots=True)
class PolarizationDrift:
    """Lumped fibre birefringence as a slowly wandering Jones unitary.

    ``step`` counts applied random-walk increments; together with
    ``seed`` it makes the walk a pure function of its history, so two
    walks from the same seed stay identical.
    """

    rotation: np.ndarray
    drift_rate: float = 0.0
    seed: int = 0
    step: int = 0

    def __post_init__(self) -> None:
        rotation = np.asarray(self.rotation, dtype=np.complex128)
        _require(
            rotation.shape == (2, 2),
            "rotation",
            "must be a 2x2 Jones matrix",
        )
        _require(
            _unitarity_defect(rotation) < _UNITARITY_TOL,
            "rotation",
            "must be unitary",
        )
        _require(
            self.drift_rate >= 0.0, "drift_rate", "must be >= 0"
        )
        _require(self.step >= 0, "step", "must be >= 0")
        object.__setattr__(self, "rotation", rotation)

    @classmethod
    def identity(
        cls, drift_rate: float = 0.0, seed: int = 0
    ) -> "PolarizationDrift":
        return cls(
            rotation=_IDENTITY.copy(), drift_rate=drift_rate, seed=seed
        )

    @classmethod
    def from_axis_angle(
        cls,
        axis: tuple[float, float, float],
        angle: float,
        drift_rate: float = 0.0,
        seed: int = 0,
    ) -> "PolarizationDrift":
        return cls(
            rotation=rotation_from_axis_angle(axis, angle),
            drift_rate=drift_rate,
            seed=seed,
        )

    @property
    def rotation_angle(self) -> float:
        """Poincare-sphere rotation angle in [0, pi], phase-blind."""
        half_cos = min(1.0, 0.5 * abs(np.trace(self.rotation)))
        return 2.0 * math.acos(half_cos)


#: walk steps whose uniforms :func:`_drift_walk` draws at once
_WALK_BLOCK = 1024


def _drift_walk(
    state: PolarizationDrift, dt: float, n_steps: int
) -> Iterator[PolarizationDrift]:
    """The walk's states after each of ``n_steps`` increments of ``dt``.

    Step k's axis comes from the first two of the 16 doubles that
    ``Philox(key=seed)`` yields from counter 4k on, so one generator,
    advanced once and read in blocks, gives every step the pair that a
    generator built for that step alone would.
    """
    _require(0.0 <= dt < math.inf, "dt", "must be finite and >= 0")
    angle = state.drift_rate * dt
    _require(math.isfinite(angle), "drift_rate", "times dt must be finite")
    if angle == 0.0:
        for _ in range(n_steps):
            state = replace(state, step=state.step + 1)
            yield state
        return
    bit_generator = np.random.Philox(key=state.seed)
    bit_generator.advance(4 * state.step)
    rng = np.random.Generator(bit_generator)
    for start in range(0, n_steps, _WALK_BLOCK):
        count = min(_WALK_BLOCK, n_steps - start)
        block = rng.random(16 * count).reshape(count, 16)
        for u_z, u_azimuth in block[:, :2].tolist():
            z = 2.0 * u_z - 1.0
            azimuth = 2.0 * math.pi * u_azimuth
            radial = math.sqrt(max(0.0, 1.0 - z * z))
            axis = (radial * math.cos(azimuth), radial * math.sin(azimuth), z)
            composed = rotation_from_axis_angle(axis, angle) @ state.rotation
            state = PolarizationDrift(
                rotation=_reorthonormalize(composed),
                drift_rate=state.drift_rate,
                seed=state.seed,
                step=state.step + 1,
            )
            yield state


def apply_drift(state: PolarizationDrift, dt: float) -> PolarizationDrift:
    """Compose one random-walk increment of magnitude drift_rate*dt.

    The increment axis is uniform on the Poincare sphere, drawn from a
    counter-based generator indexed by the walk step, so the trajectory
    is reproducible and independent of call batching.
    :func:`track_compensation` relies on this: it draws a whole run's
    axes from one generator and matches step-by-step calls bit for bit.
    """
    return next(_drift_walk(state, dt, 1))


# ---------------------------------------------------------------------------
# compensator stack
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CompensatorState:
    """Retarder angles of the receiver's compensation stack.

    The default three-plate stack (quarter, half, quarter) reaches the
    whole unitary group up to global phase, so any fibre rotation can be
    undone exactly; ``plates=2`` restricts the stack to the quarter+half
    pair, which can align single states but not both bases at once.
    Angles are stored wrapped to [0, pi) -- a retarder is invariant
    under a half-turn of its axis.
    """

    qwp_angle: float = 0.0
    hwp_angle: float = 0.0
    exit_qwp_angle: float = 0.0
    plates: int = 3
    qber_estimate: float = 0.5
    iterations: int = 0
    budget_exhausted: bool = False

    def __post_init__(self) -> None:
        _require(self.plates in (2, 3), "plates", "must be 2 or 3")
        _require(
            0.0 <= self.qber_estimate <= 0.5,
            "qber_estimate",
            "must lie in [0, 0.5]",
        )
        _require(self.iterations >= 0, "iterations", "must be >= 0")
        for name in ("qwp_angle", "hwp_angle", "exit_qwp_angle"):
            object.__setattr__(self, name, getattr(self, name) % math.pi)

    @property
    def angles(self) -> tuple[float, ...]:
        """The searchable angles, one per physical plate."""
        if self.plates == 2:
            return (self.qwp_angle, self.hwp_angle)
        return (self.qwp_angle, self.hwp_angle, self.exit_qwp_angle)

    def with_angles(self, angles: tuple[float, ...]) -> "CompensatorState":
        exit_qwp_angle = (
            self.exit_qwp_angle if self.plates == 2 else angles[2]
        )
        return type(self)(
            qwp_angle=angles[0],
            hwp_angle=angles[1],
            exit_qwp_angle=exit_qwp_angle,
            plates=self.plates,
            qber_estimate=self.qber_estimate,
            iterations=self.iterations,
            budget_exhausted=self.budget_exhausted,
        )

    def jones(self) -> np.ndarray:
        """Jones matrix of the stack in light-propagation order."""
        return _stack_jones(
            self.qwp_angle, self.hwp_angle, self.exit_qwp_angle, self.plates
        )


@functools.lru_cache(maxsize=_PLATE_CACHE_SIZE)
def _stack_jones(
    qwp_angle: float, hwp_angle: float, exit_qwp_angle: float, plates: int
) -> np.ndarray:
    stack = _half_wave(hwp_angle) @ _quarter_wave(qwp_angle)
    if plates == 3:
        stack = _quarter_wave(exit_qwp_angle) @ stack
    return _read_only(stack)


def residual_rotation(
    drift: PolarizationDrift, compensator: CompensatorState
) -> np.ndarray:
    """Net Jones transform after the fibre and the compensator stack."""
    return compensator.jones() @ drift.rotation


def _error_rates(
    drift: PolarizationDrift, compensator: CompensatorState, floor: float
) -> tuple[float, float]:
    net = residual_rotation(drift, compensator)
    leak_z = float(abs(_V_CONJ @ net @ _H) ** 2)
    leak_x = float(abs(_A_CONJ @ net @ _D) ** 2)
    return (
        floor + (1.0 - 2.0 * floor) * leak_z,
        floor + (1.0 - 2.0 * floor) * leak_x,
    )


def _measured_qber(
    drift: PolarizationDrift,
    compensator: CompensatorState,
    floor: float,
    probe_photons: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """:func:`measured_qber` above a precomputed error floor.

    A feedback loop probes one operating point many times; it evaluates
    the floor, a full click-model pass, once and passes it here.
    """
    error_z, error_x = _error_rates(drift, compensator, floor)
    probability = 0.5 * (error_z + error_x)
    if probe_photons is None:
        return probability
    _require(probe_photons >= 1, "probe_photons", "must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    return float(rng.binomial(probe_photons, probability)) / probe_photons


def basis_error_rates(
    drift: PolarizationDrift,
    compensator: CompensatorState,
    point: OperatingPoint,
) -> tuple[float, float]:
    """Matched-basis error probabilities (rectilinear, diagonal).

    The residual rotation leaks each prepared state into its orthogonal
    detection port; that leakage combines with the operating point's
    intrinsic error floor as two independent symmetric error sources.
    """
    return _error_rates(drift, compensator, qber_total(point))


def measured_qber(
    drift: PolarizationDrift,
    compensator: CompensatorState,
    point: OperatingPoint,
    probe_photons: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Locally measured error rate across both bases.

    With ``probe_photons`` the analytic probability is sampled through a
    binomial counter of that size, modeling a finite probe budget per
    measurement; otherwise the exact value is returned.
    """
    return _measured_qber(
        drift, compensator, qber_total(point), probe_photons, rng
    )


# ---------------------------------------------------------------------------
# compensation search
# ---------------------------------------------------------------------------

def compensate(
    compensator: CompensatorState,
    qber_probe: Callable[[CompensatorState], float],
    budget: int,
    initial_step: float = math.pi / 8.0,
    min_step: float = 1e-5,
) -> CompensatorState:
    """Minimize the probed error rate by rotating-direction search.

    One probe evaluates the stack at one set of angles.  Each search
    direction carries its own signed step: a strictly improving move is
    accepted and its step expands, a failing move flips and halves its
    step.  Once every direction has both succeeded and then failed, the
    direction frame re-orthogonalizes around the accumulated improving
    displacement, so the search aligns itself with curved valleys of
    the error surface instead of zig-zagging across them.  The search
    stops when all steps fall below ``min_step`` (converged) or the
    probe budget runs out (``budget_exhausted`` set on the returned
    state, which is the best visited).  Only strict improvements are
    accepted, so the accepted-value sequence is decreasing and an
    already-optimal start returns with its angles untouched.
    """
    _require(budget >= 1, "budget", "must be >= 1")
    _require(
        0.0 < min_step <= initial_step,
        "min_step",
        "must lie in (0, initial_step]",
    )
    dims = len(compensator.angles)
    position = np.array(compensator.angles, dtype=np.float64)
    best = float(qber_probe(compensator.with_angles(tuple(position))))
    probes = 1

    directions = np.eye(dims)
    steps = np.full(dims, initial_step)
    travelled = np.zeros(dims)
    succeeded = np.zeros(dims, dtype=bool)
    failed_after = np.zeros(dims, dtype=bool)

    while probes < budget and np.abs(steps).max() >= min_step:
        for axis in range(dims):
            if probes >= budget:
                break
            candidate = position + steps[axis] * directions[axis]
            value = float(
                qber_probe(compensator.with_angles(tuple(candidate)))
            )
            probes += 1
            if value < best:
                position, best = candidate, value
                travelled[axis] += steps[axis]
                steps[axis] *= 3.0
                succeeded[axis] = True
            else:
                steps[axis] *= -0.5
                if succeeded[axis]:
                    failed_after[axis] = True
        if succeeded.all() and failed_after.all():
            move = travelled @ directions
            if np.linalg.norm(move) > 1e-12:
                frame = [move / np.linalg.norm(move)]
                for old in directions:
                    rest = old - sum(
                        (old @ unit) * unit for unit in frame
                    )
                    if np.linalg.norm(rest) > 1e-9:
                        frame.append(rest / np.linalg.norm(rest))
                directions = np.array(frame[:dims])
            travelled[:] = 0.0
            succeeded[:] = False
            failed_after[:] = False
            magnitude = np.clip(
                np.abs(steps), 4.0 * min_step, initial_step
            )
            steps = np.sign(steps) * magnitude
    exhausted = probes >= budget and np.abs(steps).max() >= min_step

    return replace(
        compensator.with_angles(tuple(position)),
        qber_estimate=min(0.5, max(0.0, best)),
        iterations=compensator.iterations + probes,
        budget_exhausted=exhausted,
    )


# ---------------------------------------------------------------------------
# closed-loop tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CompensationTrace:
    """Per-step record of a closed-loop tracking run."""

    time_s: np.ndarray
    drift_angle: np.ndarray
    residual_qber: np.ndarray
    probes_used: np.ndarray

    def __post_init__(self) -> None:
        time_s = np.asarray(self.time_s, dtype=np.float64)
        lengths = {
            len(time_s),
            len(self.drift_angle),
            len(self.residual_qber),
            len(self.probes_used),
        }
        _require(
            len(lengths) == 1,
            "time_s",
            "trace columns must have equal length",
        )
        object.__setattr__(self, "time_s", time_s)
        object.__setattr__(
            self,
            "drift_angle",
            np.asarray(self.drift_angle, dtype=np.float64),
        )
        object.__setattr__(
            self,
            "residual_qber",
            np.asarray(self.residual_qber, dtype=np.float64),
        )
        object.__setattr__(
            self,
            "probes_used",
            np.asarray(self.probes_used, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.time_s)


def track_compensation(
    drift: PolarizationDrift,
    compensator: CompensatorState,
    point: OperatingPoint,
    n_steps: int,
    dt: float,
    probes_per_step: int = 6,
    probe_photons: int | None = None,
    probe_seed: int = 0,
) -> tuple[PolarizationDrift, CompensatorState, CompensationTrace]:
    """Run the feedback loop against an evolving drift.

    Each cycle advances the drift by ``dt`` and spends a small probe
    budget nudging the plates at a fixed one-degree step (no step
    shrink -- the loop must stay responsive).  The recorded residual is
    the exact error rate after the cycle's adjustment, even when the
    probes themselves are shot-noise limited.
    """
    _require(n_steps >= 1, "n_steps", "must be >= 1")
    _require(dt > 0.0, "dt", "must be > 0")
    _require(probes_per_step >= 1, "probes_per_step", "must be >= 1")
    probe_rng = np.random.default_rng(probe_seed)
    floor = qber_total(point)
    step = math.pi / 180.0

    times = np.empty(n_steps, dtype=np.float64)
    angles = np.empty(n_steps, dtype=np.float64)
    residuals = np.empty(n_steps, dtype=np.float64)
    probes = np.empty(n_steps, dtype=np.int64)

    for index, drift in enumerate(_drift_walk(drift, dt, n_steps)):
        def probe(state: CompensatorState) -> float:
            return _measured_qber(
                drift, state, floor,
                probe_photons=probe_photons, rng=probe_rng,
            )

        before = compensator.iterations
        compensator = compensate(
            compensator,
            probe,
            budget=probes_per_step,
            initial_step=step,
            min_step=step,
        )
        times[index] = (index + 1) * dt
        angles[index] = drift.rotation_angle
        residuals[index] = _measured_qber(drift, compensator, floor)
        probes[index] = compensator.iterations - before

    trace = CompensationTrace(
        time_s=times,
        drift_angle=angles,
        residual_qber=residuals,
        probes_used=probes,
    )
    return drift, compensator, trace


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

_TRACE_HEADER = ("time_s", "drift_angle", "residual_qber", "probes_used")


def write_trace_csv(trace: CompensationTrace, path: str | Path) -> None:
    floats = (trace.time_s, trace.drift_angle, trace.residual_qber)
    rows = (
        [*(f"{value:.9g}" for value in values), int(probes)]
        for *values, probes in zip(*floats, trace.probes_used)
    )
    write_table(path, _TRACE_HEADER, rows)


def read_trace_csv(path: str | Path) -> CompensationTrace:
    parsers = (float, float, float, np.int64)
    columns = read_table(path, "trace", _TRACE_HEADER, parsers)
    # the columns are the trace's fields in order; it sets their dtypes
    return CompensationTrace(*columns)
