"""Analytic click/error model and secret-key-rate engine.

The detection model is pulsed: each clock period is one acceptance window.
A signal photon is detected inside its own window with the chain efficiency
times the within-window emission fraction (the exponential decay tail that
spills into later windows is excluded from the window's signal budget — at
GHz clock rates this is what caps the per-window click probability).  Dark
counts contribute per window, scaled linearly with window duration from the
reference clock rate.  Detector recovery is modeled per detector with a
renewal argument on the pulse grid.

On top of the click model sits :func:`skb_per_pulse`, the one secret-key
evaluator: a single click-model pass per operating point feeds either the
asymptotic formula or the finite-block bridge into
:mod:`sps_bb84.finitekey`.  The maximum-tolerable-loss solver and the
serial :func:`sweep` both evaluate through it; sweep rows are written,
and source datasets read, through the package's one CSV table codec.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Literal, Mapping, Sequence

from ._table import read_table, write_table
from .finitekey import FiniteBlockInput, FiniteKeyReport, finite_skb_per_pulse
from .params import OperatingPoint, ParameterError, _require, binary_entropy

__all__ = [
    "NoPositiveKeyError",
    "ClickTerms",
    "KeyRateReport",
    "SweepRow",
    "multiphoton_bound",
    "emission_capture_fraction",
    "expected_blocked_windows",
    "click_terms",
    "click_probability",
    "qber_total",
    "finite_block_input",
    "skb_per_pulse",
    "max_tolerable_loss",
    "sweep",
    "write_sweep_csv",
    "read_dataset_csv",
]

Regime = Literal["asymptotic", "finite"]


class NoPositiveKeyError(RuntimeError):
    """No positive secret key is available for the requested configuration."""


@dataclass(frozen=True, slots=True)
class ClickTerms:
    """Per-pulse click decomposition at one operating point.

    signal
        Probability that at least one signal photon registers in its window.
    dark_total
        Probability of at least one dark count across all detectors.
    raw
        Probability of at least one click of any origin, before recovery
        losses.
    dead_time_factor
        Fraction of candidate clicks that survive detector recovery.
    corrected
        ``raw * dead_time_factor`` — the detection probability per pulse.
    qber
        Total error rate among detections.  Misalignment flips signal
        detections; dark counts land on a random port and err half the
        time.  When no click mechanism is active the uninformative rate
        0.5 is reported.
    """

    signal: float
    dark_total: float
    raw: float
    dead_time_factor: float
    corrected: float
    qber: float


@dataclass(frozen=True, slots=True)
class KeyRateReport:
    """Secret-key evaluation at one operating point."""

    p_c: float
    p_m: float
    p_c1_lower: float
    e_tot: float
    e1_upper: float
    skb_per_pulse: float
    skr: float
    regime: Regime
    positive: bool
    finite: FiniteKeyReport | None = None


# ---------------------------------------------------------------------------
# click model
# ---------------------------------------------------------------------------

def multiphoton_bound(op: OperatingPoint) -> float:
    """Per-pulse multiphoton emission probability bound g2 * n^2 / 2.

    The mean photon number n is taken at the channel input: the source's
    (pre-attenuated) mean times the transmitter efficiency, since photons
    lost inside the trusted transmitter never reach the channel.
    """
    n_eff = op.source.effective_mean_photon_number
    n_eff *= op.link.transmitter_efficiency
    return 0.5 * op.source.g2_zero * n_eff * n_eff


def emission_capture_fraction(lifetime_ps: float, period_ps: float) -> float:
    """Fraction of exponential-decay emission landing inside one period."""
    _require(lifetime_ps > 0.0, "lifetime_ps", "must be positive")
    _require(period_ps > 0.0, "period_ps", "must be positive")
    return -math.expm1(-period_ps / lifetime_ps)


def expected_blocked_windows(
    lifetime_ps: float, period_ps: float, dead_time_ns: float
) -> float:
    """Mean number of later candidate windows blinded by one registered click.

    Within-window arrival offsets of signal clicks are exponential with the
    emission lifetime, so the offset difference between two clicks follows a
    Laplace distribution with that scale.  The candidate in window ``j``
    periods later is blocked when its offset lags the registered click's
    offset by less than ``dead_time − j·period``; summing that probability
    over ``j`` gives the expected blocked count per registration.
    """
    _require(dead_time_ns >= 0.0, "dead_time_ns", "must be non-negative")
    return _blocked_windows(lifetime_ps, period_ps, dead_time_ns)


# a loss sweep or an MTL bisection asks for one detector and pulse grid
# thousands of times; the public name stays a plain function so that
# call-level tracing still sees it
@functools.lru_cache(maxsize=64)
def _blocked_windows(
    lifetime_ps: float, period_ps: float, dead_time_ns: float
) -> float:
    dead_ps = dead_time_ns * 1e3
    total = 0.0
    for j in range(1, 100_000):
        x = dead_ps - j * period_ps
        if x < 0.0:
            tail = 0.5 * math.exp(x / lifetime_ps)
            total += tail
            if tail < 1e-12:
                break
        else:
            total += 1.0 - 0.5 * math.exp(-x / lifetime_ps)
    return total


def click_terms(op: OperatingPoint) -> ClickTerms:
    """Evaluate the per-pulse click decomposition for one operating point."""
    source, link, protocol = op.source, op.link, op.protocol
    period = protocol.pulse_period_ps
    capture = emission_capture_fraction(source.lifetime, period)
    eta_window = (
        link.transmitter_efficiency
        * link.channel_transmittance
        * link.receiver_chain_efficiency
        * capture
    )
    _, p1, p2 = source.photon_number_pmf()
    # at least one of the (up to two) photons registers in the window
    p_signal = p1 * eta_window + p2 * (1.0 - (1.0 - eta_window) ** 2)
    p_dark = link.dark_prob_total(protocol.clock_rate)
    p_raw = 1.0 - (1.0 - p_signal) * (1.0 - p_dark)
    blocked = expected_blocked_windows(
        source.lifetime, period, link.dead_time
    )
    per_detector = p_raw / link.detector_count
    dead_factor = 1.0 / (1.0 + per_detector * blocked)
    if p_raw <= 0.0:
        qber = 0.5
    else:
        errors = (
            link.misalignment_prob * p_signal
            + 0.5 * p_dark * (1.0 - p_signal)
        )
        qber = min(0.5, errors / p_raw)
    return ClickTerms(
        signal=p_signal,
        dark_total=p_dark,
        raw=p_raw,
        dead_time_factor=dead_factor,
        corrected=p_raw * dead_factor,
        qber=qber,
    )


def click_probability(op: OperatingPoint) -> float:
    """Total detection probability per clock pulse."""
    return click_terms(op).corrected


def qber_total(op: OperatingPoint) -> float:
    """Total error rate among detections (see :class:`ClickTerms`)."""
    return click_terms(op).qber


# ---------------------------------------------------------------------------
# secret-key evaluation
# ---------------------------------------------------------------------------

def _block_input(
    op: OperatingPoint,
    terms: ClickTerms,
    p_m: float,
    block_size: float | None,
) -> FiniteBlockInput:
    n_z = float(block_size if block_size is not None else op.protocol.block_size)
    _require(1.0 <= n_z < math.inf, "block_size", "must be finite and >= 1")
    p_c = terms.corrected
    if p_c <= 0.0:
        raise NoPositiveKeyError("no clicks at this operating point")
    p_x = op.protocol.basis_bias
    n_x = n_z * (p_x / (1.0 - p_x)) ** 2
    n_sent = n_z / (p_c * (1.0 - p_x) ** 2)
    return FiniteBlockInput(
        n_x=n_x,
        n_z=n_z,
        observed_error_x=terms.qber,
        observed_error_z=terms.qber,
        n_sent=n_sent,
        budget=op.budget,
        f_ec=op.protocol.error_correction_inefficiency,
        clock_rate=op.protocol.clock_rate,
        acquisition_time=n_sent / op.protocol.clock_rate,
        multiphoton_prob=p_m,
    )


def finite_block_input(
    op: OperatingPoint, block_size: float | None = None
) -> FiniteBlockInput:
    """Predict the finite-block observables for one operating point.

    ``block_size`` is the target received rectilinear-basis count; the
    pulse budget follows from the click probability and basis bias, and
    the analytic error rate stands in for both observed rates.
    """
    return _block_input(op, click_terms(op), multiphoton_bound(op), block_size)


def skb_per_pulse(
    op: OperatingPoint,
    regime: Regime = "asymptotic",
    block_size: float | None = None,
) -> KeyRateReport:
    """Secret key bits per clock pulse in the asymptotic or finite regime.

    Both regimes share one click-model pass.  The single-photon click
    floor is p_c1 = max(0, p_c − p_m), and all errors are conservatively
    attributed to single-photon detections, e1 = min(0.5, e_tot * p_c /
    p_c1) (0.5 when p_c1 = 0).  The asymptotic regime evaluates
    p_sift * { p_c1 * [1 − h(e1)] − f * p_c * h(e_tot) }, clamped at zero.
    The finite regime bounds the block predicted by
    :func:`finite_block_input`; a point without clicks has no finite
    report and zero key.
    """
    if regime not in ("asymptotic", "finite"):
        raise ParameterError("regime", "must be 'asymptotic' or 'finite'")
    terms = click_terms(op)
    p_c, e_tot = terms.corrected, terms.qber
    p_m = multiphoton_bound(op)
    p_c1 = max(0.0, p_c - p_m)
    e1 = min(0.5, e_tot * p_c / p_c1) if p_c1 > 0.0 else 0.5
    skb, finite = 0.0, None
    if regime == "finite":
        try:
            block = _block_input(op, terms, p_m, block_size)
        except NoPositiveKeyError:
            pass
        else:
            finite = finite_skb_per_pulse(block)
            skb = finite.skb_per_pulse
    elif p_c1 > 0.0:
        p_sift = op.protocol.sift_probability
        f_ec = op.protocol.error_correction_inefficiency
        skb = p_sift * (
            p_c1 * (1.0 - binary_entropy(e1))
            - f_ec * p_c * binary_entropy(e_tot)
        )
        skb = max(0.0, skb)
    return KeyRateReport(
        p_c=p_c,
        p_m=p_m,
        p_c1_lower=p_c1,
        e_tot=e_tot,
        e1_upper=e1,
        skb_per_pulse=skb,
        skr=skb * op.protocol.clock_rate,
        regime=regime,
        positive=skb > 0.0,
        finite=finite,
    )


# ---------------------------------------------------------------------------
# maximum tolerable loss
# ---------------------------------------------------------------------------

def max_tolerable_loss(
    op: OperatingPoint,
    regime: Regime = "asymptotic",
    block_size: float | None = None,
) -> float:
    """Channel loss (dB) at which the secret key rate reaches zero.

    Bisects the zero crossing of the selected regime's key fraction,
    verifying monotone decrease on the bracket, to a final bracket width
    of 0.001 dB (well inside the 0.01 dB contract).
    """

    def value(loss_db: float) -> float:
        return skb_per_pulse(
            op.with_loss(loss_db), regime, block_size
        ).skb_per_pulse

    lo = 0.0
    s_lo = value(lo)
    if s_lo <= 0.0:
        raise NoPositiveKeyError(
            "secret key fraction is not positive even at zero loss"
        )
    hi = max(10.0, op.link.channel_loss_db)
    while value(hi) > 0.0:
        hi *= 2.0
        if hi > 400.0:
            raise NoPositiveKeyError(
                "no zero crossing found below 400 dB of loss"
            )
    # the key fraction must decay monotonically across the bracket
    probes = [lo + k * (hi - lo) / 8.0 for k in range(9)]
    samples = [value(p) for p in probes]
    for earlier, later in zip(samples, samples[1:]):
        if later > earlier * (1.0 + 1e-9) + 1e-15:
            raise RuntimeError(
                "secret key fraction is not monotone on the loss bracket"
            )
    while hi - lo > 0.001:
        mid = 0.5 * (lo + hi)
        if value(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# one-dimensional maximization
# ---------------------------------------------------------------------------

def _golden_refine(
    objective: Callable[[float], float],
    lo: float,
    hi: float,
    iterations: int = 40,
) -> tuple[float, float]:
    """Golden-section maximization of a unimodal-ish objective on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    best = c if fc >= fd else d
    return best, max(fc, fd)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SweepRow:
    """One sweep grid point with its evaluation."""

    axis: str
    value: float | str
    report: KeyRateReport


def _dataset_point(
    op: OperatingPoint, row: Mapping, index: int
) -> OperatingPoint:
    try:
        source = replace(
            op.source,
            mean_photon_number=float(row["mean_photon_number"]),
            g2_zero=float(row["g2_zero"]),
        )
    except (ParameterError, TypeError, ValueError, KeyError) as exc:
        raise ParameterError(
            f"dataset[{index}]", f"invalid dataset row: {exc}"
        ) from exc
    return op.with_source(source)


def sweep(
    op: OperatingPoint,
    axis: Literal["loss", "clock_rate", "dataset"],
    values: Sequence,
    regime: Regime = "asymptotic",
    block_size: float | None = None,
) -> list[SweepRow]:
    """Evaluate the key rate over a grid, in grid order.

    ``loss`` sweeps channel loss in dB; ``clock_rate`` sweeps the clock in
    Hz; ``dataset`` re-evaluates ingested source rows (mappings with keys
    ``label``, ``mean_photon_number``, ``g2_zero``) at the fixed link.
    Invalid rows raise with their index.
    """
    if axis not in ("loss", "clock_rate", "dataset"):
        raise ParameterError("axis", "must be loss, clock_rate, or dataset")
    if len(values) == 0:
        raise ParameterError("values", "sweep grid must be non-empty")
    points: list[tuple[float | str, OperatingPoint]] = []
    for index, value in enumerate(values):
        if axis == "loss":
            points.append((float(value), op.with_loss(float(value))))
        elif axis == "clock_rate":
            points.append((float(value), op.with_clock_rate(float(value))))
        else:
            points.append(
                (
                    str(value.get("label", index))
                    if isinstance(value, Mapping)
                    else str(index),
                    _dataset_point(op, value, index),
                )
            )
    return [
        SweepRow(
            axis=axis,
            value=value,
            report=skb_per_pulse(point, regime, block_size),
        )
        for value, point in points
    ]


_SWEEP_COLUMNS = (
    "axis_value",
    "p_c",
    "p_m",
    "e_tot",
    "skb_per_pulse",
    "skr_bits_per_s",
    "regime",
)
_FINITE_COLUMNS = (
    "n_nmp_lower",
    "phase_error_upper",
    "lambda_ec",
    "final_key_length",
)


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    """Write sweep rows as CSV; finite-regime rows carry extra columns."""
    has_finite = any(row.report.finite is not None for row in rows)
    columns = _SWEEP_COLUMNS + (_FINITE_COLUMNS if has_finite else ())
    records = []
    for row in rows:
        r = row.report
        record = [
            row.value,
            f"{r.p_c:.10e}",
            f"{r.p_m:.10e}",
            f"{r.e_tot:.10e}",
            f"{r.skb_per_pulse:.10e}",
            f"{r.skr:.6f}",
            r.regime,
        ]
        if has_finite:
            if r.finite is None:
                record.extend(["", "", "", ""])
            else:
                record.extend(
                    [
                        f"{r.finite.n_nmp_lower:.6f}",
                        f"{r.finite.phase_error_upper:.10e}",
                        f"{r.finite.lambda_ec:.6f}",
                        str(r.finite.final_key_length),
                    ]
                )
        records.append(record)
    write_table(path, columns, records)


_DATASET_COLUMNS = ("label", "mean_photon_number", "g2_zero")


def read_dataset_csv(path: str | Path) -> list[dict[str, str | float]]:
    """Read labelled source rows (label, mean_photon_number, g2_zero)."""
    columns = read_table(
        path, "dataset", _DATASET_COLUMNS, (str, float, float)
    )
    if not columns[0]:
        raise ParameterError("dataset", "dataset CSV has no data rows")
    return [dict(zip(_DATASET_COLUMNS, row)) for row in zip(*columns)]
