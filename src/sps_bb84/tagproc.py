"""Time-tag post-processing for detection streams.

Builds sync-correlation histograms, estimates the second-order
correlation g²(0) from coincidence histograms, accumulates encoded-state
truth tables with fidelity and per-basis error rates, fits emission
lifetimes, and searches temporal acceptance windows that maximize the
extractable key fraction.

Delay convention: all sync-relative quantities use the delay from the
previous reference tick, so delays live in [0, pulse period).  Detection
clicks jittered slightly before their nominal tick therefore show up at
the far edge of the previous period; windowed accumulation treats them
like any other tail count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal, Mapping

import numpy as np

from ._table import read_table, write_table
from .keyrate import KeyRateReport, skb_per_pulse
from .montecarlo import TagStream
from .params import OperatingPoint, ParameterError, _require

__all__ = [
    "CorrelationHistogram",
    "G2Estimate",
    "InsufficientStatisticsError",
    "BasisQber",
    "TemporalWindowResult",
    "TruthTable",
    "correlate",
    "fidelity",
    "fit_lifetime",
    "g2_zero",
    "optimize_temporal_window",
    "qber_from_table",
    "read_histogram_csv",
    "truth_table",
    "write_histogram_csv",
    "write_truth_table_csv",
]

class InsufficientStatisticsError(RuntimeError):
    """Raised when a histogram has too few counts for a stable estimate."""


@dataclass(frozen=True, slots=True)
class CorrelationHistogram:
    """Binned delay counts; bin i covers [origin + i*w, origin + (i+1)*w)."""

    bin_width_ps: float
    counts: np.ndarray
    origin_ps: float

    def __post_init__(self) -> None:
        _require(
            0.0 < self.bin_width_ps < math.inf,
            "bin_width_ps",
            "must be positive and finite",
        )
        counts = np.asarray(self.counts, dtype=np.int64)
        _require(len(counts) >= 1, "counts", "histogram needs >= 1 bin")
        _require(bool((counts >= 0).all()), "counts", "must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    @property
    def span_ps(self) -> float:
        return self.n_bins * self.bin_width_ps

    def bin_centers(self) -> np.ndarray:
        return self.origin_ps + (np.arange(self.n_bins) + 0.5) * \
            self.bin_width_ps

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True, slots=True)
class G2Estimate:
    """Central-to-side coincidence ratio with its Poisson uncertainty."""

    value: float
    sigma: float
    center_counts: int
    side_counts: int
    n_side_peaks: int


@dataclass(frozen=True, slots=True)
class TruthTable:
    """Encoded-state (rows H,V,D,A) vs decoded-port (columns) counts.

    ``normalized`` tables scale each row by its matched-basis total, so
    the two matched-basis entries of a row sum to 1 (crossed-basis
    entries then sit near 0.5 for an unbiased splitter).
    """

    counts: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.float64)
        _require(counts.shape == (4, 4), "counts", "table must be 4x4")
        _require(bool((counts >= 0).all()), "counts", "must be non-negative")
        object.__setattr__(self, "counts", counts)

    def normalized_table(self) -> "TruthTable":
        if self.normalized:
            return self
        scaled = np.empty_like(self.counts)
        for state in range(4):
            basis = state >> 1
            matched = self.counts[state, 2 * basis] + \
                self.counts[state, 2 * basis + 1]
            if matched <= 0.0:
                raise ParameterError(
                    "counts",
                    f"encoded state {state} has no matched-basis "
                    "coincidences",
                )
            scaled[state] = self.counts[state] / matched
        return TruthTable(counts=scaled, normalized=True)


@dataclass(frozen=True, slots=True)
class BasisQber:
    """Wrong-port fractions within matched-basis coincidences."""

    z: float
    x: float
    combined: float


@dataclass(frozen=True, slots=True)
class TemporalWindowResult:
    """Best acceptance window and the rate reports that justify it."""

    start_ps: float
    width_ps: float
    acceptance: float
    filtered_point: OperatingPoint
    report: KeyRateReport
    baseline_report: KeyRateReport

    @property
    def improved(self) -> bool:
        return self.report.skb_per_pulse > self.baseline_report.skb_per_pulse


def _previous_reference_delays(
    stream: TagStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Delay of each detector tag from the previous reference tick.

    Returns the delays and the boolean mask of tags that have a previous
    tick at all (tags jittered before the first tick carry no sync).
    """
    if stream.n_pulses < 1:
        raise ParameterError("stream", "stream carries no reference tags")
    period = stream.period_ps
    t = stream.time_ps
    index = np.floor(t / period).astype(np.int64)
    ref = np.rint(index * period).astype(np.int64)
    # rounding of the nominal tick can land just past the tag; step back
    behind = ref > t
    index = index - behind
    ref = np.where(behind, np.rint(index * period).astype(np.int64), ref)
    keep = index >= 0
    return (t[keep] - ref[keep]).astype(np.float64), keep


def correlate(
    stream: TagStream, bin_width_ps: float = 10.0
) -> CorrelationHistogram:
    """Histogram detector tags against the previous sync (reference) tag.

    Delays span one pulse period.
    """
    _require(
        0.0 < bin_width_ps < math.inf,
        "bin_width_ps",
        "must be positive and finite",
    )
    delays, _ = _previous_reference_delays(stream)
    n_bins = max(1, math.ceil((stream.period_ps + 1.0) / bin_width_ps))
    counts = np.zeros(n_bins, dtype=np.int64)
    if len(delays):
        bins = np.floor(delays / bin_width_ps).astype(np.int64)
        np.clip(bins, 0, n_bins - 1, out=bins)
        np.add.at(counts, bins, 1)
    return CorrelationHistogram(
        bin_width_ps=bin_width_ps, counts=counts, origin_ps=0.0
    )


def fit_lifetime(
    histogram: CorrelationHistogram,
    min_delay_ps: float = 200.0,
    max_delay_ps: float | None = None,
) -> float:
    """Exponential decay constant of a sync-correlation histogram, in ps.

    Weighted least squares on the log counts, restricted to delays past
    the jitter-smeared prompt edge and before the wrap-around tail.
    Bins below 30 counts are dropped — sparse tail bins otherwise
    drag the slope — and a second pass re-selects and re-weights bins by
    the first pass's predicted counts, which removes the selection and
    weight-correlation biases that observed counts would introduce.
    """
    if max_delay_ps is None:
        max_delay_ps = 0.8 * histogram.span_ps
    centers = histogram.bin_centers()
    counts = histogram.counts.astype(np.float64)
    in_range = (centers >= min_delay_ps) & (centers <= max_delay_ps)

    def weighted_fit(
        usable: np.ndarray, weights: np.ndarray
    ) -> tuple[float, float]:
        x = centers[usable]
        y = counts[usable]
        # E[log y] for a Poisson count undershoots log(mean) by ~1/(2y)
        z = np.log(y) + 0.5 / y
        return tuple(np.polyfit(x, z, 1, w=np.sqrt(weights)))

    usable = in_range & (counts >= 30.0)
    if usable.sum() < 3:
        raise InsufficientStatisticsError(
            "need at least 3 populated bins inside the fit range"
        )
    slope, intercept = weighted_fit(usable, counts[usable])
    if slope < 0.0:
        predicted = np.exp(intercept + slope * centers)
        refined = in_range & (predicted >= 30.0) & (counts > 0)
        if refined.sum() >= 3:
            slope, _ = weighted_fit(refined, predicted[refined])
    if slope >= 0.0:
        raise InsufficientStatisticsError(
            "histogram does not decay over the fit range"
        )
    return -1.0 / slope


def g2_zero(
    histogram: CorrelationHistogram,
    period_ps: float,
    lifetime_ps: float | None = None,
) -> G2Estimate:
    """Central-peak to side-peak coincidence ratio of a pair histogram.

    Peak windows are period-wide intervals centred on integer multiples
    of the pulse period; only fully covered windows count.  The nearest
    side peak on each side is skipped: it borders the central peak, so
    its window total differs slightly from the outer (uniform) side
    peaks.  Counts are compared per bin (density), so a flat histogram
    gives exactly 1, and the side peaks must hold at least 100 counts.

    Exponential emission tails longer than half a period spill pair
    delays into neighbouring peak windows, inflating the raw ratio — the
    dominant systematic at high clock rates.  Every peak shares the same
    two-sided exponential shape (the difference of two emission delays),
    so supplying ``lifetime_ps`` (the configured emission lifetime or a
    ``fit_lifetime`` result) unfolds the spill exactly:  with
    q = exp(−period/4τ), a fraction L0 = 1 − q² of each peak stays in
    its own window and L1 = (q² − q⁶)/2 leaks to each neighbour, and the
    raw ratio r maps back through g² = (r·(L0 + 2·L1) - 2·L1) / L0.
    The unfolding keeps nearest-neighbour leakage only, which is exact
    to ~1e-4 when the period spans several lifetimes; below roughly three
    lifetimes per period, next-nearest spill leaves a residual bias.
    Streams simulated here contain no blinking, so the recovered value
    needs no intermittency correction.  Without ``lifetime_ps`` the raw
    ratio is returned.
    """
    _require(period_ps > 0.0, "period_ps", "must be positive")
    if lifetime_ps is not None:
        _require(lifetime_ps > 0.0, "lifetime_ps", "must be positive")
    centers = histogram.bin_centers()
    lo, hi = centers[0], centers[-1]
    peak_lo = math.ceil((histogram.origin_ps + 0.5 * period_ps) / period_ps)
    peak_hi = math.floor(
        (histogram.origin_ps + histogram.span_ps - 0.5 * period_ps)
        / period_ps
    )
    center_bins = 0
    center_counts = 0
    side_bins = 0
    side_counts = 0
    n_side = 0
    for peak in range(peak_lo, peak_hi + 1):
        if abs(peak) == 1:
            continue
        window = (centers >= (peak - 0.5) * period_ps) & (
            centers < (peak + 0.5) * period_ps
        )
        bins = int(window.sum())
        total = int(histogram.counts[window].sum())
        if peak == 0:
            center_bins, center_counts = bins, total
        else:
            side_bins += bins
            side_counts += total
            n_side += 1
    if center_bins == 0:
        raise ParameterError(
            "histogram", "histogram does not cover the zero-delay peak"
        )
    if n_side < 3:
        raise InsufficientStatisticsError(
            "need at least 3 fully covered side peaks"
        )
    if side_counts < 100:
        raise InsufficientStatisticsError(
            f"side peaks hold {side_counts} counts; need >= 100"
        )
    center_density = center_counts / center_bins
    side_density = side_counts / side_bins
    value = center_density / side_density
    sigma = (
        math.sqrt(max(center_counts, 1)) / center_bins / side_density
        * math.sqrt(1.0 + max(center_counts, 1) / side_counts)
    )
    if lifetime_ps is not None:
        q2 = math.exp(-period_ps / (2.0 * lifetime_ps))
        stay = 1.0 - q2
        leak = 0.5 * (q2 - q2**3)
        value = (value * (stay + 2.0 * leak) - 2.0 * leak) / stay
        sigma = sigma * (stay + 2.0 * leak) / stay
    return G2Estimate(
        value=value,
        sigma=sigma,
        center_counts=center_counts,
        side_counts=side_counts,
        n_side_peaks=n_side,
    )


def truth_table(
    streams: Mapping[int, TagStream],
    window: tuple[float, float] | None = None,
) -> TruthTable:
    """Accumulate decoded-port counts for four statically encoded runs.

    ``streams`` maps the encoded state (0-3) to the detection stream of a
    run that statically prepared it.  ``window`` optionally restricts
    accumulation to sync delays in [start, start + width) ps.
    """
    counts = np.zeros((4, 4), dtype=np.float64)
    for state in range(4):
        if state not in streams:
            raise ParameterError(
                "streams", f"missing stream for encoded state {state}"
            )
        stream = streams[state]
        channels = stream.channel
        if window is not None:
            delays, synced = _previous_reference_delays(stream)
            start, width = window
            keep = (delays >= start) & (delays < start + width)
            channels = channels[synced][keep]
        for port in range(4):
            counts[state, port] = int((channels == port).sum())
    return TruthTable(counts=counts, normalized=False)


def fidelity(table: TruthTable) -> float:
    """Agreement of a truth table with the ideal BB84 projection.

    Per encoded state the matched-basis correct weight is scored, with a
    quadratic penalty for crossed-basis imbalance away from the ideal
    50:50 split; the result is 1 exactly when the normalized table equals
    the ideal table, and 0.5 for uniformly random detection.
    """
    normalized = table.normalized_table().counts
    score = 0.0
    for state in range(4):
        basis = state >> 1
        correct = normalized[state, state]
        crossed = normalized[state, [2 * (1 - basis), 2 * (1 - basis) + 1]]
        penalty = float(((crossed - 0.5) ** 2).sum())
        score += correct * max(0.0, 1.0 - 2.0 * penalty)
    return min(1.0, max(0.0, score / 4.0))


def qber_from_table(table: TruthTable) -> BasisQber:
    """Wrong-port fraction within matched-basis entries, per basis."""
    counts = table.counts
    per_basis = []
    for basis in range(2):
        rows = (2 * basis, 2 * basis + 1)
        matched = sum(counts[r, 2 * basis + c] for r in rows for c in (0, 1))
        if matched <= 0.0:
            raise ParameterError(
                "counts", "table has no matched-basis coincidences"
            )
        wrong = counts[rows[0], 2 * basis + 1] + counts[rows[1], 2 * basis]
        per_basis.append((wrong, matched))
    z = per_basis[0][0] / per_basis[0][1]
    x = per_basis[1][0] / per_basis[1][1]
    combined = (per_basis[0][0] + per_basis[1][0]) / (
        per_basis[0][1] + per_basis[1][1]
    )
    return BasisQber(z=z, x=x, combined=combined)


def _dark_floor_per_bin(counts: np.ndarray) -> float:
    """Flat background level, estimated from the emptiest decile of bins."""
    quiet = np.sort(counts.astype(np.float64))
    take = max(1, len(quiet) // 10)
    return float(quiet[:take].mean())


def optimize_temporal_window(
    point: OperatingPoint,
    response: CorrelationHistogram,
    objective: Literal["asymptotic", "finite"] = "asymptotic",
    block_size: float | None = None,
    g2_histogram: CorrelationHistogram | None = None,
) -> TemporalWindowResult:
    """Choose the acceptance window that maximizes the key fraction.

    The sync-correlation ``response`` histogram supplies the measured
    emission profile: a candidate window [start, start+width) keeps the
    in-window signal fraction (above the estimated flat dark floor) and a
    dark fraction proportional to its width.  Both enter the analytic
    rate chain as extra receiver transmission and a rescaled dark-count
    probability — multiphoton emission is untouched, which is exactly why
    narrowing the window can win.  The full window is always a candidate,
    so the result is never worse than no filtering.  Window edges step
    by 1/80 of the histogram span (at least one bin).

    If a coincidence ``g2_histogram`` is supplied, its measured g²(0)
    replaces the configured source value before the search.
    """
    _require(
        objective in ("asymptotic", "finite"),
        "objective",
        "must be asymptotic or finite",
    )
    if g2_histogram is not None:
        estimate = g2_zero(
            g2_histogram,
            period_ps=1e12 / point.protocol.clock_rate,
            lifetime_ps=point.source.lifetime,
        )
        point = point.with_source(
            replace(point.source, g2_zero=min(1.0, max(0.0, estimate.value)))
        )
    baseline = skb_per_pulse(point, regime=objective, block_size=block_size)

    counts = response.counts.astype(np.float64)
    n_bins = response.n_bins
    floor = _dark_floor_per_bin(counts)
    signal_total = float(max(counts.sum() - floor * n_bins, 1e-12))
    prefix = np.concatenate([[0.0], np.cumsum(counts)])

    stride = max(1, n_bins // 80)

    def evaluate(start: int, width: int) -> tuple[KeyRateReport,
                                                  OperatingPoint, float]:
        in_window = prefix[start + width] - prefix[start]
        acceptance = min(
            1.0, max(in_window - floor * width, 0.0) / signal_total
        )
        width_fraction = width / n_bins
        link = point.link
        filtered = replace(
            point,
            link=replace(
                link,
                receiver_efficiency=link.receiver_efficiency
                * max(acceptance, 1e-12),
                dark_count_prob=link.dark_count_prob * width_fraction,
            ),
        )
        report = skb_per_pulse(
            filtered, regime=objective, block_size=block_size
        )
        return report, filtered, acceptance

    best_report, best_point, best_acceptance = evaluate(0, n_bins)
    best_window = (0, n_bins)
    for start in range(0, n_bins, stride):
        for stop in range(start + stride, n_bins + 1, stride):
            if start == 0 and stop == n_bins:
                continue
            report, filtered, acceptance = evaluate(start, stop - start)
            if report.skb_per_pulse > best_report.skb_per_pulse:
                best_report = report
                best_point = filtered
                best_acceptance = acceptance
                best_window = (start, stop - start)
    return TemporalWindowResult(
        start_ps=response.origin_ps
        + best_window[0] * response.bin_width_ps,
        width_ps=best_window[1] * response.bin_width_ps,
        acceptance=best_acceptance,
        filtered_point=best_point,
        report=best_report,
        baseline_report=baseline,
    )


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

_HISTOGRAM_COLUMNS = ("delay_ps", "counts")


def write_histogram_csv(
    histogram: CorrelationHistogram, path: str | Path
) -> None:
    centers = [f"{center:.3f}" for center in histogram.bin_centers()]
    counts = histogram.counts.tolist()
    write_table(path, _HISTOGRAM_COLUMNS, zip(centers, counts))


def read_histogram_csv(path: str | Path) -> CorrelationHistogram:
    centers, counts = read_table(
        path, "histogram", _HISTOGRAM_COLUMNS, (float, np.int64)
    )
    if len(centers) < 2:
        raise ParameterError(
            "histogram", "histogram CSV needs at least two bins"
        )
    spacing = np.diff(centers)
    # the writer rounds each centre to 0.001 ps, so the spacings of one
    # histogram spread over up to 0.002 ps, plus float parsing slack
    if not (spacing.min() > 0.0 and np.ptp(spacing) <= 2.5e-3):
        raise ParameterError(
            "histogram",
            "bin centres must be strictly increasing and evenly spaced",
        )
    width = centers[1] - centers[0]
    return CorrelationHistogram(
        bin_width_ps=width,
        counts=np.array(counts, dtype=np.int64),
        origin_ps=centers[0] - 0.5 * width,
    )


def write_truth_table_csv(table: TruthTable, path: str | Path) -> None:
    names = ("H", "V", "D", "A")
    rows = (
        [name, *(f"{v:.9g}" for v in counts)]
        for name, counts in zip(names, table.counts)
    )
    write_table(path, ["encoded", *names], rows)
