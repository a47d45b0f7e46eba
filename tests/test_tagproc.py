"""Tests for tag-stream analysis: histograms, g2, lifetime, truth tables."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sps_bb84.keyrate import qber_total
from sps_bb84.montecarlo import (
    Scenario,
    simulate_g2_histogram,
    simulate_run,
)
from sps_bb84.params import OperatingPoint, ParameterError
from sps_bb84.tagproc import (
    CorrelationHistogram,
    InsufficientStatisticsError,
    TruthTable,
    correlate,
    fidelity,
    fit_lifetime,
    g2_zero,
    optimize_temporal_window,
    read_histogram_csv,
    truth_table,
    write_histogram_csv,
)

PERIOD_PS = 1e12 / 228e6
LIFETIME_PS = 592.5


def lossless_point() -> OperatingPoint:
    return OperatingPoint().with_loss(0.0)


def make_stream(times, channels, n_pulses=10, period_ps=PERIOD_PS):
    from sps_bb84.montecarlo import TagStream

    n = len(times)
    return TagStream(
        time_ps=np.asarray(times, dtype=np.int64),
        channel=np.asarray(channels, dtype=np.uint8),
        truth_state=np.zeros(n, dtype=np.uint8),
        truth_photons=np.ones(n, dtype=np.uint8),
        dark=np.zeros(n, dtype=bool),
        n_pulses=n_pulses,
        period_ps=period_ps,
    )


# ---------------------------------------------------------------------------
# expensive simulated inputs, shared across tests
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pair_histogram_default():
    """Coincidence histogram for the default source, 3e6 lossless pulses."""
    sc = Scenario(operating_point=lossless_point(), n_pulses=3_000_000,
                  seed=101)
    return simulate_g2_histogram(sc)


@pytest.fixture(scope="module")
def pair_histogram_high_g2():
    """Coincidence histogram for a g2 = 0.056 source."""
    point = lossless_point()
    point = point.with_source(replace(point.source, g2_zero=0.056))
    sc = Scenario(operating_point=point, n_pulses=3_000_000, seed=102)
    return simulate_g2_histogram(sc)


@pytest.fixture(scope="module")
def truth_streams():
    """Four statically encoded lossless runs with the dead-time gate off."""
    base = lossless_point()
    point = replace(base, link=replace(base.link, dead_time=0.0))
    streams = {
        state: simulate_run(
            Scenario(operating_point=point, n_pulses=1_000_000,
                     seed=320 + state, encoded_state=state)
        )[1]
        for state in range(4)
    }
    return point, streams


@pytest.fixture(scope="module")
def response_10db():
    """Sync-correlation histogram of a 10 dB run (emission profile)."""
    sc = Scenario(operating_point=OperatingPoint().with_loss(10.0),
                  n_pulses=2_000_000, seed=500)
    return correlate(simulate_run(sc)[1])


@pytest.fixture(scope="module")
def dark_dominated():
    """Operating point and response where dark counts drive the QBER."""
    base = OperatingPoint().with_loss(15.0)
    point = replace(base, link=replace(base.link, dark_count_prob=1e-4))
    sc = Scenario(operating_point=point, n_pulses=2_000_000, seed=501)
    return point, correlate(simulate_run(sc)[1])


# ---------------------------------------------------------------------------
# histogram container
# ---------------------------------------------------------------------------

def test_histogram_rejects_empty_counts():
    with pytest.raises(ParameterError):
        CorrelationHistogram(bin_width_ps=10.0,
                             counts=np.zeros(0, dtype=np.int64),
                             origin_ps=0.0)


def test_histogram_rejects_negative_counts():
    with pytest.raises(ParameterError):
        CorrelationHistogram(bin_width_ps=10.0,
                             counts=np.array([3, -1]), origin_ps=0.0)


def test_histogram_geometry():
    h = CorrelationHistogram(bin_width_ps=10.0,
                             counts=np.array([1, 2, 3]), origin_ps=-5.0)
    assert h.n_bins == 3
    assert h.span_ps == pytest.approx(30.0)
    assert list(h.bin_centers()) == [0.0, 10.0, 20.0]
    assert h.total() == 6


# ---------------------------------------------------------------------------
# correlation against the sync channel
# ---------------------------------------------------------------------------

def test_correlate_single_tag_lands_in_delay_bin():
    stream = make_stream([1234], [0])
    h = correlate(stream)
    assert h.n_bins == math.ceil((PERIOD_PS + 1.0) / 10.0)
    assert h.counts[123] == 1
    assert h.total() == 1


def test_correlate_counts_every_nonnegative_tag():
    sc = Scenario(operating_point=OperatingPoint().with_loss(10.0),
                  n_pulses=100_000, seed=17)
    _, stream = simulate_run(sc)
    h = correlate(stream)
    assert h.total() == int((stream.time_ps >= 0).sum())


def test_correlate_rejects_bad_arguments():
    stream = make_stream([100], [0])
    for width in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="bin_width_ps"):
            correlate(stream, bin_width_ps=width)
    with pytest.raises(ParameterError, match="bin_width_ps"):
        CorrelationHistogram(
            bin_width_ps=math.inf, counts=np.zeros(1), origin_ps=0.0
        )


def test_correlate_requires_pulses():
    stream = make_stream([100], [0], n_pulses=0)
    with pytest.raises(ParameterError, match="stream"):
        correlate(stream)


# ---------------------------------------------------------------------------
# emission lifetime fit
# ---------------------------------------------------------------------------

def test_lifetime_fit_on_exact_exponential():
    rng = np.random.default_rng(7)
    draws = rng.exponential(LIFETIME_PS, 500_000)
    counts, _ = np.histogram(draws, bins=np.arange(0.0, 4381.0, 10.0))
    h = CorrelationHistogram(bin_width_ps=10.0,
                             counts=counts.astype(np.int64), origin_ps=0.0)
    tau = fit_lifetime(h)
    assert abs(tau / LIFETIME_PS - 1.0) < 0.02


def test_lifetime_fit_on_simulated_stream():
    sc = Scenario(operating_point=lossless_point(), n_pulses=2_000_000,
                  seed=104)
    _, stream = simulate_run(sc)
    tau = fit_lifetime(correlate(stream))
    assert abs(tau / LIFETIME_PS - 1.0) < 0.05


def test_lifetime_fit_needs_three_bins():
    h = CorrelationHistogram(
        bin_width_ps=10.0,
        counts=np.array([100, 90, 0, 0, 0], dtype=np.int64),
        origin_ps=0.0,
    )
    with pytest.raises(InsufficientStatisticsError):
        fit_lifetime(h, min_delay_ps=0.0)


def test_lifetime_fit_rejects_rising_histogram():
    h = CorrelationHistogram(
        bin_width_ps=10.0,
        counts=np.array([50, 100, 200, 400, 800, 1600], dtype=np.int64),
        origin_ps=0.0,
    )
    with pytest.raises(InsufficientStatisticsError, match="decay"):
        fit_lifetime(h, min_delay_ps=0.0, max_delay_ps=60.0)


# ---------------------------------------------------------------------------
# g2(0) estimation
# ---------------------------------------------------------------------------

def flat_histogram(level=50):
    counts = np.full(4820, level, dtype=np.int64)
    return CorrelationHistogram(bin_width_ps=10.0, counts=counts,
                                origin_ps=-24100.0)


def test_g2_of_flat_histogram_is_exactly_one():
    est = g2_zero(flat_histogram(), period_ps=PERIOD_PS)
    assert est.value == 1.0
    assert est.n_side_peaks == 6  # +-2, 3, 4; the nearest pair is skipped


def test_g2_of_empty_central_window_is_zero():
    h = flat_histogram()
    centers = h.bin_centers()
    counts = h.counts.copy()
    counts[np.abs(centers) < 0.5 * PERIOD_PS] = 0
    h2 = CorrelationHistogram(bin_width_ps=10.0, counts=counts,
                              origin_ps=-24100.0)
    est = g2_zero(h2, period_ps=PERIOD_PS)
    assert est.value == 0.0
    assert est.center_counts == 0


def test_g2_requires_central_coverage():
    counts = np.full(4820, 50, dtype=np.int64)
    h = CorrelationHistogram(bin_width_ps=10.0, counts=counts, origin_ps=0.0)
    with pytest.raises(ParameterError, match="zero-delay"):
        g2_zero(h, period_ps=PERIOD_PS)


def test_g2_requires_three_side_peaks():
    counts = np.full(1000, 50, dtype=np.int64)
    h = CorrelationHistogram(bin_width_ps=10.0, counts=counts,
                             origin_ps=-5000.0)
    with pytest.raises(InsufficientStatisticsError, match="side peaks"):
        g2_zero(h, period_ps=PERIOD_PS)


def test_g2_requires_side_counts():
    h = flat_histogram()
    centers = h.bin_centers()
    counts = np.zeros_like(h.counts)
    central = np.abs(centers) < 0.5 * PERIOD_PS
    counts[central] = 50
    h2 = CorrelationHistogram(bin_width_ps=10.0, counts=counts,
                              origin_ps=-24100.0)
    with pytest.raises(InsufficientStatisticsError, match="counts"):
        g2_zero(h2, period_ps=PERIOD_PS)


def test_g2_recovers_default_source(pair_histogram_default):
    est = g2_zero(pair_histogram_default, period_ps=PERIOD_PS,
                  lifetime_ps=LIFETIME_PS)
    assert abs(est.value - 0.0243) < 3.0 * est.sigma
    raw = g2_zero(pair_histogram_default, period_ps=PERIOD_PS)
    assert raw.value > est.value  # tail spill inflates the raw ratio
    assert est.sigma > raw.sigma  # unfolding magnifies the uncertainty


def test_g2_recovers_higher_g2_source(pair_histogram_high_g2):
    est = g2_zero(pair_histogram_high_g2, period_ps=PERIOD_PS,
                  lifetime_ps=LIFETIME_PS)
    assert abs(est.value - 0.056) < 3.0 * est.sigma
    raw = g2_zero(pair_histogram_high_g2, period_ps=PERIOD_PS)
    assert raw.value > est.value


def test_g2_estimator_is_unbiased_over_seeds():
    values, sigmas = [], []
    for seed in range(200, 220):
        sc = Scenario(operating_point=lossless_point(), n_pulses=1_000_000,
                      seed=seed)
        est = g2_zero(simulate_g2_histogram(sc), period_ps=PERIOD_PS,
                      lifetime_ps=LIFETIME_PS)
        values.append(est.value)
        sigmas.append(est.sigma)
    mean = float(np.mean(values))
    sigma_of_mean = float(np.mean(sigmas)) / math.sqrt(len(values))
    assert abs(mean - 0.0243) <= sigma_of_mean


def test_raw_g2_inflates_with_clock_rate():
    """Short periods leave pair tails overlapping: the raw ratio grows."""
    raws = {}
    for rate, seed in ((1063e6, 111), (228e6, 112)):
        sc = Scenario(
            operating_point=lossless_point().with_clock_rate(rate),
            n_pulses=2_000_000,
            seed=seed,
        )
        raws[rate] = g2_zero(simulate_g2_histogram(sc),
                             period_ps=1e12 / rate)
    fast, slow = raws[1063e6], raws[228e6]
    assert fast.value > slow.value + 3.0 * (fast.sigma + slow.sigma)
    assert fast.value > 0.25  # gross overlap at a 1.6-lifetime period
    assert slow.value < 0.10


def test_g2_argument_validation(pair_histogram_default):
    with pytest.raises(ParameterError):
        g2_zero(pair_histogram_default, period_ps=0.0)
    with pytest.raises(ParameterError):
        g2_zero(pair_histogram_default, period_ps=PERIOD_PS,
                lifetime_ps=0.0)


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------

IDEAL_COUNTS = np.array(
    [
        [1000, 0, 500, 500],
        [0, 1000, 500, 500],
        [500, 500, 1000, 0],
        [500, 500, 0, 1000],
    ],
    dtype=np.float64,
)


def test_table_must_be_4x4_and_nonnegative():
    with pytest.raises(ParameterError):
        TruthTable(counts=np.zeros((3, 4)))
    bad = IDEAL_COUNTS.copy()
    bad[0, 1] = -1.0
    with pytest.raises(ParameterError):
        TruthTable(counts=bad)


def test_normalization_scales_rows_by_matched_basis():
    table = TruthTable(counts=IDEAL_COUNTS).normalized_table()
    assert table.normalized
    for state in range(4):
        basis = state >> 1
        matched = table.counts[state, 2 * basis] + \
            table.counts[state, 2 * basis + 1]
        assert matched == pytest.approx(1.0)
    assert table.counts[0, 0] == pytest.approx(1.0)
    assert table.counts[0, 2] == pytest.approx(0.5)


def test_normalization_needs_matched_coincidences():
    with pytest.raises(ParameterError, match="encoded state 0"):
        TruthTable(counts=np.zeros((4, 4))).normalized_table()


def test_fidelity_of_ideal_table_is_one():
    assert fidelity(TruthTable(counts=IDEAL_COUNTS)) == 1.0


def test_fidelity_of_uniform_table_is_half():
    uniform = TruthTable(counts=np.full((4, 4), 250.0))
    assert fidelity(uniform) == pytest.approx(0.5)


def test_fidelity_penalizes_crossed_imbalance():
    skewed = IDEAL_COUNTS.copy()
    skewed[0] = [1000, 0, 900, 100]  # fully correct but biased splitter
    assert fidelity(TruthTable(counts=skewed)) < 1.0


def test_truth_table_requires_all_states(truth_streams):
    _, streams = truth_streams
    with pytest.raises(ParameterError, match="encoded state 1"):
        truth_table({0: streams[0]})


def test_simulated_table_matches_analytic_qber(truth_streams):
    point, streams = truth_streams
    table = truth_table(streams)
    expected = qber_total(point)
    matched = sum(
        table.counts[s, 2 * (s >> 1)] + table.counts[s, 2 * (s >> 1) + 1]
        for s in range(4)
    )
    # within its basis, state s lands on the wrong port s ^ 1
    wrong = sum(table.counts[s, s ^ 1] for s in range(4))
    sigma = math.sqrt(expected * (1.0 - expected) / matched)
    assert abs(wrong / matched - expected) < 3.0 * sigma


def test_simulated_table_fidelity_is_high(truth_streams):
    _, streams = truth_streams
    assert fidelity(truth_table(streams)) >= 0.99


def test_full_window_equals_no_window(truth_streams):
    _, streams = truth_streams
    unwindowed = truth_table(streams)
    windowed = truth_table(streams, window=(0.0, PERIOD_PS + 10.0))
    assert np.array_equal(unwindowed.counts, windowed.counts)


def test_narrow_window_keeps_early_fraction(truth_streams):
    _, streams = truth_streams
    full = truth_table(streams)
    narrow = truth_table(streams, window=(0.0, 600.0))
    ratio = narrow.counts.sum() / full.counts.sum()
    # one lifetime of a 592.5 ps decay holds ~63% of the emission
    assert 0.55 < ratio < 0.68


# ---------------------------------------------------------------------------
# temporal acceptance window optimization
# ---------------------------------------------------------------------------

def test_full_window_is_kept_when_darks_are_negligible(response_10db):
    result = optimize_temporal_window(OperatingPoint(), response_10db)
    assert not result.improved
    assert result.report.skb_per_pulse == \
        result.baseline_report.skb_per_pulse
    assert result.start_ps == 0.0
    assert result.width_ps == pytest.approx(response_10db.span_ps)
    assert result.acceptance == pytest.approx(1.0)


def test_windowing_beats_baseline_when_darks_dominate(dark_dominated):
    point, response = dark_dominated
    result = optimize_temporal_window(point, response)
    assert result.improved
    assert result.report.skb_per_pulse > \
        1.05 * result.baseline_report.skb_per_pulse
    assert result.width_ps < response.span_ps
    assert 0.7 < result.acceptance <= 1.0
    assert result.filtered_point.link.dark_count_prob < \
        point.link.dark_count_prob


def test_window_search_never_returns_worse(dark_dominated):
    point, response = dark_dominated
    result = optimize_temporal_window(point, response)
    assert result.report.skb_per_pulse >= \
        result.baseline_report.skb_per_pulse
    assert result.report.regime == "asymptotic"


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_histogram_csv_round_trip(tmp_path, response_10db):
    path = tmp_path / "response.csv"
    write_histogram_csv(response_10db, path)
    back = read_histogram_csv(path)
    assert np.array_equal(back.counts, response_10db.counts)
    assert back.bin_width_ps == pytest.approx(response_10db.bin_width_ps)
    assert back.origin_ps == pytest.approx(response_10db.origin_ps)


def test_histogram_csv_header_is_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("delay,counts\n5.0,1\n15.0,2\n")
    with pytest.raises(ParameterError, match="header"):
        read_histogram_csv(path)


def test_histogram_csv_needs_two_bins(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("delay_ps,counts\n5.000,1\n")
    with pytest.raises(ParameterError, match="two bins"):
        read_histogram_csv(path)


@pytest.mark.parametrize(
    "centers", ["5,15,100", "15,5,-5", "5,5,5", "5,15,25.003"]
)
def test_histogram_csv_rejects_uneven_centres(tmp_path, centers):
    path = tmp_path / "uneven.csv"
    path.write_text(
        "delay_ps,counts\n"
        + "".join(f"{center},1\n" for center in centers.split(","))
    )
    with pytest.raises(ParameterError, match="evenly spaced"):
        read_histogram_csv(path)


def test_histogram_csv_tolerates_centre_rounding(tmp_path):
    # a width of 10/3 ps makes every centre round at the writer's 0.001 ps
    histogram = CorrelationHistogram(
        bin_width_ps=10.0 / 3.0,
        counts=np.arange(500, dtype=np.int64),
        origin_ps=-1234.5678,
    )
    path = tmp_path / "thirds.csv"
    write_histogram_csv(histogram, path)
    back = read_histogram_csv(path)
    assert np.array_equal(back.counts, histogram.counts)
    assert back.bin_width_ps == pytest.approx(10.0 / 3.0, abs=1e-3)
