"""Analytic click model, secure-fraction evaluation, loss search, sweeps."""

import csv
import math
from dataclasses import replace

import pytest

from sps_bb84 import keyrate
from sps_bb84.finitekey import chernoff_upper
from sps_bb84.keyrate import (
    NoPositiveKeyError,
    click_probability,
    click_terms,
    emission_capture_fraction,
    expected_blocked_windows,
    finite_block_input,
    max_tolerable_loss,
    multiphoton_bound,
    qber_total,
    read_dataset_csv,
    skb_per_pulse,
    sweep,
    write_sweep_csv,
)
from sps_bb84.params import (
    LinkModel,
    OperatingPoint,
    ParameterError,
    SourceModel,
    binary_entropy,
)

TABLE_POINT = OperatingPoint()


def lossless_point() -> OperatingPoint:
    return TABLE_POINT.with_loss(0.0)


def clean_point(loss_db: float = 0.0) -> OperatingPoint:
    """No dark counts, no misalignment, no dead time, ideal optics."""
    return OperatingPoint(
        source=SourceModel(g2_zero=0.0),
        link=LinkModel(
            transmitter_efficiency=1.0,
            receiver_efficiency=1.0,
            detector_efficiency=1.0,
            dark_count_prob=0.0,
            dead_time=0.0,
            misalignment_prob=0.0,
            channel_loss_db=loss_db,
        ),
    )


# ---------------------------------------------------------------------------
# multiphoton emission bound
# ---------------------------------------------------------------------------

def test_multiphoton_bound_after_transmitter():
    value = multiphoton_bound(TABLE_POINT)
    assert value == pytest.approx(4.98161788416e-5, rel=1e-12)


def test_multiphoton_bound_scales_with_square_of_attenuation():
    half = TABLE_POINT.with_source(
        replace(TABLE_POINT.source, pre_attenuation=0.5)
    )
    full = multiphoton_bound(TABLE_POINT)
    assert multiphoton_bound(half) == pytest.approx(0.25 * full, rel=1e-12)


# ---------------------------------------------------------------------------
# pulsed-emission capture and dead-time geometry
# ---------------------------------------------------------------------------

def test_emission_capture_fraction_at_table_clock():
    period_ps = 1e12 / 228e6
    assert emission_capture_fraction(592.5, period_ps) == pytest.approx(
        0.9993902566492399, rel=1e-12
    )


def test_emission_capture_fraction_saturates():
    assert emission_capture_fraction(592.5, 1e9) == pytest.approx(1.0)
    fast = emission_capture_fraction(592.5, 592.5)
    assert fast == pytest.approx(1 - math.exp(-1), rel=1e-9)


def test_expected_blocked_windows_frozen_value():
    period_ps = 1e12 / 228e6
    assert expected_blocked_windows(592.5, period_ps, 35.865) == pytest.approx(
        7.866392052572187, rel=1e-9
    )


def test_expected_blocked_windows_zero_deadtime():
    assert expected_blocked_windows(592.5, 1e12 / 228e6, 0.0) < 1.0


def test_negative_dead_time_raises_on_every_call():
    period_ps = 1e12 / 228e6
    expected_blocked_windows(592.5, period_ps, 35.865)
    for _ in range(3):
        with pytest.raises(ParameterError, match="dead_time_ns"):
            expected_blocked_windows(592.5, period_ps, -1.0)


def test_loss_sweep_sums_the_blocked_windows_once():
    # the sum depends on lifetime, pulse period and dead time only, none
    # of which a loss sweep moves
    keyrate._blocked_windows.cache_clear()
    values = [30.0 * k / 600 for k in range(601)]
    rows = sweep(
        TABLE_POINT, axis="loss", values=values, regime="finite",
        block_size=1e8,
    )
    assert len(rows) == 601
    info = keyrate._blocked_windows.cache_info()
    assert info.misses == 1
    assert info.hits == 600


# ---------------------------------------------------------------------------
# click model
# ---------------------------------------------------------------------------

def test_click_probability_frozen_table_value():
    assert click_probability(TABLE_POINT) == pytest.approx(
        0.00013460961463059173, rel=1e-12
    )


def test_click_probability_lossless_frozen_value():
    assert click_probability(lossless_point()) == pytest.approx(
        0.04329834296629172, rel=1e-12
    )


def test_click_terms_composition():
    terms = click_terms(TABLE_POINT)
    raw = 1 - (1 - terms.signal) * (1 - terms.dark_total)
    assert terms.raw == pytest.approx(raw, rel=1e-12)
    assert terms.corrected == pytest.approx(
        terms.raw * terms.dead_time_factor, rel=1e-12
    )
    assert 0 < terms.dead_time_factor < 1


def test_click_probability_literal_component_accounting():
    # independent detector stage and per-detector darks, no dead time:
    # the coarse low-loss reference point is 3.51e-2
    point = OperatingPoint(
        link=LinkModel(
            channel_loss_db=0.0,
            dead_time=0.0,
            receiver_includes_detector=False,
            dark_count_is_total=False,
        )
    )
    assert click_probability(point) == pytest.approx(3.503090e-2, rel=1e-4)
    assert click_probability(point) == pytest.approx(3.51e-2, rel=5e-3)


def test_click_probability_monotone_in_loss():
    probs = [
        click_probability(TABLE_POINT.with_loss(db))
        for db in (0.0, 5.0, 10.0, 20.0, 30.0, 40.0)
    ]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_dark_floor_at_extreme_loss():
    terms = click_terms(TABLE_POINT.with_loss(200.0))
    assert terms.signal == pytest.approx(0.0, abs=1e-15)
    assert terms.raw == pytest.approx(terms.dark_total, rel=1e-9)


# ---------------------------------------------------------------------------
# quantum bit error rate
# ---------------------------------------------------------------------------

def test_qber_frozen_table_value():
    assert qber_total(TABLE_POINT) == pytest.approx(
        0.0035004633003899157, rel=1e-12
    )


def test_qber_reduces_to_misalignment_without_darks():
    link = LinkModel(dark_count_prob=0.0)
    point = OperatingPoint(link=link)
    assert qber_total(point) == pytest.approx(
        link.misalignment_prob, rel=1e-12
    )


def test_qber_approaches_half_at_extreme_loss():
    assert qber_total(TABLE_POINT.with_loss(250.0)) == pytest.approx(
        0.5, abs=1e-4
    )


def test_qber_monotone_in_loss():
    values = [
        qber_total(TABLE_POINT.with_loss(db))
        for db in (0.0, 10.0, 20.0, 30.0, 40.0)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# asymptotic secure fraction
# ---------------------------------------------------------------------------

def test_asymptotic_skb_frozen_table_value():
    report = skb_per_pulse(TABLE_POINT)
    assert report.positive
    assert report.skb_per_pulse == pytest.approx(
        3.766960623385881e-5, rel=1e-12
    )
    assert report.p_m == pytest.approx(4.98161788416e-5, rel=1e-12)
    assert report.e1_upper == pytest.approx(0.005556986947274857, rel=1e-12)
    assert report.skr == pytest.approx(report.skb_per_pulse * 228e6, rel=1e-12)


def test_asymptotic_skb_noiseless_limit_is_sifted_click_rate():
    point = clean_point()
    report = skb_per_pulse(point)
    expected = 0.5 * click_probability(point)
    assert report.skb_per_pulse == pytest.approx(expected, rel=1e-12)


def test_asymptotic_single_photon_error_inflation():
    report = skb_per_pulse(TABLE_POINT)
    assert report.e1_upper > report.e_tot
    assert report.e1_upper == pytest.approx(
        report.e_tot * report.p_c / report.p_c1_lower, rel=1e-12
    )


def test_asymptotic_zero_key_when_multiphoton_exceeds_clicks():
    report = skb_per_pulse(TABLE_POINT.with_loss(60.0))
    assert not report.positive
    assert report.skb_per_pulse == 0.0
    assert report.e1_upper == 0.5


def test_asymptotic_zero_key_from_strong_multiphoton():
    source = SourceModel(g2_zero=0.1)
    report = skb_per_pulse(
        OperatingPoint(source=source)
    )
    assert not report.positive


def test_asymptotic_sensitivity_to_g2():
    values = [
        skb_per_pulse(
            OperatingPoint(source=SourceModel(g2_zero=g2))
        ).skb_per_pulse
        for g2 in (0.0, 0.0243, 0.05)
    ]
    assert values[0] == pytest.approx(6.242e-5, rel=1e-3)
    assert values[1] == pytest.approx(3.767e-5, rel=1e-3)
    assert values[2] == pytest.approx(1.166e-5, rel=1e-3)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_asymptotic_sensitivity_to_darks_and_misalignment():
    low_dark = OperatingPoint(link=LinkModel(dark_count_prob=1e-7))
    high_dark = OperatingPoint(link=LinkModel(dark_count_prob=5e-6))
    miserr = OperatingPoint(link=LinkModel(misalignment_prob=5e-3))
    assert skb_per_pulse(low_dark).skb_per_pulse == pytest.approx(
        4.094e-5, rel=1e-3
    )
    assert skb_per_pulse(high_dark).skb_per_pulse == pytest.approx(
        2.557e-5, rel=1e-3
    )
    assert skb_per_pulse(miserr).skb_per_pulse == pytest.approx(
        3.278e-5, rel=1e-3
    )


# ---------------------------------------------------------------------------
# finite-block construction from the analytic model
# ---------------------------------------------------------------------------

def test_finite_block_input_balanced_geometry():
    block = finite_block_input(TABLE_POINT, block_size=1e8)
    assert block.n_z == 1e8
    assert block.n_x == pytest.approx(1e8, rel=1e-12)
    p_c = click_probability(TABLE_POINT)
    assert block.n_sent == pytest.approx(1e8 / (p_c * 0.25), rel=1e-12)
    assert block.observed_error_z == pytest.approx(
        qber_total(TABLE_POINT), rel=1e-12
    )


def test_finite_block_input_biased_geometry():
    point = replace(
        TABLE_POINT, protocol=replace(TABLE_POINT.protocol, basis_bias=0.9)
    )
    block = finite_block_input(point, block_size=1e6)
    assert block.n_x / block.n_z == pytest.approx(81.0, rel=1e-12)


def test_finite_block_input_raises_without_clicks():
    dead = OperatingPoint(
        source=SourceModel(mean_photon_number=1e-12, g2_zero=0.0),
        link=LinkModel(dark_count_prob=0.0, channel_loss_db=400.0),
    )
    with pytest.raises(NoPositiveKeyError):
        finite_block_input(dead)


def test_finite_skb_frozen_table_value():
    report = skb_per_pulse(TABLE_POINT, "finite", block_size=1e8)
    assert report.finite is not None
    assert report.skb_per_pulse == pytest.approx(
        3.740546732835101e-5, rel=1e-12
    )
    assert report.finite.lambda_ec == pytest.approx(
        7794936.910461645, rel=1e-12
    )
    assert report.finite.n_nmp_lower == pytest.approx(
        125924447.48512681, rel=1e-12
    )
    assert report.finite.phase_error_upper == pytest.approx(
        0.006339721929859305, rel=1e-12
    )


def test_finite_skb_below_asymptotic_and_converging():
    asym = skb_per_pulse(TABLE_POINT).skb_per_pulse
    gaps = []
    for n_z in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10):
        fin = skb_per_pulse(
            TABLE_POINT, "finite", block_size=n_z
        ).skb_per_pulse
        gaps.append(asym - fin)
    assert all(gap > 0 for gap in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 3e-8


def test_finite_skb_zero_for_tiny_block_at_high_loss():
    report = skb_per_pulse(
        TABLE_POINT.with_loss(25.51), "finite", block_size=1e3
    )
    assert report.skb_per_pulse == 0.0
    assert not report.positive


def test_skb_dispatcher_regimes():
    asym = skb_per_pulse(TABLE_POINT, regime="asymptotic")
    fin = skb_per_pulse(TABLE_POINT, regime="finite", block_size=1e8)
    assert asym.regime == "asymptotic"
    assert fin.regime == "finite"
    assert fin.skb_per_pulse < asym.skb_per_pulse
    with pytest.raises(ParameterError):
        skb_per_pulse(TABLE_POINT, regime="exact")


# dark-free at 200 dB: the signal click probability rounds the raw click
# probability to exactly zero
NO_CLICK_POINT = OperatingPoint(
    link=LinkModel(dark_count_prob=0.0, channel_loss_db=200.0)
)


@pytest.mark.parametrize(
    "point",
    [
        TABLE_POINT,
        lossless_point(),
        NO_CLICK_POINT,
        TABLE_POINT.with_loss(60.0),  # p_c1 = 0
    ],
    ids=["table", "lossless", "no_clicks", "no_single_photon_floor"],
)
def test_regimes_share_the_click_model_fields(point):
    asym = skb_per_pulse(point)
    fin = skb_per_pulse(point, "finite", block_size=1e8)
    for name in ("p_c", "p_m", "p_c1_lower", "e_tot", "e1_upper"):
        assert getattr(fin, name) == getattr(asym, name), name
    assert click_terms(point).qber == qber_total(point)


def test_finite_without_clicks_reports_zero_key():
    assert click_probability(NO_CLICK_POINT) == 0.0
    report = skb_per_pulse(NO_CLICK_POINT, "finite", block_size=1e8)
    assert report.finite is None
    assert report.skb_per_pulse == 0.0
    assert not report.positive
    # the block size is validated before the click check
    with pytest.raises(ParameterError):
        skb_per_pulse(NO_CLICK_POINT, "finite", block_size=0.5)


# ---------------------------------------------------------------------------
# maximum tolerable loss
# ---------------------------------------------------------------------------

def test_max_tolerable_loss_asymptotic_frozen_value():
    mtl = max_tolerable_loss(TABLE_POINT, regime="asymptotic")
    assert mtl == pytest.approx(29.291952362060545, abs=0.01)


def test_max_tolerable_loss_finite_frozen_values():
    mtl_1e8 = max_tolerable_loss(TABLE_POINT, regime="finite", block_size=1e8)
    mtl_1e5 = max_tolerable_loss(TABLE_POINT, regime="finite", block_size=1e5)
    mtl_1e3 = max_tolerable_loss(TABLE_POINT, regime="finite", block_size=1e3)
    assert mtl_1e8 == pytest.approx(29.28028396606445, abs=0.01)
    assert mtl_1e5 == pytest.approx(28.953568878173822, abs=0.01)
    assert mtl_1e3 == pytest.approx(24.80739883422852, abs=0.01)


def test_max_tolerable_loss_ordering():
    mtl_asym = max_tolerable_loss(TABLE_POINT, regime="asymptotic")
    finite = [
        max_tolerable_loss(TABLE_POINT, regime="finite", block_size=n)
        for n in (1e8, 1e5, 1e3)
    ]
    assert mtl_asym > finite[0] > finite[1] > finite[2]


def test_max_tolerable_loss_sign_bracketing():
    mtl = max_tolerable_loss(TABLE_POINT, regime="asymptotic")
    before = skb_per_pulse(TABLE_POINT.with_loss(mtl - 0.05))
    after = skb_per_pulse(TABLE_POINT.with_loss(mtl + 0.05))
    assert before.positive
    assert not after.positive


def test_max_tolerable_loss_drops_when_darks_double():
    heavier = OperatingPoint(link=LinkModel(dark_count_prob=2 * 8.74e-7))
    mtl = max_tolerable_loss(heavier, regime="asymptotic")
    assert mtl == pytest.approx(28.9365, abs=0.01)
    assert mtl < max_tolerable_loss(TABLE_POINT, regime="asymptotic")


def test_max_tolerable_loss_raises_when_never_positive():
    # reconciliation cost exceeds the single-photon yield at any loss
    noisy = OperatingPoint(link=LinkModel(misalignment_prob=0.1))
    with pytest.raises(NoPositiveKeyError):
        max_tolerable_loss(noisy)


# ---------------------------------------------------------------------------
# operating points off the table defaults
# ---------------------------------------------------------------------------

def test_damped_source_extends_reach_past_passive_cutoff():
    # beyond the fixed-brightness cutoff, damping the source restores key
    point = TABLE_POINT.with_loss(30.5)
    assert not skb_per_pulse(point).positive
    damped = point.with_source(replace(point.source, pre_attenuation=0.4))
    assert skb_per_pulse(damped).positive


def test_biased_basis_helps_small_finite_blocks():
    point = TABLE_POINT.with_loss(28.5)
    base = skb_per_pulse(point, "finite", block_size=1e5).skb_per_pulse
    assert base == pytest.approx(2.542525e-6, rel=1e-3)
    biased = replace(point, protocol=replace(point.protocol, basis_bias=0.9))
    assert skb_per_pulse(biased, "finite", block_size=1e5).skb_per_pulse > base


def test_golden_refine_finds_the_maximum_of_a_unimodal_function():
    calls = []

    def parabola(x: float) -> float:
        calls.append(x)
        return 3.0 - (x - 0.3) ** 2

    best, value = keyrate._golden_refine(parabola, -1.0, 2.0)
    assert best == pytest.approx(0.3, abs=1e-6)
    assert value == pytest.approx(3.0, abs=1e-12)
    assert all(-1.0 <= x <= 2.0 for x in calls)
    # two opening probes, then one per iteration
    assert len(calls) == 42


# ---------------------------------------------------------------------------
# sweeps and tabulation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", ["asymptotic", "finite"])
def test_sweep_runs_one_click_model_pass_per_point(monkeypatch, regime):
    calls = []
    original = keyrate.click_terms

    def counting(op):
        calls.append(op)
        return original(op)

    monkeypatch.setattr(keyrate, "click_terms", counting)
    values = [0.0, 10.0, 25.49, 60.0, 200.0]
    rows = sweep(
        TABLE_POINT, axis="loss", values=values, regime=regime,
        block_size=1e8,
    )
    assert len(rows) == len(values)
    assert len(calls) == len(values)


def test_sweep_loss_axis_monotone():
    rows = sweep(TABLE_POINT, axis="loss", values=[0.0, 10.0, 20.0, 25.0])
    skbs = [row.report.skb_per_pulse for row in rows]
    assert [row.value for row in rows] == [0.0, 10.0, 20.0, 25.0]
    assert all(a > b for a, b in zip(skbs, skbs[1:]))


def test_sweep_clock_axis_frozen_trends():
    # at fixed 15.648 dB the faster clocks win on rate but lose on
    # capture and dead time, so the gain is sublinear
    point = TABLE_POINT.with_loss(15.648)
    rows = sweep(
        point, axis="clock_rate", values=[76e6, 228e6, 608e6, 1063e6]
    )
    qbers = [row.report.e_tot for row in rows]
    skrs = [row.report.skr for row in rows]
    assert qbers[0] == pytest.approx(1.2689e-3, rel=1e-3)
    assert qbers[-1] == pytest.approx(3.4812e-4, rel=1e-3)
    assert all(a > b for a, b in zip(qbers, qbers[1:]))
    assert all(a < b for a, b in zip(skrs, skrs[1:]))
    assert skrs[3] / skrs[2] < 1063 / 608


def test_sweep_dataset_axis_uniform_rows_match():
    rows = sweep(
        TABLE_POINT,
        axis="dataset",
        values=[
            {"label": "a", "mean_photon_number": 0.138, "g2_zero": 0.0243},
            {"label": "b", "mean_photon_number": 0.138, "g2_zero": 0.0243},
        ],
    )
    assert rows[0].report.skb_per_pulse == rows[1].report.skb_per_pulse
    assert rows[0].axis == "dataset"


def test_sweep_dataset_bad_row_is_indexed():
    with pytest.raises(ParameterError) as err:
        sweep(
            TABLE_POINT,
            axis="dataset",
            values=[
                {"label": "a", "mean_photon_number": 0.138,
                 "g2_zero": 0.0243},
                {"label": "b", "mean_photon_number": -1.0,
                 "g2_zero": 0.0243},
            ],
        )
    assert "dataset[1]" in str(err.value)


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ParameterError):
        sweep(TABLE_POINT, axis="temperature", values=[1.0])


def test_sweep_csv_round_trip(tmp_path):
    rows = sweep(TABLE_POINT, axis="loss", values=[10.0, 20.0],
                 regime="finite", block_size=1e6)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    with open(path, newline="") as handle:
        read = list(csv.DictReader(handle))
    assert len(read) == 2
    assert float(read[0]["axis_value"]) == 10.0
    assert float(read[0]["skb_per_pulse"]) == pytest.approx(
        rows[0].report.skb_per_pulse, rel=1e-9
    )
    assert "final_key_length" in read[0]


def test_read_dataset_csv(tmp_path):
    path = tmp_path / "sources.csv"
    path.write_text(
        "label,mean_photon_number,g2_zero\n"
        "dim,0.02,0.010\n"
        "bright,0.20,0.056\n"
    )
    rows = read_dataset_csv(path)
    assert rows[0]["label"] == "dim"
    assert rows[1]["mean_photon_number"] == pytest.approx(0.20)


def test_read_dataset_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,brightness\nx,0.1\n")
    with pytest.raises(ParameterError):
        read_dataset_csv(path)
