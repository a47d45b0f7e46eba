"""Tests for the pulse-level detection simulator."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sps_bb84 import montecarlo
from sps_bb84.montecarlo import (
    CHANNEL_REFERENCE,
    NO_TRUTH_STATE,
    AliceRecord,
    Scenario,
    _chunk_ranges,
    _deadtime_keep_mask,
    _event_weights,
    _lookup,
    _merge_sorted,
    _pair_offsets,
    _philox,
    _photon_events,
    _survival_probability,
    simulate_g2_histogram,
    simulate_run,
    stream_statistics,
)
from sps_bb84.keyrate import click_probability, qber_total
from sps_bb84.params import (
    LinkModel,
    OperatingPoint,
    ParameterError,
    SourceModel,
)


def table_point() -> OperatingPoint:
    return OperatingPoint()


def lossless_point() -> OperatingPoint:
    return OperatingPoint().with_loss(0.0)


def forced_source(mean: float, g2: float) -> SourceModel:
    """Build a source bypassing validation, to reach error paths."""
    src = object.__new__(SourceModel)
    object.__setattr__(src, "mean_photon_number", mean)
    object.__setattr__(src, "g2_zero", g2)
    object.__setattr__(src, "lifetime", 592.5)
    object.__setattr__(src, "pre_attenuation", 1.0)
    return src


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

def test_scenario_rejects_zero_pulses():
    with pytest.raises(ParameterError, match="n_pulses"):
        Scenario(operating_point=table_point(), n_pulses=0, seed=1)


def test_scenario_rejects_negative_jitter():
    with pytest.raises(ParameterError, match="jitter_sigma"):
        Scenario(operating_point=table_point(), n_pulses=10, seed=1,
                 jitter_sigma=-1.0)


def test_scenario_rejects_bad_encoded_state():
    with pytest.raises(ParameterError, match="encoded_state"):
        Scenario(operating_point=table_point(), n_pulses=10, seed=1,
                 encoded_state=4)


def test_scenario_rejects_time_overflow():
    # 1.2e15 pulses at ~4.4 ns each overflow the signed picosecond range
    with pytest.raises(ParameterError, match="n_pulses"):
        Scenario(operating_point=table_point(), n_pulses=1_200_000_000_000_000,
                 seed=1)


def test_scenario_time_span_limit_is_two_to_the_sixtieth_ps():
    # a 1024 ps period is exact in binary, so 2**50 pulses span 2**60 ps
    point = table_point().with_clock_rate(1e12 / 1024)
    Scenario(operating_point=point, n_pulses=2**50 - 1, seed=1)
    with pytest.raises(ParameterError, match="n_pulses"):
        Scenario(operating_point=point, n_pulses=2**50, seed=1)


def test_scenario_period_matches_clock():
    sc = Scenario(operating_point=table_point(), n_pulses=10, seed=1)
    assert sc.period_ps == pytest.approx(1e12 / 228e6, rel=1e-12)


# ---------------------------------------------------------------------------
# per-pulse photon statistics
# ---------------------------------------------------------------------------

def test_photon_sampler_rejects_invalid_distribution():
    with pytest.raises(ParameterError, match="g2_zero"):
        forced_source(1.4, 0.9).photon_number_pmf()


# ---------------------------------------------------------------------------
# event generator
# ---------------------------------------------------------------------------

def test_event_configurations_follow_conditional_law():
    # a bright, impure source on a lossless link makes all three event
    # configurations frequent: one photon emitted; two emitted, one
    # survives; two emitted, both survive
    point = lossless_point().with_source(
        SourceModel(mean_photon_number=0.5, g2_zero=0.5)
    )
    sc = Scenario(operating_point=point, n_pulses=4_000_000, seed=4)
    counts = np.zeros(3)
    for chunk in range(4):
        _, photons, owner, _ = _photon_events(
            sc, _philox(sc.seed, chunk), chunk * 1_000_000, 1_000_000
        )
        survivors = np.bincount(owner, minlength=len(photons))
        counts += [
            (photons == 1).sum(),
            ((photons == 2) & (survivors == 1)).sum(),
            (survivors == 2).sum(),
        ]
    _, p1, p2 = point.source.photon_number_pmf()
    s = _survival_probability(point)
    weights = np.array([p1 * s, 2.0 * p2 * s * (1.0 - s), p2 * s * s])
    share = weights / weights.sum()
    total = counts.sum()
    sigma = np.sqrt(total * share * (1.0 - share))
    assert (np.abs(counts - total * share) < 4.0 * sigma).all()
    # the event count itself is Binomial(n_pulses, q)
    q = weights.sum()
    expected = q * sc.n_pulses
    assert abs(total - expected) < 4.0 * math.sqrt(expected * (1.0 - q))


def test_matched_basis_photons_read_their_encoded_bit():
    # without misalignment or dark counts the projection is exact in the
    # photon's own basis and a fair coin in the other one
    point = OperatingPoint(
        link=LinkModel(
            channel_loss_db=0.0, dark_count_prob=0.0, misalignment_prob=0.0
        )
    )
    sc = Scenario(operating_point=point, n_pulses=200_000, seed=12)
    _, stream = simulate_run(sc)
    assert not stream.dark.any()
    channel, truth = stream.channel, stream.truth_state
    matched = (channel >> 1) == (truth >> 1)
    assert matched.sum() > 1_000
    np.testing.assert_array_equal(channel[matched] & 1, truth[matched] & 1)
    crossed = ~matched
    ones = int((channel[crossed] & 1).sum())
    n = int(crossed.sum())
    assert abs(ones - 0.5 * n) < 4.0 * math.sqrt(0.25 * n)


def test_paper_scale_run_cost_follows_detections():
    # 1e10 pulses at the operating point hold ~1.3e6 detections; the
    # generator must not touch the pulses between them
    point = table_point().with_loss(25.49)
    sc = Scenario(operating_point=point, n_pulses=10_000_000_000, seed=25)
    t0 = time.perf_counter()
    alice, stream = simulate_run(sc)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    summary = stream_statistics(alice, stream)
    _, p1, p2 = point.source.photon_number_pmf()
    s = _survival_probability(point)
    q = p1 * s + p2 * (1.0 - (1.0 - s) ** 2)
    events_bound = q * sc.n_pulses + 5.0 * math.sqrt(q * sc.n_pulses)
    assert len(alice.indices) <= events_bound + summary.clicked_windows
    expected = click_probability(point)
    sigma = math.sqrt(expected * (1.0 - expected) / sc.n_pulses)
    assert abs(summary.click_fraction - expected) < 3.0 * sigma


def test_every_tagged_window_has_a_recorded_state():
    sc = Scenario(operating_point=table_point().with_loss(10.0),
                  n_pulses=2_000_000, seed=8)
    alice, stream = simulate_run(sc)
    windows = stream.window_index()
    windows = windows[(windows >= 0) & (windows < sc.n_pulses)]
    states = alice.states_at(windows)
    assert len(states) == len(windows) and (states <= 3).all()


def test_alice_record_lookup_of_unheld_pulse_raises():
    alice = AliceRecord(n_pulses=100, indices=[3, 7, 42], states=[0, 1, 3])
    np.testing.assert_array_equal(alice.states_at([42, 3]), [3, 0])
    np.testing.assert_array_equal(alice.bits_at([7]), [1])
    np.testing.assert_array_equal(alice.bases_at([42]), [1])
    for missing in ([5], [3, 43], [99], [-1]):
        with pytest.raises(KeyError, match="no transmitter state"):
            alice.states_at(missing)
    with pytest.raises(KeyError):
        AliceRecord(n_pulses=10, indices=[], states=[]).states_at([0])


@settings(max_examples=300, deadline=None)
@given(
    keys=st.sets(st.integers(-5, 40), max_size=20),
    values=st.lists(st.integers(-8, 45), max_size=30),
)
def test_lookup_matches_plain_reference(keys, values):
    sorted_keys = np.array(sorted(keys), dtype=np.int64)
    values = np.array(values, dtype=np.int64)
    position, present = _lookup(sorted_keys, values)
    keys_list = sorted_keys.tolist()
    np.testing.assert_array_equal(
        present, [v in keys for v in values.tolist()]
    )
    np.testing.assert_array_equal(
        position, [sum(k < v for k in keys_list) for v in values.tolist()]
    )
    assert present.dtype == bool and position.dtype == np.intp


def test_alice_record_rejects_malformed_indices():
    with pytest.raises(ParameterError, match="increasing"):
        AliceRecord(n_pulses=10, indices=[4, 4], states=[0, 1])
    with pytest.raises(ParameterError, match="n_pulses"):
        AliceRecord(n_pulses=10, indices=[10], states=[0])
    with pytest.raises(ParameterError, match="equal length"):
        AliceRecord(n_pulses=10, indices=[1, 2], states=[0])


def _greedy_deadtime_reference(time_ps, channel, dead_time_ps):
    """Plain per-channel greedy scan over every tag."""
    keep = np.ones(len(time_ps), dtype=bool)
    if dead_time_ps <= 0.0:
        return keep
    for detector in range(4):
        idx = np.flatnonzero(channel == detector)
        last = -math.inf
        for position, t in zip(idx, time_ps[idx].tolist()):
            if t - last >= dead_time_ps:
                last = t
            else:
                keep[position] = False
    return keep


@settings(max_examples=300, deadline=None)
@given(
    # (gap to the previous tag in ps, channel); channel 4 is never gated
    tags=st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 4)), max_size=200
    ),
    dead_time_ps=st.sampled_from([0.0, 1.0, 25.0, 40.5, 100.0, 1e4]),
)
def test_deadtime_filter_matches_greedy_reference(tags, dead_time_ps):
    time_ps = np.cumsum(np.array([g for g, _ in tags], dtype=np.int64))
    channel = np.array([c for _, c in tags], dtype=np.uint8)
    np.testing.assert_array_equal(
        _deadtime_keep_mask(time_ps, channel, dead_time_ps),
        _greedy_deadtime_reference(time_ps, channel, dead_time_ps),
    )


@settings(max_examples=300, deadline=None)
@given(
    tags=st.lists(
        st.tuples(
            st.one_of(
                st.integers(-3, 3),  # dense: many equal times
                st.integers(-(2**60) + 1, 2**60 - 1),
            ),
            st.integers(0, 3),
        ),
        max_size=60,
    )
)
def test_merge_order_matches_lexsort_with_ties(tags):
    time_ps = np.array([t for t, _ in tags], dtype=np.int64)
    channel = np.array([c for _, c in tags], dtype=np.uint8)
    half = len(tags) // 2
    chunks = [
        {"time_ps": time_ps[part], "channel": channel[part], "row": rows}
        for part, rows in (
            (slice(None, half), np.arange(half)),
            (slice(half, None), np.arange(half, len(tags))),
        )
    ]
    # no dead time: the merge is the permutation alone
    merged = _merge_sorted(chunks, 0.0)
    np.testing.assert_array_equal(
        merged["row"], np.lexsort((channel, time_ps))
    )


@settings(max_examples=200, deadline=None)
@given(
    bounds=st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 6)), max_size=40
    )
)
def test_pair_offsets_match_per_tag_ranges(bounds):
    lo = np.array([a for a, _ in bounds], dtype=np.int64)
    hi = lo + np.array([n for _, n in bounds], dtype=np.int64)
    ranges = [np.arange(a, b) for a, b in zip(lo, hi)]
    expected = np.concatenate(ranges) if ranges else np.empty(0, np.int64)
    np.testing.assert_array_equal(_pair_offsets(lo, hi), expected)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _with_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: workers)


def test_run_is_deterministic_across_worker_counts(monkeypatch):
    sc = Scenario(operating_point=table_point().with_loss(10.0),
                  n_pulses=2_500_000, seed=99)
    # ~1.2e4 expected detections: a smaller target makes several chunks
    monkeypatch.setattr(montecarlo, "_CHUNK_EVENTS", 5_000)
    assert len(_chunk_ranges(sc)) >= 3
    _with_workers(monkeypatch, 1)
    alice1, stream1 = simulate_run(sc)
    _with_workers(monkeypatch, 4)
    alice2, stream2 = simulate_run(sc)
    assert np.array_equal(alice1.indices, alice2.indices)
    assert np.array_equal(alice1.states, alice2.states)
    assert np.array_equal(stream1.time_ps, stream2.time_ps)
    assert np.array_equal(stream1.channel, stream2.channel)
    assert np.array_equal(stream1.truth_state, stream2.truth_state)
    assert np.array_equal(stream1.truth_photons, stream2.truth_photons)
    assert np.array_equal(stream1.dark, stream2.dark)


def test_repeated_runs_are_bit_identical():
    sc = Scenario(operating_point=table_point(), n_pulses=300_000, seed=5)
    _, stream1 = simulate_run(sc)
    _, stream2 = simulate_run(sc)
    assert np.array_equal(stream1.time_ps, stream2.time_ps)
    assert np.array_equal(stream1.channel, stream2.channel)


def test_pair_histogram_deterministic_across_worker_counts(monkeypatch):
    sc = Scenario(operating_point=lossless_point(), n_pulses=2_000_000,
                  seed=66)
    monkeypatch.setattr(montecarlo, "_CHUNK_EVENTS", 20_000)
    assert len(_chunk_ranges(sc)) >= 3
    _with_workers(monkeypatch, 1)
    h1 = simulate_g2_histogram(sc)
    _with_workers(monkeypatch, 4)
    h2 = simulate_g2_histogram(sc)
    assert np.array_equal(h1.counts, h2.counts)
    assert h1.origin_ps == h2.origin_ps


def _events_per_pulse(point: OperatingPoint) -> float:
    return float(_event_weights(point).sum()) + point.link.dark_prob_total(
        point.protocol.clock_rate
    )


@pytest.mark.parametrize(
    "loss_db, n_pulses",
    [(25.49, 410_000_000_000), (25.49, 10_000_000), (0.0, 3_333_333),
     (10.0, 10_550_818)],
)
def test_chunk_plan_covers_run_with_event_sized_chunks(loss_db, n_pulses):
    point = table_point().with_loss(loss_db)
    sc = Scenario(operating_point=point, n_pulses=n_pulses, seed=1)
    ranges = _chunk_ranges(sc)
    indices, starts, counts = (np.array(c, dtype=np.int64)
                               for c in zip(*ranges))
    np.testing.assert_array_equal(indices, np.arange(len(ranges)))
    # contiguous from 0 to n_pulses: every pulse in exactly one chunk
    assert starts[0] == 0
    np.testing.assert_array_equal(starts[1:], starts[:-1] + counts[:-1])
    assert int(counts.sum()) == n_pulses and (counts > 0).all()
    rate = _events_per_pulse(point)
    if rate * n_pulses <= montecarlo._CHUNK_EVENTS:
        assert ranges == [(0, 0, n_pulses)]
    else:
        # all but the last chunk expect the target, rounded up to a pulse
        length = math.ceil(montecarlo._CHUNK_EVENTS / rate)
        assert (counts[:-1] == length).all() and counts[-1] <= length
        assert abs(length * rate - montecarlo._CHUNK_EVENTS) <= rate


def test_chunk_plan_is_one_chunk_without_detections():
    dark_free = LinkModel(dark_count_prob=0.0)
    for loss_db in (5_000.0, 3_085.0):  # zero, then a subnormal rate
        point = OperatingPoint(link=dark_free.with_loss(loss_db))
        assert _events_per_pulse(point) < 1e-300
        sc = Scenario(operating_point=point, n_pulses=410_000_000_000,
                      seed=1)
        assert _chunk_ranges(sc) == [(0, 0, 410_000_000_000)]


def test_pool_runs_exactly_the_multi_chunk_runs(monkeypatch):
    pools = []

    class RecordingPool(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "_CHUNK_EVENTS", 5_000)
    point = table_point().with_loss(10.0)

    def spans(scenario, rng, start, count):
        return start, count

    for cpus in (1, 2, 8):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        for n_pulses in (1, 1_000_000, 1_055_082, 1_055_083, 2_500_000):
            sc = Scenario(operating_point=point, n_pulses=n_pulses, seed=3)
            ranges = _chunk_ranges(sc)
            pools.clear()
            assert montecarlo._map_chunks(sc, spans) == [
                (start, count) for _, start, count in ranges
            ]
            expected = [min(cpus, len(ranges))] if (
                cpus > 1 and len(ranges) > 1) else []
            assert pools == expected


def test_different_seeds_differ():
    sc1 = Scenario(operating_point=lossless_point(), n_pulses=100_000, seed=1)
    sc2 = Scenario(operating_point=lossless_point(), n_pulses=100_000, seed=2)
    _, s1 = simulate_run(sc1)
    _, s2 = simulate_run(sc2)
    assert len(s1) != len(s2) or not np.array_equal(s1.time_ps, s2.time_ps)


# ---------------------------------------------------------------------------
# physical limits
# ---------------------------------------------------------------------------

def test_opaque_channel_without_darks_yields_empty_stream():
    link = LinkModel(channel_loss_db=300.0, dark_count_prob=0.0)
    point = OperatingPoint(link=link)
    alice, stream = simulate_run(
        Scenario(operating_point=point, n_pulses=200_000, seed=3)
    )
    assert len(stream) == 0
    summary = stream_statistics(alice, stream)
    assert summary.clicked_windows == 0
    assert summary.click_fraction == 0.0


def test_deadtime_spacing_holds_on_every_detector():
    sc = Scenario(operating_point=lossless_point(), n_pulses=1_000_000,
                  seed=55)
    _, stream = simulate_run(sc)
    dead_ps = table_point().link.dead_time * 1e3
    for detector in range(4):
        t = stream.time_ps[stream.channel == detector]
        if len(t) > 1:
            assert (np.diff(t) >= dead_ps).all()


def test_zero_deadtime_skips_filtering():
    link = LinkModel(channel_loss_db=0.0, dead_time=0.0)
    point = OperatingPoint(link=link)
    _, stream = simulate_run(
        Scenario(operating_point=point, n_pulses=300_000, seed=12)
    )
    # with the gate removed, same-detector tags may sit arbitrarily close
    gaps = []
    for detector in range(4):
        t = stream.time_ps[stream.channel == detector]
        if len(t) > 1:
            gaps.append(np.diff(t).min())
    assert min(gaps) < table_point().link.dead_time * 1e3


# ---------------------------------------------------------------------------
# ground-truth statistics vs the analytic chain
# ---------------------------------------------------------------------------

def test_click_fraction_matches_analytic_model():
    point = table_point().with_loss(10.0)
    sc = Scenario(operating_point=point, n_pulses=1_000_000, seed=42)
    alice, stream = simulate_run(sc)
    summary = stream_statistics(alice, stream)
    expected = click_probability(point)
    sigma = np.sqrt(expected * (1.0 - expected) / sc.n_pulses)
    assert abs(summary.click_fraction - expected) < 3.0 * sigma


def test_truth_qber_matches_analytic_model():
    point = table_point().with_loss(10.0)
    sc = Scenario(operating_point=point, n_pulses=1_000_000, seed=42)
    alice, stream = simulate_run(sc)
    summary = stream_statistics(alice, stream)
    expected = qber_total(point)
    sigma = np.sqrt(expected * (1.0 - expected) / summary.matched_count)
    assert abs(summary.truth_qber - expected) < 3.0 * sigma


def test_measurement_basis_is_unbiased():
    sc = Scenario(operating_point=table_point().with_loss(10.0),
                  n_pulses=1_000_000, seed=42)
    alice, stream = simulate_run(sc)
    summary = stream_statistics(alice, stream)
    n = summary.clicked_windows
    assert abs(summary.basis_z_fraction - 0.5) < 3.0 * np.sqrt(0.25 / n)


def test_summary_counts_are_consistent():
    sc = Scenario(operating_point=table_point().with_loss(10.0),
                  n_pulses=500_000, seed=21)
    alice, stream = simulate_run(sc)
    summary = stream_statistics(alice, stream)
    assert summary.n_pulses == 500_000
    assert summary.n_tags == len(stream)
    assert summary.n_dark_tags == int(stream.dark.sum())
    assert 0 < summary.clicked_windows <= summary.n_tags
    assert summary.error_count <= summary.matched_count
    assert summary.click_fraction == pytest.approx(
        summary.clicked_windows / 500_000
    )


# ---------------------------------------------------------------------------
# static encoding and truth labels
# ---------------------------------------------------------------------------

def test_static_encoding_labels_every_photon_tag():
    sc = Scenario(operating_point=lossless_point(), n_pulses=200_000,
                  seed=31, encoded_state=2)
    alice, stream = simulate_run(sc)
    assert (alice.states == 2).all()
    photon = ~stream.dark
    assert (stream.truth_state[photon] == 2).all()
    assert (stream.truth_state[stream.dark] == NO_TRUTH_STATE).all()
    assert (stream.truth_photons[photon] >= 1).all()
    assert (stream.truth_photons[stream.dark] == 0).all()


def test_random_encoding_uses_all_states():
    sc = Scenario(operating_point=lossless_point(), n_pulses=100_000, seed=13)
    alice, _ = simulate_run(sc)
    values, counts = np.unique(alice.states, return_counts=True)
    assert list(values) == [0, 1, 2, 3]
    assert counts.min() > 0.2 * len(alice.states)


# ---------------------------------------------------------------------------
# window arithmetic
# ---------------------------------------------------------------------------

def test_reference_times_round_nominal_ticks():
    sc = Scenario(operating_point=table_point(), n_pulses=10, seed=1)
    _, stream = simulate_run(sc)
    ticks = stream.reference_times(0, 3)
    period = sc.period_ps
    assert list(ticks) == [0, round(period), round(2 * period)]


def test_window_guard_keeps_early_jitter_in_own_window():
    sc = Scenario(operating_point=table_point(), n_pulses=10, seed=1)
    _, template = simulate_run(sc)
    stream = type(template)(
        time_ps=np.array([-300, -200, 100], dtype=np.int64),
        channel=np.zeros(3, dtype=np.uint8),
        truth_state=np.zeros(3, dtype=np.uint8),
        truth_photons=np.ones(3, dtype=np.uint8),
        dark=np.zeros(3, dtype=bool),
        n_pulses=10,
        period_ps=sc.period_ps,
    )
    windows = stream.window_index()
    # a click 200 ps early still lands in window 0; 300 ps early does not
    assert list(windows) == [-1, 0, 0]


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------

def run_small_stream():
    sc = Scenario(operating_point=table_point().with_loss(10.0),
                  n_pulses=100_000, seed=17)
    return simulate_run(sc)[1]


def assert_streams_equal(a, b):
    assert np.array_equal(a.time_ps, b.time_ps)
    assert np.array_equal(a.channel, b.channel)
    assert np.array_equal(a.truth_state, b.truth_state)
    assert np.array_equal(a.truth_photons, b.truth_photons)
    assert np.array_equal(a.dark, b.dark)
    assert a.n_pulses == b.n_pulses
    assert a.period_ps == pytest.approx(b.period_ps, rel=1e-8)


def test_binary_round_trip_with_reference(tmp_path):
    from sps_bb84.montecarlo import read_tags, write_tags

    stream = run_small_stream()
    path = tmp_path / "tags.bin"
    write_tags(stream, path)
    assert_streams_equal(stream, read_tags(path))


def test_reading_referenceless_file_needs_explicit_geometry(tmp_path):
    # the pulse count and period come from the reference tags alone, so
    # a file with fewer than two of them cannot be read
    from sps_bb84.montecarlo import read_tags

    path = tmp_path / "tags_noref.bin"
    for channels in ([0, 1], [0, CHANNEL_REFERENCE, 1]):
        records = np.zeros(len(channels), dtype=montecarlo._RECORD_DTYPE)
        records["time_ps"] = 100 * np.arange(len(channels))
        records["channel"] = channels
        records.tofile(path)
        with pytest.raises(ParameterError, match="tags: .* reference"):
            read_tags(path)


@pytest.mark.parametrize("suffix", ["bin", "csv"])
def test_writers_reject_stream_without_pulses(tmp_path, suffix):
    from sps_bb84.montecarlo import TagStream, write_tags, write_tags_csv

    stream = TagStream(
        time_ps=np.array([100], dtype=np.int64),
        channel=np.array([0], dtype=np.uint8),
        truth_state=np.array([0], dtype=np.uint8),
        truth_photons=np.array([1], dtype=np.uint8),
        dark=np.array([False]),
        n_pulses=0,
        period_ps=4386.0,
    )
    path = tmp_path / f"tags.{suffix}"
    writer = write_tags if suffix == "bin" else write_tags_csv
    with pytest.raises(ParameterError, match="n_pulses"):
        writer(stream, path)
    assert not path.exists()


def test_csv_round_trip(tmp_path):
    from sps_bb84.montecarlo import read_tags_csv, write_tags_csv

    stream = run_small_stream()
    path = tmp_path / "tags.csv"
    write_tags_csv(stream, path)
    assert_streams_equal(stream, read_tags_csv(path))
    first_lines = path.read_text().splitlines()[:2]
    assert first_lines[0] == "time_ps,channel,truth_state,truth_photons,dark"
    # reference rows carry the channel letter and empty truth columns
    assert first_lines[1].split(",")[1] in ("H", "V", "D", "A", "REF")


def test_csv_reference_ticks_must_advance(tmp_path):
    from sps_bb84.montecarlo import read_tags_csv

    path = tmp_path / "backwards.csv"
    path.write_text(
        "time_ps,channel,truth_state,truth_photons,dark\n"
        "4386,REF,,0,0\n100,H,H,1,0\n0,REF,,0,0\n"
    )
    with pytest.raises(ParameterError, match="period"):
        read_tags_csv(path)


def test_binary_reader_rejects_truncated_and_unknown_records(tmp_path):
    from sps_bb84.montecarlo import read_tags, write_tags

    path = tmp_path / "tags.bin"
    write_tags(run_small_stream(), path)
    data = path.read_bytes()
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(data[:-3])
    with pytest.raises(ParameterError, match="inside a record"):
        read_tags(truncated)
    records = np.frombuffer(data, dtype=np.uint8).reshape(-1, 10).copy()
    records[records[:, 8] != 4, 8] = 9  # channel byte of each detector tag
    unknown = tmp_path / "unknown.bin"
    unknown.write_bytes(records.tobytes())
    with pytest.raises(ParameterError, match="unknown channel"):
        read_tags(unknown)
