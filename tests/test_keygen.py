"""Tests for secret-key distillation: sifting, estimation, reconciliation,
verification hashing, privacy amplification, and the session driver.

Statistical expectations are frozen from seeded runs; structural
expectations (leak counts, ledger identities, hash equalities) are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sps_bb84 import keygen
from sps_bb84.finitekey import FiniteBlockInput, finite_skb_per_pulse
from sps_bb84.keygen import (
    _ROW_PATH_MAX_TAG,
    EstimateResult,
    KeySessionLedger,
    ReconciliationError,
    SessionAbort,
    SessionPolicy,
    SiftedKey,
    estimate_error_rate,
    privacy_amplify,
    reconcile,
    run_session,
    sift,
    verification_tag_length,
    verify,
)
from sps_bb84.keyrate import multiphoton_bound
from sps_bb84.montecarlo import (
    AliceRecord,
    Scenario,
    TagStream,
    simulate_run,
    stream_statistics,
)
from sps_bb84.params import (
    OperatingPoint,
    ParameterError,
    _require,
    binary_entropy,
)
from sps_bb84.tagproc import InsufficientStatisticsError


def _random_bits(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, n, dtype=np.uint8)


def _handmade_stream(times, channels, truth, dark, n_pulses, period=1000.0):
    times = np.asarray(times, dtype=np.int64)
    return TagStream(
        time_ps=times,
        channel=np.asarray(channels, dtype=np.uint8),
        truth_state=np.asarray(truth, dtype=np.uint8),
        truth_photons=np.where(
            np.asarray(dark, dtype=bool), 0, 1
        ).astype(np.uint8),
        dark=np.asarray(dark, dtype=bool),
        n_pulses=n_pulses,
        period_ps=period,
    )


@pytest.fixture(scope="module")
def session_10db():
    scenario = Scenario(
        operating_point=OperatingPoint().with_loss(10.0),
        n_pulses=2_000_000,
        seed=900,
    )
    return scenario, run_session(scenario)


# ---------------------------------------------------------------------------
# sifted-key container
# ---------------------------------------------------------------------------

class TestSiftedKey:
    def test_valid_construction(self):
        key = SiftedKey(
            basis="Z",
            bits=np.array([0, 1, 1], dtype=np.uint8),
            indices=np.array([2, 5, 9], dtype=np.int64),
        )
        assert len(key) == 3
        np.testing.assert_array_equal(key.bits, [0, 1, 1])
        np.testing.assert_array_equal(key.indices, [2, 5, 9])

    def test_rejects_unknown_basis(self):
        with pytest.raises(ParameterError, match="basis"):
            SiftedKey("Y", np.zeros(1, np.uint8), np.zeros(1, np.int64))

    def test_rejects_non_binary_bits(self):
        with pytest.raises(ParameterError, match="bits"):
            SiftedKey("Z", np.array([2], np.uint8), np.array([0]))

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ParameterError, match="increasing"):
            SiftedKey(
                "X",
                np.array([0, 1], np.uint8),
                np.array([5, 5], np.int64),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ParameterError, match="equal length"):
            SiftedKey("Z", np.zeros(2, np.uint8), np.array([1]))


# ---------------------------------------------------------------------------
# sifting
# ---------------------------------------------------------------------------

def _reference_sift(alice, detections):
    """Oracle: ``sift`` with np.unique picking each window's first tag."""
    windows = detections.window_index()
    valid = (windows >= 0) & (windows < alice.n_pulses)
    windows = windows[valid]
    channels = detections.channel[valid]
    kept_windows, first = np.unique(windows, return_index=True)
    kept_channels = channels[first]
    bob_basis = kept_channels >> 1
    matched = bob_basis == alice.bases_at(kept_windows)
    keys = []
    for code in (0, 1):
        select = matched & (bob_basis == code)
        keys.append(
            ((kept_channels[select] & 1).astype(np.uint8),
             kept_windows[select])
        )
    return keys


class TestSift:
    def test_all_matched_construction_keeps_everything(self):
        # every window holds one tag whose channel equals the prepared
        # state, so both bases sift losslessly and without errors
        states = np.arange(12, dtype=np.uint8) % 4
        alice = AliceRecord(
            n_pulses=12, indices=np.arange(12), states=states
        )
        times = np.arange(12, dtype=np.int64) * 1000 + 40
        stream = _handmade_stream(
            times, states, states, np.zeros(12, bool), n_pulses=12
        )
        z_key, x_key = sift(alice, stream)
        assert z_key.basis == "Z" and x_key.basis == "X"
        merged = np.sort(np.concatenate([z_key.indices, x_key.indices]))
        np.testing.assert_array_equal(merged, np.arange(12))
        np.testing.assert_array_equal(
            z_key.bits, alice.bits_at(z_key.indices)
        )
        np.testing.assert_array_equal(
            x_key.bits, alice.bits_at(x_key.indices)
        )
        np.testing.assert_array_equal(alice.bases_at(z_key.indices), 0)
        np.testing.assert_array_equal(alice.bases_at(x_key.indices), 1)

    def test_earliest_tag_wins_and_out_of_range_dropped(self):
        # window 0 has two tags (keep the first), the basis-mismatched
        # window-1 tag is discarded, and the window-2 tag is outside the
        # 2-pulse run entirely
        alice = AliceRecord(
            n_pulses=2, indices=[0, 1], states=np.array([0, 1], np.uint8)
        )
        stream = _handmade_stream(
            times=[40, 60, 1040, 2040],
            channels=[0, 1, 2, 2],
            truth=[0, 0, 1, 255],
            dark=[False, False, False, True],
            n_pulses=2,
        )
        z_key, x_key = sift(alice, stream)
        np.testing.assert_array_equal(z_key.indices, [0])
        np.testing.assert_array_equal(z_key.bits, [0])
        assert len(x_key) == 0

    @settings(max_examples=100, deadline=None)
    @given(
        n_pulses=st.integers(1, 60),
        n_tags=st.integers(0, 120),
        time_sorted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_on_sorted_tags_and_rejects_unsorted(
        self, n_pulses, n_tags, time_sorted, seed
    ):
        # time-sorted streams keep the first tag of each window, as the
        # np.unique oracle does; a stream whose in-range windows step
        # backwards breaks the TagStream contract and is refused
        rng = np.random.default_rng(seed)
        alice = AliceRecord(
            n_pulses=n_pulses,
            indices=np.arange(n_pulses),
            states=rng.integers(0, 4, n_pulses, dtype=np.uint8),
        )
        times = rng.integers(-1500, 1000 * n_pulses + 1500, n_tags)
        if time_sorted:
            times = np.sort(times)
        stream = _handmade_stream(
            times,
            rng.integers(0, 4, n_tags),
            np.zeros(n_tags),
            np.zeros(n_tags, bool),
            n_pulses=n_pulses,
        )
        windows = stream.window_index()
        windows = windows[(windows >= 0) & (windows < n_pulses)]
        if (np.diff(windows) < 0).any():
            with pytest.raises(ParameterError, match="time-sorted"):
                sift(alice, stream)
            return
        z_key, x_key = sift(alice, stream)
        for key, (bits, indices) in zip(
            (z_key, x_key), _reference_sift(alice, stream)
        ):
            np.testing.assert_array_equal(key.bits, bits)
            np.testing.assert_array_equal(key.indices, indices)

    def test_kept_fraction_matches_unbiased_basis_choice(self):
        # with both sides choosing bases 50/50, half the clicked windows
        # should survive sifting
        scenario = Scenario(
            operating_point=OperatingPoint().with_loss(10.0),
            n_pulses=300_000,
            seed=46,
        )
        alice, stream = simulate_run(scenario)
        summary = stream_statistics(alice, stream)
        z_key, x_key = sift(alice, stream)
        kept = (len(z_key) + len(x_key)) / summary.clicked_windows
        sigma = math.sqrt(0.25 / summary.clicked_windows)
        assert abs(kept - 0.5) < 3 * sigma

    def test_sifted_error_rate_matches_ground_truth(self):
        # elevated misalignment makes the channel error dominate the
        # small window-boundary systematic (late emission tails scored
        # against the neighbouring pulse), so the sifted mismatch rate
        # must agree with the origin-labeled truth QBER within 3 sigma
        point = OperatingPoint()
        point = replace(
            point,
            link=replace(
                point.link, misalignment_prob=0.02, channel_loss_db=10.0
            ),
        )
        scenario = Scenario(
            operating_point=point, n_pulses=2_000_000, seed=45
        )
        alice, stream = simulate_run(scenario)
        summary = stream_statistics(alice, stream)
        z_key, x_key = sift(alice, stream)
        alice_bits = np.concatenate(
            [alice.bits_at(z_key.indices), alice.bits_at(x_key.indices)]
        )
        bob_bits = np.concatenate([z_key.bits, x_key.bits])
        observed = float((alice_bits != bob_bits).mean())
        sigma = math.sqrt(
            summary.truth_qber * (1 - summary.truth_qber) / len(bob_bits)
        )
        assert abs(observed - summary.truth_qber) < 3 * sigma


# ---------------------------------------------------------------------------
# parameter estimation
# ---------------------------------------------------------------------------

class TestEstimateErrorRate:
    def test_identical_keys_report_zero(self):
        bits = _random_bits(1, 50)
        result = estimate_error_rate(
            bits, bits, rng=np.random.default_rng(2)
        )
        assert result.error_rate == 0.0
        assert result.n_disclosed == 5

    def test_full_disclosure_is_exact(self):
        alice = np.zeros(40, dtype=np.uint8)
        bob = alice.copy()
        bob[[3, 8, 15, 21, 30, 39]] = 1
        result = estimate_error_rate(
            alice, bob, disclose_fraction=1.0,
            rng=np.random.default_rng(3),
        )
        assert result.error_rate == pytest.approx(6 / 40)
        assert result.n_disclosed == 40
        assert len(result.alice_remaining) == 0
        assert len(result.bob_remaining) == 0

    def test_disclosed_positions_are_removed(self):
        alice = _random_bits(4, 200)
        bob = _random_bits(5, 200)
        result = estimate_error_rate(
            alice, bob, disclose_fraction=0.25,
            rng=np.random.default_rng(6),
        )
        assert result.n_disclosed == 50
        idx = result.disclosed_indices
        assert (np.diff(idx) > 0).all()
        np.testing.assert_array_equal(
            result.alice_remaining, np.delete(alice, idx)
        )
        np.testing.assert_array_equal(
            result.bob_remaining, np.delete(bob, idx)
        )
        # the reported rate is exactly the sample's mismatch fraction
        assert result.error_rate == pytest.approx(
            float((alice[idx] != bob[idx]).mean())
        )

    def test_sample_rate_is_unbiased(self):
        n, p = 20_000, 0.05
        alice = _random_bits(11, n)
        flips = np.random.default_rng(13).random(n) < p
        bob = alice ^ flips.astype(np.uint8)
        result = estimate_error_rate(
            alice, bob, disclose_fraction=0.1,
            rng=np.random.default_rng(12),
        )
        sigma = math.sqrt(p * (1 - p) / result.n_disclosed)
        assert abs(result.error_rate - p) < 3 * sigma

    def test_empty_keys_rejected(self):
        empty = np.zeros(0, dtype=np.uint8)
        with pytest.raises(InsufficientStatisticsError, match="empty"):
            estimate_error_rate(empty, empty)

    def test_fraction_bounds(self):
        bits = _random_bits(7, 10)
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(ParameterError, match="disclose_fraction"):
                estimate_error_rate(bits, bits, disclose_fraction=bad)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="equal length"):
            estimate_error_rate(
                np.zeros(4, np.uint8), np.zeros(5, np.uint8)
            )


# ---------------------------------------------------------------------------
# reconciliation
# ---------------------------------------------------------------------------

# The straightforward per-level implementation of ``reconcile``, kept
# verbatim (with its two helpers) as the oracle for the batched one: every
# binary-search level is its own numpy reduction and the first pass runs
# through the same queue as the later ones.

def _initial_block_size(n: int, qber_estimate: float) -> int:
    """Power-of-two block near 0.73/q, clamped to [2, n/2]."""
    cap = 2 ** max(1, int(math.floor(math.log2(max(n, 4) / 2))))
    target = 0.73 / max(qber_estimate, 1.0 / n)
    size = 2 ** max(1, math.ceil(math.log2(min(target, cap))))
    return min(size, cap)


def _block_parity(diff: np.ndarray, order: np.ndarray, lo: int, hi: int) -> int:
    return int(np.bitwise_xor.reduce(diff[order[lo:hi]])) if hi > lo else 0


def _reference_reconcile(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    qber_estimate: float,
    rng: np.random.Generator | None = None,
    max_passes: int = 25,
    shuffle_first_pass: bool = False,
) -> tuple[np.ndarray, int]:
    """Correct ``bob_bits`` toward ``alice_bits`` by parity exchange.

    Multi-pass blocked parity comparison with binary search inside
    mismatching blocks; every corrected bit re-opens the blocks covering
    it in earlier passes (whose stored parities flip), so error pairs
    masked in one pass are unwound by later ones.  Block sizes start near
    0.73 / qber_estimate and double each pass under a fresh shuffle; by
    default the first pass is unshuffled, so a single error is located
    directly (retries set ``shuffle_first_pass`` so a repeat run draws
    fresh blocks).

    Returns the corrected key and the number of parity bits disclosed
    (block parities plus one bit per binary-search level).  Terminates
    after the first pass whose top-level parities all agree — error
    pairs inside one block can survive that stop, which is why sessions
    follow up with ``verify`` — and raises ``ReconciliationError`` when
    mismatches persist past ``max_passes``, the signature of an
    underestimated error rate.
    """
    alice_bits = np.asarray(alice_bits, dtype=np.uint8)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8)
    _require(
        len(alice_bits) == len(bob_bits),
        "bob_bits",
        "keys must have equal length",
    )
    _require(
        0.0 <= qber_estimate <= 0.5,
        "qber_estimate",
        "must lie in [0, 0.5]",
    )
    n = len(alice_bits)
    if n == 0:
        return bob_bits.copy(), 0
    if rng is None:
        rng = np.random.default_rng()

    diff = np.bitwise_xor(alice_bits, bob_bits)
    corrected = bob_bits.copy()
    leaked = 0
    # per pass: bit order, block size, inverse order, stored parities
    orders: list[np.ndarray] = []
    sizes: list[int] = []
    inverses: list[np.ndarray] = []
    parities: list[np.ndarray] = []

    def search_block(pass_index: int, block: int) -> int:
        """Binary-search one odd block; returns the corrected position."""
        nonlocal leaked
        order = orders[pass_index]
        size = sizes[pass_index]
        lo = block * size
        hi = min(lo + size, n)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            leaked += 1  # transmitter discloses the left half's parity
            if _block_parity(diff, order, lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        return int(order[lo])

    def correct(position: int, source_pass: int) -> list[tuple[int, int]]:
        diff[position] ^= 1
        corrected[position] ^= 1
        reopened = []
        for q in range(len(orders)):
            block = int(inverses[q][position]) // sizes[q]
            parities[q][block] ^= 1  # both sides update known parities
            if q != source_pass and parities[q][block] == 1:
                reopened.append((q, block))
        return reopened

    total_corrections = 0
    block_size = _initial_block_size(n, qber_estimate)
    for pass_index in range(max_passes):
        if pass_index == 0 and not shuffle_first_pass:
            order = np.arange(n, dtype=np.int64)
        else:
            order = rng.permutation(n).astype(np.int64)
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.arange(n, dtype=np.int64)
        boundaries = np.arange(0, n, block_size)
        block_parities = np.bitwise_xor.reduceat(diff[order], boundaries)
        leaked += len(boundaries)

        orders.append(order)
        sizes.append(block_size)
        inverses.append(inverse)
        parities.append(block_parities.astype(np.uint8))

        queue = [
            (pass_index, int(b)) for b in np.nonzero(block_parities)[0]
        ]
        clean_pass = not queue
        while queue:
            q, block = queue.pop()
            if parities[q][block] == 0:
                continue  # already evened out by an earlier correction
            position = search_block(q, block)
            total_corrections += 1
            queue.extend(correct(position, q))
            # the searched block's parity flip is folded in by correct()

        if clean_pass:
            return corrected, leaked
        block_size = min(
            2 * block_size,
            2 ** max(1, int(math.floor(math.log2(max(n, 4) / 2)))),
        )
    raise ReconciliationError(
        f"parity reconciliation still finding errors after {max_passes} "
        f"passes ({total_corrections} corrected); the error-rate estimate "
        "was likely far too low"
    )


class TestReconcile:
    def test_error_free_keys_cost_one_parity_per_block(self):
        alice = _random_bits(5, 10_000)
        corrected, leaked = reconcile(
            alice, alice.copy(), 0.0065, rng=np.random.default_rng(6)
        )
        np.testing.assert_array_equal(corrected, alice)
        # initial block size 128 -> one clean pass of 79 block parities
        assert leaked == math.ceil(10_000 / 128) == 79

    def test_single_error_is_located_exactly(self):
        alice = _random_bits(5, 10_000)
        bob = alice.copy()
        bob[4321] ^= 1
        corrected, leaked = reconcile(
            alice, bob, 0.0065, rng=np.random.default_rng(6)
        )
        np.testing.assert_array_equal(corrected, alice)
        diff = np.flatnonzero(corrected != bob)
        np.testing.assert_array_equal(diff, [4321])
        # 79 first-pass parities + log2(128) search steps + a clean
        # confirming pass at doubled block size
        assert leaked == 79 + 7 + math.ceil(10_000 / 256) == 126

    def test_error_pair_hidden_in_one_block_needs_reshuffle(self):
        # two errors inside one initial block cancel in every parity, so
        # an unshuffled first pass terminates without fixing them; a
        # second call with a shuffled first pass separates the pair --
        # exactly the retry loop the session driver runs
        alice = _random_bits(55, 2048)
        bob = alice.copy()
        bob[3] ^= 1
        bob[7] ^= 1
        rng = np.random.default_rng(77)
        first, leaked_first = reconcile(
            alice, bob, 0.001, rng=rng, shuffle_first_pass=False
        )
        assert not np.array_equal(first, alice)
        assert leaked_first == 2
        second, leaked_second = reconcile(
            alice, first, 0.002, rng=rng, shuffle_first_pass=True
        )
        np.testing.assert_array_equal(second, alice)
        assert leaked_second == 24

    @pytest.mark.parametrize("error_rate", [0.002, 0.0065, 0.02])
    def test_leakage_stays_under_inefficiency_envelope(self, error_rate):
        n = 100_000
        for seed in range(3):
            alice = _random_bits(1000 + seed, n)
            flips = np.random.default_rng(3000 + seed).random(n)
            bob = alice ^ (flips < error_rate).astype(np.uint8)
            corrected, leaked = reconcile(
                alice, bob, error_rate,
                rng=np.random.default_rng(2000 + seed),
            )
            np.testing.assert_array_equal(corrected, alice)
            actual = float((bob != alice).mean())
            efficiency = leaked / (n * binary_entropy(actual))
            assert 0.95 < efficiency < 1.16 * 1.15

    def test_gross_underestimate_exhausts_pass_cap(self):
        alice = _random_bits(7, 4096)
        flips = np.random.default_rng(8).random(4096) < 0.5
        bob = alice ^ flips.astype(np.uint8)
        with pytest.raises(ReconciliationError, match="passes"):
            reconcile(
                alice, bob, 0.001,
                rng=np.random.default_rng(9), max_passes=1,
            )

    def test_empty_keys_leak_nothing(self):
        empty = np.zeros(0, dtype=np.uint8)
        corrected, leaked = reconcile(empty, empty, 0.01)
        assert len(corrected) == 0 and leaked == 0

    def test_argument_validation(self):
        bits = _random_bits(3, 16)
        with pytest.raises(ParameterError, match="equal length"):
            reconcile(bits, bits[:8], 0.01)
        with pytest.raises(ParameterError, match="qber_estimate"):
            reconcile(bits, bits, 0.6)

    @pytest.mark.parametrize("max_passes", [0, -3])
    def test_non_positive_pass_cap_is_parameter_error(self, max_passes):
        bits = _random_bits(3, 64)
        with pytest.raises(ParameterError, match="max_passes"):
            reconcile(bits, bits.copy(), 0.01, max_passes=max_passes)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(0, 5000),
        error_rate=st.floats(0.0, 0.2),
        qber_estimate=st.one_of(
            st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)
        ),
        shuffle_first_pass=st.booleans(),
        max_passes=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, error_rate=0.2, qber_estimate=0.0,
             shuffle_first_pass=False, max_passes=1, seed=0)
    @example(n=2, error_rate=0.2, qber_estimate=0.5,
             shuffle_first_pass=True, max_passes=3, seed=1)
    @example(n=1000, error_rate=0.05, qber_estimate=0.05,
             shuffle_first_pass=False, max_passes=25, seed=2)
    @example(n=5000, error_rate=0.2, qber_estimate=0.2,
             shuffle_first_pass=True, max_passes=25, seed=3)
    @example(n=4999, error_rate=0.02, qber_estimate=0.001,
             shuffle_first_pass=True, max_passes=25, seed=4)
    def test_matches_reference_reconcile(
        self, n, error_rate, qber_estimate, shuffle_first_pass,
        max_passes, seed,
    ):
        # equal corrected key, equal leak and equal generator state
        # afterwards (sessions reuse one generator across rounds), or
        # ReconciliationError from both
        data = np.random.default_rng(seed)
        alice = data.integers(0, 2, n, dtype=np.uint8)
        bob = alice ^ (data.random(n) < error_rate).astype(np.uint8)
        options = dict(
            max_passes=max_passes, shuffle_first_pass=shuffle_first_pass
        )
        expected_rng = np.random.default_rng(seed + 1)
        actual_rng = np.random.default_rng(seed + 1)
        try:
            expected = _reference_reconcile(
                alice, bob, qber_estimate, rng=expected_rng, **options
            )
        except ReconciliationError:
            with pytest.raises(ReconciliationError):
                reconcile(alice, bob, qber_estimate, rng=actual_rng, **options)
        else:
            corrected, leaked = reconcile(
                alice, bob, qber_estimate, rng=actual_rng, **options
            )
            np.testing.assert_array_equal(corrected, expected[0])
            assert leaked == expected[1]
        assert (
            actual_rng.bit_generator.state == expected_rng.bit_generator.state
        )


# ---------------------------------------------------------------------------
# verification hashing
# ---------------------------------------------------------------------------

class TestVerify:
    def test_tag_length_scales_with_correctness_budget(self):
        assert verification_tag_length(1e-15) == 51
        assert verification_tag_length(2.0**-20) == 21
        assert verification_tag_length(0.5) == 2
        with pytest.raises(ParameterError, match="eps_cor"):
            verification_tag_length(1.0)

    @pytest.mark.parametrize("n", [0, 1, 64, 5000])
    def test_equal_keys_always_pass(self, n):
        bits = _random_bits(20 + n, n)
        assert verify(
            bits, bits.copy(), rng=np.random.default_rng(21)
        )

    def test_random_single_bit_flips_are_caught(self):
        # 20k random unequal pairs at a 21-bit tag: expected false
        # passes 2e4 * 2^-21 ~ 0.01, frozen seed observes none
        rng = np.random.default_rng(2718)
        collisions = 0
        for _ in range(20_000):
            alice = rng.integers(0, 2, 100, dtype=np.uint8)
            bob = alice.copy()
            bob[int(rng.integers(0, 100))] ^= 1
            collisions += verify(alice, bob, eps_cor=2.0**-20, rng=rng)
        assert collisions <= 1

    def test_hash_family_is_two_universal(self):
        # dual route: rebuild the windowed-parity hash directly and
        # count, over 1e6 random (seed-stream, key-difference) pairs,
        # how often a nonzero difference hashes to the zero tag -- by
        # linearity that is exactly the verify collision event; bound
        # 2^-21 per pair puts the expectation at 0.48
        rng = np.random.default_rng(31415)
        tag_len, n, trials = 21, 100, 1_000_000
        streams = rng.integers(
            0, 2, (trials, tag_len + n - 1), dtype=np.uint8
        )
        deltas = rng.integers(0, 2, (trials, n), dtype=np.uint8)[:, ::-1]
        nonzero = deltas.any(axis=1)
        alive = np.ones(trials, dtype=bool)
        for j in range(tag_len):
            parity = (
                np.bitwise_and(streams[:, j:j + n], deltas)
                .sum(axis=1, dtype=np.int64) & 1
            ).astype(bool)
            alive &= ~parity
        collisions = int((alive & nonzero).sum())
        assert collisions <= 4

    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="equal length"):
            verify(np.zeros(4, np.uint8), np.zeros(5, np.uint8))


# ---------------------------------------------------------------------------
# privacy amplification
# ---------------------------------------------------------------------------

def _dense_toeplitz_hash(bits: np.ndarray, out_len: int, seed: int):
    """Oracle: materialize the full Toeplitz matrix and multiply."""
    n = len(bits)
    stream = np.random.Generator(np.random.Philox(key=seed)).integers(
        0, 2, n + out_len - 1, dtype=np.uint8
    )
    rows = np.arange(out_len)[:, None]
    cols = np.arange(n)[None, :]
    matrix = stream[rows + n - 1 - cols]
    return ((matrix @ bits.astype(np.int64)) % 2).astype(np.uint8)


#: every 2^a 3^b 5^c up to 4000; FFT lengths are drawn from these
_SMOOTH_NUMBERS = sorted(
    2**a * 3**b * 5**c
    for a in range(12)
    for b in range(8)
    for c in range(6)
    if 2**a * 3**b * 5**c <= 4000
)
#: the ones between 100 and 3000, where the hash tests' lengths switch
_SMOOTH_LENGTHS = [size for size in _SMOOTH_NUMBERS if 100 <= size <= 3000]


class TestPrivacyAmplify:
    def test_argument_validation(self):
        bits = _random_bits(30, 100)
        with pytest.raises(ParameterError, match="final_length"):
            privacy_amplify(bits, 101, 1)
        with pytest.raises(ParameterError, match="final_length"):
            privacy_amplify(bits, -1, 1)
        with pytest.raises(ParameterError, match="seed"):
            privacy_amplify(bits, 10, -1)
        with pytest.raises(ParameterError, match="seed"):
            privacy_amplify(bits, 10, 2**64)

    def test_zero_length_gives_empty_key(self):
        out = privacy_amplify(_random_bits(31, 50), 0, 9)
        assert out.dtype == np.uint8 and len(out) == 0

    def test_deterministic_in_key_and_seed(self):
        bits = _random_bits(32, 400)
        first = privacy_amplify(bits, 128, 777)
        second = privacy_amplify(bits, 128, 777)
        other = privacy_amplify(bits, 128, 778)
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, other)

    @pytest.mark.parametrize(
        "n,out_len,seed",
        [
            (300, 48, 987654321),   # direct windowed-parity route
            (300, 80, 987654321),   # convolution route
            (5000, 700, 123456789),
        ],
    )
    def test_matches_dense_matrix_oracle(self, n, out_len, seed):
        bits = _random_bits(44 + n, n)
        np.testing.assert_array_equal(
            privacy_amplify(bits, out_len, seed),
            _dense_toeplitz_hash(bits, out_len, seed),
        )

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle_across_routes(self, data):
        # short tags take the row path, longer ones the FFT path; the FFT
        # length is the smallest 2^a 3^b 5^c at least n + out_len - 1, so
        # lengths landing on such a number and one past it are both drawn
        out_len = data.draw(
            st.one_of(
                st.integers(1, 2 * _ROW_PATH_MAX_TAG),
                st.integers(1, 600),
            )
        )
        exact = data.draw(st.sampled_from(_SMOOTH_LENGTHS))
        n = data.draw(
            st.one_of(
                st.integers(out_len, 3000),
                st.sampled_from([exact - out_len + 1, exact - out_len + 2]),
            ).filter(lambda n: out_len <= n <= 3000)
        )
        seed = data.draw(st.integers(0, 2**64 - 1))
        bits = np.random.default_rng(seed % 2**32).integers(
            0, 2, n, dtype=np.uint8
        )
        np.testing.assert_array_equal(
            privacy_amplify(bits, out_len, seed),
            _dense_toeplitz_hash(bits, out_len, seed),
        )

    def test_fft_length_is_the_next_5_smooth_number(self):
        for target in range(1, 3001):
            expected = next(size for size in _SMOOTH_NUMBERS if size >= target)
            assert keygen._fft_length(target) == expected, target

    def test_key_longer_than_one_fft_segment(self):
        # the FFT path convolves at most 2^20 key bits at a time; spot
        # check rows of a two-segment key against their direct parities
        n, out_len, seed = 2**20 + 37, 300, 55
        bits = _random_bits(56, n)
        stream = np.random.Generator(np.random.Philox(key=seed)).integers(
            0, 2, n + out_len - 1, dtype=np.uint8
        )
        out = privacy_amplify(bits, out_len, seed)
        signal = bits[::-1].astype(np.int64)
        for j in (0, 1, 150, out_len - 1):
            assert out[j] == int(stream[j : j + n] @ signal) & 1

    def test_hash_is_linear_in_the_key(self):
        for out_len in (64, 100):  # both evaluation routes
            x = _random_bits(50, 500)
            y = _random_bits(51, 500)
            combined = privacy_amplify(x ^ y, out_len, 4242)
            np.testing.assert_array_equal(
                combined,
                privacy_amplify(x, out_len, 4242)
                ^ privacy_amplify(y, out_len, 4242),
            )

    def test_collision_rate_respects_two_universality(self):
        # nonzero key differences hashed to 16 bits: expectation over
        # 1e5 trials is 1.53 collisions, bound mean + 3 sigma rounds
        # up to 8; the frozen seed observes 5
        rng = np.random.default_rng(3000)
        collisions = 0
        for _ in range(100_000):
            delta = rng.integers(0, 2, 200, dtype=np.uint8)
            if not delta.any():
                continue
            out = privacy_amplify(
                delta, 16, int(rng.integers(0, 2**63))
            )
            collisions += not out.any()
        assert collisions <= 8

    def test_output_bits_look_uniform(self):
        # monobit and runs statistics over 1e6 amplified bits
        chunks = []
        for k in range(50):
            key = _random_bits(4000 + k, 40_000)
            chunks.append(privacy_amplify(key, 20_000, 5000 + k))
        bits = np.concatenate(chunks)
        n = len(bits)
        ones = int(bits.sum())
        z_monobit = abs(ones - n / 2) / math.sqrt(n / 4)
        assert z_monobit < 3.5
        runs = 1 + int((bits[1:] != bits[:-1]).sum())
        ratio = ones / n
        z_runs = abs(runs - 2 * n * ratio * (1 - ratio)) / (
            2 * math.sqrt(n) * ratio * (1 - ratio)
        )
        assert z_runs < 3.5


# ---------------------------------------------------------------------------
# session policy and ledger
# ---------------------------------------------------------------------------

class TestPolicyAndLedger:
    def test_policy_defaults(self):
        policy = SessionPolicy()
        assert policy.disclose_fraction == pytest.approx(0.10)
        assert policy.max_verify_rounds == 8

    def test_policy_validation(self):
        with pytest.raises(ParameterError, match="disclose_fraction"):
            SessionPolicy(disclose_fraction=0.0)
        with pytest.raises(ParameterError, match="qber_floor"):
            SessionPolicy(qber_floor=0.6)
        with pytest.raises(ParameterError, match="max_reconcile_passes"):
            SessionPolicy(max_reconcile_passes=0)
        with pytest.raises(ParameterError, match="max_verify_rounds"):
            SessionPolicy(max_verify_rounds=0)

    @staticmethod
    def _ledger(**overrides):
        fields = dict(
            n_sent=1000,
            clock_rate=228e6,
            raw_z=100,
            raw_x=90,
            disclosed_bits=9,
            estimation_discards=81,
            observed_error_x=0.0,
            corrected_errors=1,
            reconciliation_leak=20,
            verification_bits=51,
            verify_rounds=1,
            pa_seed=12345,
            final_length=30,
            pa_shortening=80,
        )
        fields.update(overrides)
        return KeySessionLedger(**fields)

    def test_ledger_accepts_closed_identity(self):
        ledger = self._ledger()
        assert ledger.final_length == 30

    def test_ledger_rejects_open_identity(self):
        with pytest.raises(ParameterError, match="identity"):
            self._ledger(pa_shortening=79)

    def test_ledger_rejects_negative_final_length(self):
        with pytest.raises(ParameterError, match="final_length"):
            self._ledger(final_length=-1, pa_shortening=111)

    def test_ledger_rejects_estimation_mismatch(self):
        with pytest.raises(ParameterError, match="estimation"):
            self._ledger(estimation_discards=80)

    def test_ledger_rejects_final_longer_than_raw(self):
        with pytest.raises(ParameterError, match="final_length"):
            self._ledger(final_length=101, pa_shortening=9)

    def test_ledger_json_round_trip(self):
        ledger = self._ledger()
        decoded = json.loads(json.dumps(ledger.as_dict()))
        assert decoded == ledger.as_dict()
        assert decoded["final_length"] == 30
        assert decoded["clock_rate_hz"] == pytest.approx(228e6)


# ---------------------------------------------------------------------------
# end-to-end sessions
# ---------------------------------------------------------------------------

class TestRunSession:
    def test_frozen_session_ledger(self, session_10db):
        _, result = session_10db
        ledger = result.ledger
        assert ledger.n_sent == 2_000_000
        assert ledger.raw_z == 2372
        assert ledger.raw_x == 2350
        assert ledger.disclosed_bits == 235
        assert ledger.estimation_discards == 2350 - 235
        assert ledger.observed_error_x == 0.0
        assert ledger.corrected_errors == 1
        assert ledger.reconciliation_leak == 16
        assert ledger.verification_bits == 51
        assert ledger.verify_rounds == 1
        assert ledger.final_length == 329
        assert ledger.pa_shortening == 4091

    def test_keys_are_identical_and_sized(self, session_10db):
        _, result = session_10db
        assert len(result.alice_key) == result.ledger.final_length
        np.testing.assert_array_equal(result.alice_key, result.bob_key)

    def test_rates_follow_from_ledger(self, session_10db):
        _, result = session_10db
        assert result.skb_per_pulse == pytest.approx(329 / 2_000_000)
        assert result.skr_bits_per_second == pytest.approx(
            result.skb_per_pulse * 228e6
        )

    def test_session_is_deterministic(self, session_10db):
        scenario, result = session_10db
        again = run_session(scenario)
        assert again.ledger.as_dict() == result.ledger.as_dict()
        np.testing.assert_array_equal(again.alice_key, result.alice_key)

    def test_transcript_covers_every_stage(self, session_10db):
        _, result = session_10db
        stages = [stage for stage, _ in result.transcript]
        assert stages[0] == "estimation"
        assert stages[-1] == "amplification"
        assert stages.count("reconciliation") == result.ledger.verify_rounds
        assert stages.count("verification") == result.ledger.verify_rounds
        sizes = dict(result.transcript)
        assert sizes["estimation"] == 2 * result.ledger.disclosed_bits
        assert sizes["verification"] == 2 * result.ledger.verification_bits

    def test_finite_report_reproducible_from_ledger(self, session_10db):
        scenario, result = session_10db
        ledger = result.ledger
        point = scenario.operating_point
        block = FiniteBlockInput(
            n_x=ledger.disclosed_bits,
            n_z=ledger.raw_z,
            observed_error_x=ledger.observed_error_x,
            observed_error_z=ledger.corrected_errors / ledger.raw_z,
            n_sent=ledger.n_sent,
            budget=point.budget,
            f_ec=point.protocol.error_correction_inefficiency,
            clock_rate=point.protocol.clock_rate,
            acquisition_time=ledger.n_sent / point.protocol.clock_rate,
            multiphoton_prob=multiphoton_bound(point),
        )
        oracle = finite_skb_per_pulse(
            block, lambda_ec=float(ledger.reconciliation_leak)
        )
        assert oracle.final_key_length == (
            result.finite_report.final_key_length
        )
        assert oracle.skb_per_pulse == pytest.approx(
            result.finite_report.skb_per_pulse
        )

    def test_verify_retry_recovers_hidden_error_pairs(self):
        # this seed leaves an error pair parity-hidden in round one; the
        # driver reshuffles, doubles the assumed error rate, charges the
        # failed tag, and converges in round two
        result = run_session(
            Scenario(
                operating_point=OperatingPoint().with_loss(10.0),
                n_pulses=2_000_000,
                seed=931,
            )
        )
        ledger = result.ledger
        assert ledger.verify_rounds == 2
        assert ledger.corrected_errors == 2
        assert ledger.final_length == 262
        # the failed round's tag is part of the measured leak
        assert ledger.reconciliation_leak >= ledger.verification_bits
        np.testing.assert_array_equal(result.alice_key, result.bob_key)

    def test_unequal_keys_are_amplified_separately(self, monkeypatch):
        # a verification that passes on unequal keys (a hash collision)
        # must still hash each side's own key
        scenario = Scenario(
            operating_point=OperatingPoint().with_loss(10.0),
            n_pulses=2_000_000,
            seed=900,
        )
        genuine = keygen.reconcile
        bob_inputs = []

        def reconcile_leaving_one_error(*args, **kwargs):
            corrected, leaked = genuine(*args, **kwargs)
            corrected = corrected.copy()
            corrected[0] ^= 1
            bob_inputs.append(corrected)
            return corrected, leaked

        monkeypatch.setattr(keygen, "reconcile", reconcile_leaving_one_error)
        monkeypatch.setattr(keygen, "verify", lambda *a, **k: True)
        result = run_session(scenario)
        ledger = result.ledger
        assert ledger.final_length > 0
        alice, stream = simulate_run(scenario)
        z_key, _ = sift(alice, stream)
        alice_z = alice.bits_at(z_key.indices)
        (bob_z,) = bob_inputs
        assert not np.array_equal(bob_z, alice_z)
        np.testing.assert_array_equal(
            result.alice_key,
            privacy_amplify(alice_z, ledger.final_length, ledger.pa_seed),
        )
        np.testing.assert_array_equal(
            result.bob_key,
            privacy_amplify(bob_z, ledger.final_length, ledger.pa_seed),
        )
        assert not np.array_equal(result.alice_key, result.bob_key)

    def test_beyond_loss_tolerance_yields_empty_key(self):
        result = run_session(
            Scenario(
                operating_point=OperatingPoint().with_loss(32.0),
                n_pulses=2_000_000,
                seed=901,
            )
        )
        assert result.ledger.final_length == 0
        assert len(result.alice_key) == 0
        assert len(result.bob_key) == 0
        assert not result.finite_report.positive
        assert result.skb_per_pulse == 0.0

    def test_disclose_fraction_policy_is_honoured(self):
        result = run_session(
            Scenario(
                operating_point=OperatingPoint().with_loss(10.0),
                n_pulses=2_000_000,
                seed=900,
            ),
            policy=SessionPolicy(disclose_fraction=0.2),
        )
        ledger = result.ledger
        assert ledger.disclosed_bits == round(0.2 * ledger.raw_x)

    def test_no_clicks_aborts_at_sifting(self):
        point = OperatingPoint().with_loss(300.0)
        point = replace(
            point, link=replace(point.link, dark_count_prob=0.0)
        )
        with pytest.raises(SessionAbort, match="sifting") as excinfo:
            run_session(
                Scenario(
                    operating_point=point, n_pulses=100_000, seed=1
                )
            )
        assert excinfo.value.stage == "sifting"
