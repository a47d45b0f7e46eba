"""End-to-end secret-key generation from labeled detection streams.

The pipeline turns one simulated acquisition into keys: basis sifting,
parameter-estimation disclosure, interactive parity reconciliation,
verification hashing, and Toeplitz privacy amplification, with every
classical-channel message size accounted so the measured leakage (not a
model) feeds the finite-size extractable-length formula.

Bit conventions match the detector channels: within each basis the first
port (H or D) encodes 0 and the second (V or A) encodes 1.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .finitekey import (
    FiniteBlockInput,
    FiniteKeyReport,
    finite_skb_per_pulse,
)
from .keyrate import multiphoton_bound
from .montecarlo import (
    AliceRecord,
    Scenario,
    TagStream,
    _philox,
    simulate_run,
)
from .params import _require
from .tagproc import InsufficientStatisticsError

__all__ = [
    "EstimateResult",
    "KeySessionLedger",
    "ReconciliationError",
    "SessionAbort",
    "SessionPolicy",
    "SessionResult",
    "SiftedKey",
    "estimate_error_rate",
    "privacy_amplify",
    "reconcile",
    "run_session",
    "sift",
    "verification_tag_length",
    "verify",
]

#: spawn-key prefix separating session-stage generators from the
#: simulator's per-chunk generators, which spawn on a single index
_SESSION_SPAWN = 0x5E5510


class ReconciliationError(RuntimeError):
    """Parity reconciliation failed to converge within the pass cap.

    Usually means the error-rate estimate fed to ``reconcile`` was far
    below the real error rate, so the initial blocks hide most errors.
    """


class SessionAbort(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


# ---------------------------------------------------------------------------
# sifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SiftedKey:
    """Receiver-side key bits for one basis after sifting.

    ``indices`` are the originating pulse windows, strictly increasing;
    the transmitter's matching bits are recoverable as
    ``alice.bits_at(key.indices)``.
    """

    basis: str
    bits: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        _require(self.basis in ("Z", "X"), "basis", "must be 'Z' or 'X'")
        bits = np.asarray(self.bits, dtype=np.uint8)
        indices = np.asarray(self.indices, dtype=np.int64)
        _require(
            len(bits) == len(indices),
            "bits",
            "bits and indices must have equal length",
        )
        _require(
            bool((bits <= 1).all()), "bits", "bits must be 0 or 1"
        )
        if len(indices) > 1:
            _require(
                bool((np.diff(indices) > 0).all()),
                "indices",
                "pulse indices must be strictly increasing",
            )
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.bits)


def sift(
    alice: AliceRecord, detections: TagStream
) -> tuple[SiftedKey, SiftedKey]:
    """Split detections into matched-basis keys, one bit per pulse window.

    Only the earliest tag of each pulse window is kept (later tags are
    dead-time survivors or tail spill), and only windows where the
    receiver's measured basis equals the transmitter's preparation basis
    contribute a bit.  The tags must be time-sorted, as ``TagStream``
    holds them.
    """
    windows = detections.window_index()
    valid = (windows >= 0) & (windows < alice.n_pulses)
    windows = windows[valid]
    channels = detections.channel[valid]
    # each window's first tag starts a run of equal window indices
    step = np.diff(windows, prepend=-1)
    _require(
        bool((step >= 0).all()), "detections", "tags must be time-sorted"
    )
    first = np.flatnonzero(step)
    kept_windows = windows[first]
    kept_channels = channels[first]

    bob_basis = kept_channels >> 1
    matched = bob_basis == alice.bases_at(kept_windows)

    keys = []
    for code, name in ((0, "Z"), (1, "X")):
        # integer positions: one mask scan, then cheap gathers
        select = np.flatnonzero(matched & (bob_basis == code))
        keys.append(
            SiftedKey(
                basis=name,
                bits=(kept_channels[select] & 1).astype(np.uint8),
                indices=kept_windows[select],
            )
        )
    return keys[0], keys[1]


# ---------------------------------------------------------------------------
# parameter estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EstimateResult:
    """Observed error rate of a disclosed sample, plus the kept remainder."""

    error_rate: float
    n_disclosed: int
    alice_remaining: np.ndarray
    bob_remaining: np.ndarray
    disclosed_indices: np.ndarray


def estimate_error_rate(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    disclose_fraction: float = 0.10,
    rng: np.random.Generator | None = None,
) -> EstimateResult:
    """Disclose a uniform random sample and measure its mismatch fraction.

    Disclosed positions are removed from both returned keys.  A fraction
    of 1 discloses everything (the remainder is then empty).
    """
    alice_bits = np.asarray(alice_bits, dtype=np.uint8)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8)
    _require(
        len(alice_bits) == len(bob_bits),
        "bob_bits",
        "keys must have equal length",
    )
    _require(
        0.0 < disclose_fraction <= 1.0,
        "disclose_fraction",
        "must lie in (0, 1]",
    )
    n = len(alice_bits)
    if n == 0:
        raise InsufficientStatisticsError(
            "parameter-estimation sample is empty"
        )
    if rng is None:
        rng = np.random.default_rng()
    n_disclosed = min(n, max(1, int(round(disclose_fraction * n))))
    positions = np.sort(rng.choice(n, size=n_disclosed, replace=False))
    mismatches = int(
        (alice_bits[positions] != bob_bits[positions]).sum()
    )
    keep = np.ones(n, dtype=bool)
    keep[positions] = False
    return EstimateResult(
        error_rate=mismatches / n_disclosed,
        n_disclosed=n_disclosed,
        alice_remaining=alice_bits[keep],
        bob_remaining=bob_bits[keep],
        disclosed_indices=positions,
    )


# ---------------------------------------------------------------------------
# reconciliation (interactive parity exchange)
# ---------------------------------------------------------------------------

def _initial_block_size(n: int, qber_estimate: float) -> int:
    """Power-of-two block near 0.73/q, clamped to [2, n/2]."""
    cap = 2 ** max(1, int(math.floor(math.log2(max(n, 4) / 2))))
    target = 0.73 / max(qber_estimate, 1.0 / n)
    size = 2 ** max(1, math.ceil(math.log2(min(target, cap))))
    return min(size, cap)


def _search_first_pass(
    shuffled: np.ndarray, odd_blocks: np.ndarray, size: int
) -> tuple[np.ndarray, int]:
    """Binary-search every odd first-pass block at once.

    ``shuffled`` is the error pattern in pass order.  Returns the
    pass-order offset of the error each search lands on and the number
    of half-block parities disclosed: one per halving of each block, so
    a short last block costs fewer.
    """
    n = len(shuffled)
    prefix = np.zeros(n + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(shuffled, out=prefix[1:])
    lo = odd_blocks * size
    hi = np.minimum(lo + size, n)
    disclosed = 0
    while True:
        open_blocks = np.count_nonzero(hi - lo > 1)
        if open_blocks == 0:
            return lo, disclosed
        disclosed += open_blocks
        # a closed block (hi == lo + 1) has mid == lo and stays put
        mid = (lo + hi) >> 1
        left_odd = prefix[mid] != prefix[lo]
        hi = np.where(left_odd, mid, hi)
        lo = np.where(left_odd, lo, mid)


def reconcile(
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
    mismatches persist past ``max_passes`` (which must be at least 1),
    the signature of an underestimated error rate.

    Nothing can reopen a first-pass block, since no earlier pass exists,
    so all odd first-pass blocks are searched together over one
    prefix-XOR of the error pattern.  Later passes keep the queue: the
    most recently opened block is searched first, and each correction
    reopens the blocks of other passes whose stored parity it makes odd.
    The result, the leak and the draws from ``rng`` are those of
    searching every block one at a time in that order.
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
    _require(max_passes >= 1, "max_passes", "must be >= 1")
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
        start = block * sizes[pass_index]
        segment = order[start : start + sizes[pass_index]]
        # offsets of the block's errors; [first, last) of them lie in
        # [lo, hi), and a half's parity is the count of its errors
        errors = diff[segment].nonzero()[0].tolist()
        first, last = 0, len(errors)
        lo, hi = 0, len(segment)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            leaked += 1  # transmitter discloses the left half's parity
            split = bisect_left(errors, mid, first, last)
            if (split - first) & 1:
                hi, last = mid, split
            else:
                lo, first = mid, split
        return int(segment[lo])

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
        shuffled = diff[order]
        boundaries = np.arange(0, n, block_size)
        block_parities = np.bitwise_xor.reduceat(shuffled, boundaries)
        leaked += len(boundaries)

        orders.append(order)
        sizes.append(block_size)
        inverses.append(inverse)
        parities.append(block_parities.astype(np.uint8))

        odd_blocks = np.flatnonzero(block_parities)
        clean_pass = len(odd_blocks) == 0
        if pass_index == 0:
            found, disclosed = _search_first_pass(
                shuffled, odd_blocks, block_size
            )
            leaked += disclosed
            total_corrections += len(odd_blocks)
            positions = order[found]
            diff[positions] ^= 1
            corrected[positions] ^= 1
            parities[0][odd_blocks] = 0
            queue = []
        else:
            queue = [(pass_index, block) for block in odd_blocks.tolist()]
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


# ---------------------------------------------------------------------------
# universal hashing (verification and privacy amplification)
# ---------------------------------------------------------------------------

#: tags at most this long are computed directly; longer outputs use FFT
_ROW_PATH_MAX_TAG = 64

#: the FFT path convolves at most this many key bits at a time
_FFT_SEGMENT_BITS = 1 << 20


def _fft_length(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= ``target``, a length the FFT handles fast."""
    best = 1 << (target - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            # the smallest power of two p with odd * p >= target
            quotient = -(-target // odd)
            best = min(best, odd << (quotient - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def _fft_window(
    bits: np.ndarray, stream: np.ndarray, out_len: int
) -> np.ndarray:
    """FFT route of ``_toeplitz_hash`` for ``len(stream) == n + out_len - 1``.

    Entry j of the linear convolution of stream and bits, for j in
    [n - 1, n - 1 + out_len), picks up no wrapped term in a circular
    convolution of length >= len(stream), so that length suffices.
    """
    n = len(bits)
    size = _fft_length(len(stream))
    spectrum = np.fft.rfft(stream, size) * np.fft.rfft(bits, size)
    counts = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + out_len]
    return (np.rint(counts).astype(np.int64) & 1).astype(np.uint8)


def _toeplitz_hash(
    bits: np.ndarray, stream: np.ndarray, out_len: int
) -> np.ndarray:
    """Multiply a Toeplitz bit matrix (rows built from ``stream``) by bits.

    ``bits`` and ``stream`` are uint8 arrays of 0/1, and ``stream`` holds
    exactly n + out_len - 1 entries.  Row j of the matrix is
    ``stream[j + n - 1 - i]`` over columns i, so row j is a reversed
    window of the stream and the whole product is a slice of the linear
    convolution of the stream with the input.

    Short tags (verification) are the ``valid`` part of numpy's direct
    convolution in uint8, whose sums wrap modulo a power of two and so
    keep their parity.  Long outputs (privacy amplification) convolve key
    segments of at most 2^20 bits by FFT, each against its own stream
    window, and XOR the results.  A segment's counts are integers of at
    most 2^20, and the FFT's rounding error is far below the 0.5 that
    ``rint`` absorbs: for a transform of length N the error is at most
    about 13 log2(N) 2^-53 |a| |b| (Percival, Math. Comp. 72, 387
    (2003)), with |a| <= 2^10 for a segment and |b| <= sqrt(N) for the
    stream window, which stays below 10^-4 for every N < 2^40.  Both
    paths are exact.
    """
    n = len(bits)
    if out_len == 0:
        return np.zeros(0, dtype=np.uint8)
    if n == 0:
        return np.zeros(out_len, dtype=np.uint8)
    if out_len <= _ROW_PATH_MAX_TAG:
        return np.convolve(stream, bits, mode="valid") & 1
    result = np.zeros(out_len, dtype=np.uint8)
    for start in range(0, n, _FFT_SEGMENT_BITS):
        segment = bits[start : start + _FFT_SEGMENT_BITS]
        # columns [start, start + len(segment)) read the stream from here on
        offset = n - start - len(segment)
        window = stream[offset : offset + len(segment) + out_len - 1]
        result ^= _fft_window(segment, window, out_len)
    return result


def verification_tag_length(eps_cor: float) -> int:
    """Hash-tag length giving collision probability <= ``eps_cor``."""
    _require(0.0 < eps_cor < 1.0, "eps_cor", "must lie in (0, 1)")
    return math.ceil(math.log2(2.0 / eps_cor))


def verify(
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    eps_cor: float = 1e-15,
    rng: np.random.Generator | None = None,
) -> bool:
    """Compare Toeplitz hash tags of the two keys under a fresh seed.

    Equal keys always pass; unequal keys pass with probability at most
    2**-tag_length <= eps_cor, the two-universal collision bound.  The
    hash is linear, so the tags agree exactly when the tag of the keys'
    XOR is zero, and that is what is computed.
    """
    alice_bits = np.asarray(alice_bits, dtype=np.uint8)
    bob_bits = np.asarray(bob_bits, dtype=np.uint8)
    _require(
        len(alice_bits) == len(bob_bits),
        "bob_bits",
        "keys must have equal length",
    )
    n = len(alice_bits)
    if n == 0:
        return True
    if rng is None:
        rng = np.random.default_rng()
    tag_len = verification_tag_length(eps_cor)
    stream = rng.integers(0, 2, size=tag_len + n - 1, dtype=np.uint8)
    difference = alice_bits ^ bob_bits
    # the tag of a zero difference is zero; skip hashing it
    if not difference.any():
        return True
    return not _toeplitz_hash(difference, stream, tag_len).any()


def privacy_amplify(
    key_bits: np.ndarray, final_length: int, seed: int
) -> np.ndarray:
    """Compress a verified key to ``final_length`` secret bits.

    Toeplitz hashing keyed by the first (n + final_length - 1) bits of a
    counter-based pseudorandom stream derived from ``seed``; the output
    is a pure function of (key, seed) on every platform.
    """
    key_bits = np.asarray(key_bits, dtype=np.uint8)
    n = len(key_bits)
    _require(final_length >= 0, "final_length", "must be non-negative")
    _require(
        final_length <= n,
        "final_length",
        "cannot exceed the input key length",
    )
    _require(0 <= seed < 2**64, "seed", "must fit in 64 bits")
    if final_length == 0:
        return np.zeros(0, dtype=np.uint8)
    stream_rng = np.random.Generator(np.random.Philox(key=seed))
    stream = stream_rng.integers(
        0, 2, size=n + final_length - 1, dtype=np.uint8
    )
    return _toeplitz_hash(key_bits, stream, final_length)


# ---------------------------------------------------------------------------
# full session
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SessionPolicy:
    """Classical post-processing knobs for one key session.

    ``max_verify_rounds`` bounds reconcile→verify repetitions: a failed
    verification means errors survived reconciliation (typically a pair
    masked inside one parity block), so the session reconciles again
    under fresh shuffles with a doubled error assumption, charging every
    extra disclosure to the leakage account.
    """

    disclose_fraction: float = 0.10
    qber_floor: float = 1e-3
    max_reconcile_passes: int = 25
    max_verify_rounds: int = 8

    def __post_init__(self) -> None:
        _require(
            0.0 < self.disclose_fraction <= 1.0,
            "disclose_fraction",
            "must lie in (0, 1]",
        )
        _require(
            0.0 < self.qber_floor <= 0.5,
            "qber_floor",
            "must lie in (0, 0.5]",
        )
        _require(
            self.max_reconcile_passes >= 1,
            "max_reconcile_passes",
            "must be >= 1",
        )
        _require(
            self.max_verify_rounds >= 1,
            "max_verify_rounds",
            "must be >= 1",
        )


@dataclass(frozen=True, slots=True)
class KeySessionLedger:
    """Exact bit accounting of one session.

    Every stage conserves key material: the estimation stage splits the
    diagonal-basis key into disclosed and discarded bits; amplification
    splits the rectilinear key into the final key and its shortening.
    ``pa_shortening`` is defined by the closing identity

        final = (raw_z + raw_x) - disclosed - reconciliation_leak
                - verification_bits - pa_shortening

    and the final length is never negative.  ``reconciliation_leak``
    counts information *about* the key sent over the classical channel —
    every disclosed parity plus the tag of any failed verification round
    — not key bits removed from it; ``verification_bits`` is the one
    succeeding tag, which the length formula charges separately.
    """

    n_sent: int
    clock_rate: float
    raw_z: int
    raw_x: int
    disclosed_bits: int
    estimation_discards: int
    observed_error_x: float
    corrected_errors: int
    reconciliation_leak: int
    verification_bits: int
    verify_rounds: int
    pa_seed: int
    final_length: int
    pa_shortening: int

    def __post_init__(self) -> None:
        _require(self.final_length >= 0, "final_length", "never negative")
        _require(
            self.raw_x == self.disclosed_bits + self.estimation_discards,
            "estimation_discards",
            "estimation stage must conserve the diagonal-basis key",
        )
        _require(
            self.final_length <= self.raw_z,
            "final_length",
            "cannot exceed the rectilinear-basis key",
        )
        identity = (
            self.raw_z
            + self.raw_x
            - self.disclosed_bits
            - self.reconciliation_leak
            - self.verification_bits
            - self.pa_shortening
        )
        _require(
            identity == self.final_length,
            "pa_shortening",
            "ledger identity must close exactly",
        )

    def as_dict(self) -> dict:
        return {
            "n_sent": self.n_sent,
            "clock_rate_hz": self.clock_rate,
            "raw_z": self.raw_z,
            "raw_x": self.raw_x,
            "disclosed_bits": self.disclosed_bits,
            "estimation_discards": self.estimation_discards,
            "observed_error_x": self.observed_error_x,
            "corrected_errors": self.corrected_errors,
            "reconciliation_leak": self.reconciliation_leak,
            "verification_bits": self.verification_bits,
            "verify_rounds": self.verify_rounds,
            "pa_seed": self.pa_seed,
            "final_length": self.final_length,
            "pa_shortening": self.pa_shortening,
        }


@dataclass(frozen=True, slots=True)
class SessionResult:
    """Keys, ledger, and finite-size evaluation of one session."""

    ledger: KeySessionLedger
    alice_key: np.ndarray
    bob_key: np.ndarray
    finite_report: FiniteKeyReport | None
    transcript: tuple[tuple[str, int], ...]

    @property
    def skb_per_pulse(self) -> float:
        return self.ledger.final_length / self.ledger.n_sent

    @property
    def skr_bits_per_second(self) -> float:
        return self.skb_per_pulse * self.ledger.clock_rate


def run_session(
    scenario: Scenario,
    policy: SessionPolicy = SessionPolicy(),
) -> SessionResult:
    """Run the full pipeline on one simulated acquisition.

    The rectilinear basis carries the key; the diagonal basis is the
    estimation basis, of which ``policy.disclose_fraction`` is revealed
    to bound the phase-error rate.  The measured reconciliation leak
    (not the inefficiency model) enters the extractable-length formula.
    A session beyond the loss tolerance returns an empty key with a
    complete ledger rather than raising.
    """
    alice, stream = simulate_run(scenario)
    z_key, x_key = sift(alice, stream)
    raw_z, raw_x = len(z_key), len(x_key)
    point = scenario.operating_point
    budget = point.budget
    protocol = point.protocol
    transcript: list[tuple[str, int]] = []

    if raw_z == 0 or raw_x == 0:
        raise SessionAbort(
            "sifting",
            f"no sifted bits in one basis (Z={raw_z}, X={raw_x}); "
            "increase the pulse budget",
        )
    # the transmitter's bits of both keys in one lookup of the record
    alice_bits = alice.bits_at(
        np.concatenate([z_key.indices, x_key.indices])
    )
    alice_z, alice_x = alice_bits[:raw_z], alice_bits[raw_z:]

    estimate = estimate_error_rate(
        alice_x,
        x_key.bits,
        policy.disclose_fraction,
        rng=_philox(scenario.seed, _SESSION_SPAWN, 0),
    )
    transcript.append(("estimation", 2 * estimate.n_disclosed))

    verification_bits = verification_tag_length(budget.eps_cor)
    reconcile_rng = _philox(scenario.seed, _SESSION_SPAWN, 1)
    verify_rng = _philox(scenario.seed, _SESSION_SPAWN, 2)
    corrected = z_key.bits
    assumed_qber = max(estimate.error_rate, policy.qber_floor)
    leak_total = 0
    verify_rounds = 0
    verified = False
    while verify_rounds < policy.max_verify_rounds:
        try:
            corrected, leaked = reconcile(
                alice_z,
                corrected,
                assumed_qber,
                rng=reconcile_rng,
                max_passes=policy.max_reconcile_passes,
                shuffle_first_pass=True,
            )
        except ReconciliationError as exc:
            raise SessionAbort("reconciliation", str(exc)) from exc
        leak_total += leaked
        transcript.append(("reconciliation", leaked))
        verify_rounds += 1
        transcript.append(("verification", 2 * verification_bits))
        if verify(alice_z, corrected, budget.eps_cor, rng=verify_rng):
            verified = True
            break
        # residual errors slipped through every parity block: charge the
        # spent tag, assume a worse channel, and reconcile again
        leak_total += verification_bits
        assumed_qber = min(0.5, 2.0 * assumed_qber)
    if not verified:
        raise SessionAbort(
            "verification",
            f"hash tags still differ after {verify_rounds} "
            "reconcile/verify rounds",
        )
    corrected_errors = int((corrected != z_key.bits).sum())

    block = FiniteBlockInput(
        n_x=estimate.n_disclosed,
        n_z=raw_z,
        observed_error_x=min(0.5, estimate.error_rate),
        observed_error_z=min(0.5, corrected_errors / raw_z),
        n_sent=scenario.n_pulses,
        budget=budget,
        f_ec=protocol.error_correction_inefficiency,
        clock_rate=protocol.clock_rate,
        acquisition_time=scenario.n_pulses / protocol.clock_rate,
        multiphoton_prob=multiphoton_bound(point),
    )
    report = finite_skb_per_pulse(block, lambda_ec=float(leak_total))
    final_length = min(report.final_key_length, raw_z)

    pa_rng = _philox(scenario.seed, _SESSION_SPAWN, 3)
    pa_seed = int(pa_rng.integers(0, 2**63))
    bob_final = privacy_amplify(corrected, final_length, pa_seed)
    if np.array_equal(corrected, alice_z):
        alice_final = bob_final.copy()  # a pure function of (key, seed)
    else:
        alice_final = privacy_amplify(alice_z, final_length, pa_seed)
    transcript.append(("amplification", 0))

    ledger = KeySessionLedger(
        n_sent=scenario.n_pulses,
        clock_rate=protocol.clock_rate,
        raw_z=raw_z,
        raw_x=raw_x,
        disclosed_bits=estimate.n_disclosed,
        estimation_discards=raw_x - estimate.n_disclosed,
        observed_error_x=estimate.error_rate,
        corrected_errors=corrected_errors,
        reconciliation_leak=leak_total,
        verification_bits=verification_bits,
        verify_rounds=verify_rounds,
        pa_seed=pa_seed,
        final_length=final_length,
        pa_shortening=(
            raw_z
            + raw_x
            - estimate.n_disclosed
            - leak_total
            - verification_bits
            - final_length
        ),
    )
    return SessionResult(
        ledger=ledger,
        alice_key=alice_final,
        bob_key=bob_final,
        finite_report=report,
        transcript=tuple(transcript),
    )
