"""Event-level simulation of the polarization-encoded BB84 link.

Generates labelled detection-time streams from the full physical chain —
pulsed sub-Poissonian emission, fibre loss, receiver optics, misalignment,
dark counts, and per-detector dead time — as the statistical ground truth
against which the analytic click and error model is checked.

Channel convention: detector ports H=0, V=1, D=2, A=3 and the electrical
sync channel ``CHANNEL_REFERENCE``=4.  Encoded states use the same 0-3
codes, so ``state >> 1`` is the basis (0 = rectilinear, 1 = diagonal) and
``state & 1`` the bit, i.e. H=Z0, V=Z1, D=X0, A=X1.

The generator is event-driven: it draws only the pulses that carry a
photon surviving the optical chain (geometric gaps between them, then
each event's photon configuration from its conditional law) and the dark
counts, so its cost and memory grow with detections, not with pulses.
One generator and one chunk driver serve both the BB84 receiver and the
two-detector intensity-correlation (HBT) setup.  Runs are partitioned
into pulse chunks sized to expect a fixed number of detections (photon
events plus dark counts), so a chunk carries the same work at any loss;
each chunk draws from its own counter-seeded Philox stream, so results
are bit-identical whichever order the chunks execute in.  A run of more
than one chunk spreads its chunks over a thread pool.

The transmitter record (``AliceRecord``) is sparse: it holds states only
for photon-carrying pulses and for the other windows that hold a tag.

Reference (sync) tags are exactly one per pulse at the nominal pulse time.
They are kept virtual — recomputed arithmetically rather than stored — so
billion-pulse runs stay in memory; file exports materialize them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ._table import read_table, write_table
from .params import OperatingPoint, ScenarioConfig, _require

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .tagproc import CorrelationHistogram

__all__ = [
    "CHANNEL_NAMES",
    "CHANNEL_REFERENCE",
    "AliceRecord",
    "Scenario",
    "SimulationSummary",
    "TagStream",
    "read_tags",
    "read_tags_csv",
    "simulate_g2_histogram",
    "simulate_run",
    "stream_statistics",
    "write_tags",
    "write_tags_csv",
]

CHANNEL_H, CHANNEL_V, CHANNEL_D, CHANNEL_A = 0, 1, 2, 3
CHANNEL_REFERENCE = 4
CHANNEL_NAMES = ("H", "V", "D", "A", "REF")
NO_TRUTH_STATE = 255

#: photon events plus dark counts a simulation chunk expects; chunk
#: lengths follow from it, so the fixed cost of a chunk (stream set-up,
#: numpy calls) is shared by this many detections at any loss
_CHUNK_EVENTS = 50_000

#: pulses per block of an exported tag file
_EXPORT_BLOCK_PULSES = 1_000_000

#: spawn key of the stream drawing states for tagged windows without a
#: photon event; two words, so it differs from every chunk key
#: ``(chunk_index,)``
_WINDOW_STATE_SPAWN = (0x57A7E5, 0)

#: sift windows open this many ps before the nominal pulse time, so that
#: detector jitter on prompt clicks cannot push them into the previous
#: window; late emission tails spilling past the next boundary remain and
#: are charged to the wrong pulse, exactly as a time-gated receiver would
WINDOW_GUARD_PS = 250.0

_RECORD_DTYPE = np.dtype(
    [("time_ps", "<i8"), ("channel", "u1"), ("flags", "u1")]
)
_FLAG_STATE_MASK = 0b0000_0011
_FLAG_PHOTONS_SHIFT = 2
_FLAG_PHOTONS_MASK = 0b0000_1100
_FLAG_DARK = 0b0001_0000
_FLAG_HAS_STATE = 0b0010_0000

_CSV_HEADER = ("time_ps", "channel", "truth_state", "truth_photons", "dark")
#: CSV cell parsers; the last three give their columns' bits of the flags
_CSV_PARSERS = (
    np.int64,
    {name: code for code, name in enumerate(CHANNEL_NAMES)}.__getitem__,
    (
        {"": 0}
        | {
            name: _FLAG_HAS_STATE | code
            for code, name in enumerate(CHANNEL_NAMES[:CHANNEL_REFERENCE])
        }
    ).__getitem__,
    {str(n): n << _FLAG_PHOTONS_SHIFT for n in range(4)}.__getitem__,
    {"0": 0, "1": _FLAG_DARK}.__getitem__,
)

#: row layout of an exported transmitter record
_ALICE_RECORD_DTYPE = np.dtype([("pulse", "<i8"), ("state", "u1")])


@dataclass(frozen=True, slots=True)
class Scenario:
    """One simulation run: an operating point plus its run settings.

    ``encoded_state`` of None means the transmitter picks states uniformly
    at random per pulse; a fixed 0-3 value statically encodes that state
    (used for truth-table characterization).
    """

    operating_point: OperatingPoint
    n_pulses: int
    seed: int
    jitter_sigma: float = 50.0
    encoded_state: int | None = None

    def __post_init__(self) -> None:
        _require(self.n_pulses >= 1, "n_pulses", "must be at least 1")
        _require(self.jitter_sigma >= 0.0, "jitter_sigma", "must be >= 0")
        _require(
            0 <= self.seed < 2**64, "seed", "must fit in 64 bits"
        )
        if self.encoded_state is not None:
            _require(
                self.encoded_state in (0, 1, 2, 3),
                "encoded_state",
                "must be one of 0 (H), 1 (V), 2 (D), 3 (A)",
            )
        span = self.n_pulses * self.operating_point.protocol.pulse_period_ps
        _require(
            span < 2**60,
            "n_pulses",
            "run duration overflows the picosecond time representation",
        )

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "Scenario":
        sim = config.simulation
        return cls(
            operating_point=config.point,
            n_pulses=sim.n_pulses,
            seed=sim.seed,
            jitter_sigma=sim.jitter_sigma,
            encoded_state=sim.encoded_state,
        )

    @property
    def period_ps(self) -> float:
        return self.operating_point.protocol.pulse_period_ps


def _lookup(
    sorted_keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``values`` in ``sorted_keys``, and which are present."""
    position = np.searchsorted(sorted_keys, values)
    if not len(sorted_keys):
        return position, np.zeros(np.shape(values), dtype=bool)
    # a value past the last key differs from that key, so clipping the
    # positions keeps it absent without a boolean-mask gather
    present = sorted_keys[np.minimum(position, len(sorted_keys) - 1)] == values
    return position, present


@dataclass(frozen=True, slots=True)
class AliceRecord:
    """Transmitter-side ground truth, held only where a tag can ask for it.

    ``indices`` are the pulses whose encoded state is recorded, strictly
    increasing, with their ``states`` (uint8 codes 0-3).  A simulated run
    records every pulse that carried a surviving photon and every other
    window holding a detector tag; the states of the remaining pulses
    never reach the receiver and are not drawn.  Look states up with
    ``states_at``, which raises for a pulse the record does not hold.
    """

    n_pulses: int
    indices: np.ndarray  # int64 pulse indices, strictly increasing
    states: np.ndarray  # uint8 codes 0-3, one per index

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        states = np.asarray(self.states, dtype=np.uint8)
        _require(
            len(indices) == len(states),
            "states",
            "indices and states must have equal length",
        )
        if len(indices):
            _require(
                bool(indices[0] >= 0 and indices[-1] < self.n_pulses),
                "indices",
                "pulse indices must lie in [0, n_pulses)",
            )
            _require(
                bool((np.diff(indices) > 0).all()),
                "indices",
                "pulse indices must be strictly increasing",
            )
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "states", states)

    def states_at(self, pulses: np.ndarray) -> np.ndarray:
        """Encoded states of the given pulses; KeyError if one is not held."""
        pulses = np.asarray(pulses, dtype=np.int64)
        position, held = _lookup(self.indices, pulses)
        if not held.all():
            missing = int(pulses[np.argmin(held)])
            raise KeyError(f"no transmitter state recorded for pulse {missing}")
        return self.states[position]

    def bases_at(self, pulses: np.ndarray) -> np.ndarray:
        """0 = rectilinear (Z), 1 = diagonal (X), per given pulse."""
        return self.states_at(pulses) >> 1

    def bits_at(self, pulses: np.ndarray) -> np.ndarray:
        return self.states_at(pulses) & 1

    def as_records(self) -> np.ndarray:
        """The record as a structured array of (pulse, state) rows."""
        records = np.empty(len(self.indices), dtype=_ALICE_RECORD_DTYPE)
        records["pulse"] = self.indices
        records["state"] = self.states
        return records


@dataclass(frozen=True, slots=True)
class TagStream:
    """Time-sorted detection tags plus the implicit reference channel.

    Arrays hold detector tags only (channels 0-3).  The reference channel
    fires once per pulse at the nominal pulse time ``round(i * period)``;
    it is synthesized on demand by exports and window arithmetic instead
    of being stored.  ``truth_state`` is 255 for tags with no originating
    pulse (dark counts).
    """

    time_ps: np.ndarray  # int64
    channel: np.ndarray  # uint8
    truth_state: np.ndarray  # uint8
    truth_photons: np.ndarray  # uint8
    dark: np.ndarray  # bool
    n_pulses: int
    period_ps: float

    def __len__(self) -> int:
        return len(self.time_ps)

    def reference_times(self, start: int, stop: int) -> np.ndarray:
        """Nominal sync times for pulses [start, stop), as int64 ps."""
        indices = np.arange(start, stop, dtype=np.int64)
        return np.rint(indices * self.period_ps).astype(np.int64)

    def window_index(self, guard_ps: float = WINDOW_GUARD_PS) -> np.ndarray:
        """Pulse window of each detector tag.

        Windows open ``guard_ps`` before the nominal pulse time (see
        module docstring); indices may fall outside [0, n_pulses) for
        clicks jittered past the run edges.
        """
        return np.floor(
            (self.time_ps + guard_ps) / self.period_ps
        ).astype(np.int64)


@dataclass(frozen=True, slots=True)
class SimulationSummary:
    """Ground-truth statistics of one run, for model cross-checks.

    ``click_fraction`` counts windows with at least one detector tag,
    matching the analytic per-pulse click probability.  ``truth_qber``
    scores, per clicked window, the earliest tag: photon tags against the
    state of their *origin* pulse (so late-tail spill is not
    misattributed), dark tags against the window's encoded state.
    """

    n_pulses: int
    n_tags: int
    n_dark_tags: int
    clicked_windows: int
    click_fraction: float
    matched_count: int
    error_count: int
    truth_qber: float
    basis_z_fraction: float


def _survival_probability(point: OperatingPoint) -> float:
    link = point.link
    return (
        link.transmitter_efficiency
        * link.channel_transmittance
        * link.receiver_chain_efficiency
    )


def _event_weights(point: OperatingPoint) -> np.ndarray:
    """Per-pulse probabilities of the three photon-event configurations.

    With survival probability ``s``: one photon emitted, p1 s; two
    emitted, one survives, 2 p2 s (1 - s); both survive, p2 s².  Their
    sum is the event probability q = p1 s + p2 (1 - (1 - s)²).
    """
    _, p1, p2 = point.source.photon_number_pmf()
    s = _survival_probability(point)
    return np.array([p1 * s, 2.0 * p2 * s * (1.0 - s), p2 * s * s])


def _philox(seed: int, *spawn_key: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(sequence))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_ranges(scenario: Scenario) -> list[tuple[int, int, int]]:
    """``(index, first pulse, pulse count)`` of every chunk of a run.

    Chunks are as long as it takes to expect ``_CHUNK_EVENTS`` photon
    events plus dark counts, the last one shorter; a run expecting no
    more than that, including one that expects none, is a single chunk.
    """
    point = scenario.operating_point
    rate = float(_event_weights(point).sum()) + point.link.dark_prob_total(
        point.protocol.clock_rate
    )
    n_pulses = scenario.n_pulses
    length = n_pulses
    # tested before dividing, so a vanishing rate cannot overflow
    if rate * n_pulses > _CHUNK_EVENTS:
        length = min(n_pulses, math.ceil(_CHUNK_EVENTS / rate))
    return [
        (index, start, min(length, n_pulses - start))
        for index, start in enumerate(range(0, n_pulses, length))
    ]


def _map_chunks(
    scenario: Scenario,
    generate: Callable[[Scenario, np.random.Generator, int, int], object],
) -> list:
    """Run ``generate(scenario, rng, start, count)`` per chunk, in order.

    Chunks come from ``_chunk_ranges``; chunk ``i`` draws from its own
    counter-seeded stream, so results do not depend on the number of
    threads or on the order chunks execute in.  Every chunk carries
    enough work for a pool, so a run of several chunks spreads them over
    every usable CPU.
    """
    ranges = _chunk_ranges(scenario)

    def run_chunk(args: tuple[int, int, int]):
        chunk_index, start, count = args
        rng = _philox(scenario.seed, chunk_index)
        return generate(scenario, rng, start, count)

    workers = min(_usable_cpus(), len(ranges))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_chunk, ranges))
    return [run_chunk(args) for args in ranges]


def _bernoulli_positions(
    rng: np.random.Generator, q: float, count: int
) -> np.ndarray:
    """Sorted positions in [0, count) of a Bernoulli(q) pulse process.

    Gaps between successive events are geometric, so only events cost
    draws.  Gaps are capped at ``count + 1``: any longer gap ends the
    chunk all the same, and the cap keeps the running sum from
    overflowing when ``q`` is tiny.
    """
    if q <= 0.0:
        return np.empty(0, dtype=np.int64)
    mean = count * q
    batch = int(mean + 5.0 * math.sqrt(mean)) + 16
    positions = np.cumsum(np.minimum(rng.geometric(q, batch), count + 1)) - 1
    while positions[-1] < count:
        gaps = np.minimum(rng.geometric(q, batch), count + 1)
        positions = np.concatenate([positions, positions[-1] + np.cumsum(gaps)])
    return positions[: np.searchsorted(positions, count)]


def _photon_events(
    scenario: Scenario, rng: np.random.Generator, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Surviving photons of one chunk, drawn event by event.

    An event is a pulse that carries at least one photon surviving the
    optical chain; each pulse is an event independently, with the
    probability q of ``_event_weights``.  Each event then takes one of the
    three configurations from their conditional law, and each survivor is
    stamped with emission decay plus detector jitter.  This is exactly
    the per-pulse law restricted to the pulses that can reach a detector.

    Returns the event pulse indices, photons emitted per event, the
    event of each surviving photon (an index into the first two), and
    each survivor's arrival time in ps.
    """
    point = scenario.operating_point
    weights = _event_weights(point)
    q = float(weights.sum())

    positions = _bernoulli_positions(rng, q, count)
    thresholds = np.cumsum(weights[:2]) / q if q > 0.0 else weights[:2]
    config = np.searchsorted(
        thresholds, rng.random(len(positions)), side="right"
    )
    photons = np.where(config == 0, 1, 2).astype(np.uint8)
    owner = np.repeat(
        np.arange(len(positions)), np.where(config == 2, 2, 1)
    )
    k = len(owner)
    delay = rng.exponential(point.source.lifetime, k)
    jitter = rng.normal(0.0, scenario.jitter_sigma, k) \
        if scenario.jitter_sigma > 0.0 else np.zeros(k)
    events = start + positions
    times = np.rint(
        events[owner] * scenario.period_ps + delay + jitter
    ).astype(np.int64)
    return events, photons, owner, times


def _dark_tags(
    scenario: Scenario,
    rng: np.random.Generator,
    start: int,
    count: int,
    detectors: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Dark-count times and detector ids for one chunk.

    Each detector fires Binomial(count, p_dark) times, uniformly over
    the chunk's time span.
    """
    point = scenario.operating_point
    p_dark = point.link.dark_prob_per_detector(point.protocol.clock_rate)
    n_dark = rng.binomial(count, p_dark, detectors)
    period = scenario.period_ps
    times = np.rint(
        start * period + rng.random(int(n_dark.sum())) * (count * period)
    ).astype(np.int64)
    return times, np.repeat(np.arange(detectors, dtype=np.uint8), n_dark)


def _bb84_chunk(
    scenario: Scenario, rng: np.random.Generator, start: int, count: int
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Event states and raw (unfiltered) detector tags of one chunk."""
    link = scenario.operating_point.link
    events, photons, owner, photon_times = _photon_events(
        scenario, rng, start, count
    )
    if scenario.encoded_state is None:
        states = rng.integers(0, 4, len(events), dtype=np.uint8)
    else:
        states = np.full(len(events), scenario.encoded_state, dtype=np.uint8)
    k = len(owner)
    bob_basis = rng.integers(0, 2, k, dtype=np.uint8)
    u_project = rng.random(k)
    u_flip = rng.random(k)

    photon_states = states[owner]
    # a photon measured in its own basis reads its encoded bit; in the
    # other basis it lands on either port with probability 1/2
    bit = np.where(
        bob_basis == photon_states >> 1, photon_states & 1, u_project < 0.5
    ).astype(np.uint8)
    bit ^= (u_flip < link.misalignment_prob).astype(np.uint8)

    dark_times, dark_channels = _dark_tags(
        scenario, rng, start, count, link.detector_count
    )
    n_dark = len(dark_times)
    tags = {
        "time_ps": np.concatenate([photon_times, dark_times]),
        "channel": np.concatenate([(bob_basis << 1) | bit, dark_channels]),
        "truth_state": np.concatenate(
            [photon_states, np.full(n_dark, NO_TRUTH_STATE, dtype=np.uint8)]
        ),
        "truth_photons": np.concatenate(
            [photons[owner], np.zeros(n_dark, dtype=np.uint8)]
        ),
        "dark": np.concatenate(
            [np.zeros(k, dtype=bool), np.ones(n_dark, dtype=bool)]
        ),
    }
    return events, states, tags


def _deadtime_keep_mask(
    time_ps: np.ndarray, channel: np.ndarray, dead_time_ps: float
) -> np.ndarray:
    """Greedy non-paralyzable dead-time filter, per detector channel.

    A tag at least one dead time after its predecessor on the channel is
    always kept, because the last kept tag is no later than that
    predecessor; the greedy scan therefore only visits tags closer than
    the dead time to their predecessor.
    """
    keep = np.ones(len(time_ps), dtype=bool)
    if dead_time_ps <= 0.0:
        return keep
    for detector in range(4):
        idx = np.flatnonzero(channel == detector)
        times = time_ps[idx]
        close = np.flatnonzero(np.diff(times) < dead_time_ps) + 1
        blocked = []
        last = -math.inf
        previous = -1
        for k, t, t_before in zip(
            close.tolist(), times[close].tolist(), times[close - 1].tolist()
        ):
            if k - 1 != previous:  # the predecessor was not close: kept
                last = t_before
            if t - last >= dead_time_ps:
                last = t
            else:
                blocked.append(k)
            previous = k
        keep[idx[blocked]] = False
    return keep


def _merge_sorted(
    chunks: list[dict[str, np.ndarray]], dead_time_ps: float
) -> dict[str, np.ndarray]:
    """Concatenate chunk tags, sort by (time, channel), apply dead time."""
    merged = {
        key: np.concatenate([chunk[key] for chunk in chunks])
        for key in chunks[0]
    }
    # with channels 0-3, time * 4 + channel orders as (time, channel) does
    # and stays in int64 (Scenario keeps runs below 2**60 ps); a stable
    # sort of that one key keeps ties in input order, as np.lexsort
    # would, at about a quarter of its cost
    order = np.argsort(
        merged["time_ps"] * 4 + merged["channel"], kind="stable"
    )
    keep = _deadtime_keep_mask(
        merged["time_ps"][order], merged["channel"][order], dead_time_ps
    )
    order = order[keep]
    return {key: values[order] for key, values in merged.items()}


def simulate_run(scenario: Scenario) -> tuple[AliceRecord, TagStream]:
    """Simulate the full transmitter-channel-receiver chain.

    Per pulse: the transmitter encodes a state and emits 0-2 photons;
    each photon independently survives the optical chain, picks a
    measurement basis at the 50:50 splitter, projects onto a port (with
    misalignment flips), and is stamped with emission decay plus detector
    jitter.  Only pulses with a surviving photon are generated (see
    ``_photon_events``).  Dark counts fire per detector per window.  A
    global per-detector dead-time filter then removes blocked clicks, and
    the surviving tags are returned time-sorted with ground-truth labels.

    The transmitter record holds the states of the photon-carrying
    pulses, drawn in their chunks, plus those of every other window the
    stream tags (dark counts, late-tail spill).  The latter are iid
    uniform, drawn after the dead-time filter from one dedicated stream
    in ascending window order, so the record is exact and independent of
    the order chunks run in.
    """
    results = _map_chunks(scenario, _bb84_chunk)
    tags = _merge_sorted(
        [r[2] for r in results],
        scenario.operating_point.link.dead_time * 1e3,
    )
    stream = TagStream(
        **tags, n_pulses=scenario.n_pulses, period_ps=scenario.period_ps
    )

    events = np.concatenate([r[0] for r in results])
    windows = stream.window_index()
    windows = windows[(windows >= 0) & (windows < stream.n_pulses)]
    # time-sorted tags have non-decreasing windows, all >= 0 here
    tagged = windows[np.diff(windows, prepend=-1) != 0]
    extra = tagged[~_lookup(events, tagged)[1]]
    if scenario.encoded_state is None:
        extra_states = _philox(scenario.seed, *_WINDOW_STATE_SPAWN).integers(
            0, 4, len(extra), dtype=np.uint8
        )
    else:
        extra_states = np.full(
            len(extra), scenario.encoded_state, dtype=np.uint8
        )
    indices = np.concatenate([events, extra])
    order = np.argsort(indices, kind="stable")
    states = np.concatenate([r[1] for r in results] + [extra_states])
    alice = AliceRecord(
        n_pulses=scenario.n_pulses,
        indices=indices[order],
        states=states[order],
    )
    return alice, stream


def stream_statistics(
    alice: AliceRecord, stream: TagStream
) -> SimulationSummary:
    """Ground-truth per-window statistics for analytic cross-checks."""
    n_pulses = stream.n_pulses
    windows = stream.window_index()
    valid = (windows >= 0) & (windows < n_pulses)

    w = windows[valid]
    first = np.unique(w, return_index=True)[1]  # earliest tag per window
    clicked = len(first)

    sel = np.flatnonzero(valid)[first]
    channel = stream.channel[sel]
    truth = stream.truth_state[sel]
    dark = stream.dark[sel]
    window_states = alice.states_at(windows[sel])
    # photon tags score against their origin pulse, darks against the
    # window they landed in (they have no origin)
    reference_state = np.where(dark, window_states, truth)
    matched = (channel >> 1) == (reference_state >> 1)
    errors = matched & ((channel & 1) != (reference_state & 1))

    matched_count = int(matched.sum())
    error_count = int(errors.sum())
    detector_tags = len(stream)
    return SimulationSummary(
        n_pulses=n_pulses,
        n_tags=detector_tags,
        n_dark_tags=int(stream.dark.sum()),
        clicked_windows=clicked,
        click_fraction=clicked / n_pulses,
        matched_count=matched_count,
        error_count=error_count,
        truth_qber=error_count / matched_count if matched_count else 0.0,
        basis_z_fraction=float((stream.channel <= 1).mean())
        if detector_tags
        else 0.0,
    )


# ---------------------------------------------------------------------------
# intensity-correlation (two-detector splitter) simulation
# ---------------------------------------------------------------------------

def _hbt_chunk(
    scenario: Scenario, rng: np.random.Generator, start: int, count: int
) -> dict[str, np.ndarray]:
    """Detection times and detector ids for a 50:50 splitter pair."""
    _, _, owner, photon_times = _photon_events(scenario, rng, start, count)
    detector = rng.integers(0, 2, len(owner), dtype=np.uint8)
    dark_times, dark_detectors = _dark_tags(scenario, rng, start, count, 2)
    return {
        "time_ps": np.concatenate([photon_times, dark_times]),
        "channel": np.concatenate([detector, dark_detectors]),
    }


def _pair_offsets(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``range(lo[i], hi[i])`` for every i, concatenated; needs lo <= hi."""
    count = hi - lo
    run_start = np.cumsum(count) - count
    return np.arange(int(count.sum())) + np.repeat(lo - run_start, count)


def simulate_g2_histogram(
    scenario: Scenario, bin_width_ps: float = 10.0
) -> "CorrelationHistogram":
    """Simulate an intensity-correlation (two-detector) measurement.

    The source stream is split 50:50 onto two detectors (the standard
    coincidence setup for measuring g²); every cross-detector pair with
    delay inside ±5½ pulse periods lands in a histogram bin.  Dead time
    applies per detector; polarization is irrelevant and not simulated.
    """
    from .tagproc import CorrelationHistogram  # deferred: avoids cycle

    _require(
        0.0 < bin_width_ps < math.inf,
        "bin_width_ps",
        "must be positive and finite",
    )

    tags = _merge_sorted(
        _map_chunks(scenario, _hbt_chunk),
        scenario.operating_point.link.dead_time * 1e3,
    )
    time_ps, detector = tags["time_ps"], tags["channel"]

    t0 = time_ps[detector == 0]
    t1 = time_ps[detector == 1]
    half_span = 5.5 * scenario.period_ps
    n_bins = max(1, int(round(2.0 * half_span / bin_width_ps)))
    origin = -0.5 * n_bins * bin_width_ps
    counts = np.zeros(n_bins, dtype=np.int64)
    if len(t0) and len(t1):
        lo = np.searchsorted(t1, t0 + origin)
        hi = np.searchsorted(t1, t0 - origin)
        delays = t1[_pair_offsets(lo, hi)] - np.repeat(t0, hi - lo)
        bins = np.floor((delays - origin) / bin_width_ps).astype(np.int64)
        np.clip(bins, 0, n_bins - 1, out=bins)
        np.add.at(counts, bins, 1)
    return CorrelationHistogram(
        bin_width_ps=bin_width_ps, counts=counts, origin_ps=origin
    )


# ---------------------------------------------------------------------------
# tag-stream file formats
# ---------------------------------------------------------------------------

def _pack_flags(stream: TagStream) -> np.ndarray:
    flags = np.zeros(len(stream), dtype=np.uint8)
    has_state = stream.truth_state != NO_TRUTH_STATE
    flags[has_state] |= _FLAG_HAS_STATE
    flags |= np.where(has_state, stream.truth_state, 0).astype(np.uint8)
    flags |= (stream.truth_photons << _FLAG_PHOTONS_SHIFT).astype(np.uint8)
    flags[stream.dark] |= _FLAG_DARK
    return flags


def _iter_record_blocks(stream: TagStream) -> Iterator[np.ndarray]:
    """Record arrays in time order, reference tags interleaved.

    Blocks partition the detector tags at nominal pulse-block boundaries,
    so memory stays flat however long the run is.  A reader recovers the
    pulse period from two reference tags, so a stream of fewer than two
    pulses would write an unreadable file and raises at once.
    """
    _require(
        stream.n_pulses >= 2, "n_pulses", "a tag file needs >= 2 pulses"
    )
    flags = _pack_flags(stream)

    def blocks() -> Iterator[np.ndarray]:
        lo = 0
        for start in range(0, stream.n_pulses, _EXPORT_BLOCK_PULSES):
            stop = min(start + _EXPORT_BLOCK_PULSES, stream.n_pulses)
            ref_times = stream.reference_times(start, stop)
            if stop >= stream.n_pulses:
                hi = len(stream)
            else:
                boundary = int(round(stop * stream.period_ps))
                hi = int(np.searchsorted(stream.time_ps, boundary))
            times = np.concatenate([stream.time_ps[lo:hi], ref_times])
            chans = np.concatenate(
                [
                    stream.channel[lo:hi],
                    np.full(len(ref_times), CHANNEL_REFERENCE, dtype=np.uint8),
                ]
            )
            flag_block = np.concatenate(
                [flags[lo:hi], np.zeros(len(ref_times), dtype=np.uint8)]
            )
            order = np.lexsort((chans, times))
            block = np.empty(len(times), dtype=_RECORD_DTYPE)
            block["time_ps"] = times[order]
            block["channel"] = chans[order]
            block["flags"] = flag_block[order]
            yield block
            lo = hi

    return blocks()


def write_tags(stream: TagStream, path: str | Path) -> None:
    """Write the stream as packed little-endian 10-byte records."""
    blocks = _iter_record_blocks(stream)
    with open(path, "wb") as handle:
        for block in blocks:
            handle.write(block.tobytes())


def read_tags(path: str | Path) -> TagStream:
    """Read a packed tag file back into a stream.

    Pulse count and period are reconstructed from the reference tags.
    """
    raw = np.fromfile(path, dtype=_RECORD_DTYPE)
    size = Path(path).stat().st_size
    _require(raw.nbytes == size, "tags", "file ends inside a record")
    return _stream_from_records(raw)


def _stream_from_records(raw: np.ndarray) -> TagStream:
    """Decode tag records of either file format into a stream."""
    is_ref = raw["channel"] == CHANNEL_REFERENCE
    n_pulses = int(is_ref.sum())
    _require(n_pulses >= 2, "tags", "tag file needs >= 2 reference tags")
    ref_times = raw["time_ps"][is_ref]
    period_ps = (int(ref_times[-1]) - int(ref_times[0])) / (n_pulses - 1)
    _require(period_ps > 0.0, "tags", "pulse period must be positive")
    det = raw[~is_ref]
    known = det["channel"] < CHANNEL_REFERENCE
    _require(bool(known.all()), "tags", "unknown channel code")
    flags = det["flags"]
    has_state = (flags & _FLAG_HAS_STATE) != 0
    truth_state = np.where(
        has_state, flags & _FLAG_STATE_MASK, NO_TRUTH_STATE
    ).astype(np.uint8)
    return TagStream(
        time_ps=det["time_ps"].astype(np.int64),
        channel=det["channel"].astype(np.uint8),
        truth_state=truth_state,
        truth_photons=(
            (flags & _FLAG_PHOTONS_MASK) >> _FLAG_PHOTONS_SHIFT
        ).astype(np.uint8),
        dark=(flags & _FLAG_DARK) != 0,
        n_pulses=n_pulses,
        period_ps=period_ps,
    )


def write_tags_csv(stream: TagStream, path: str | Path) -> None:
    """Write the stream as CSV with channels and states as letters."""
    blocks = _iter_record_blocks(stream)
    write_table(path, _CSV_HEADER, chain.from_iterable(map(_csv_rows, blocks)))


def _csv_rows(block: np.ndarray) -> Iterator[tuple]:
    names = np.array(CHANNEL_NAMES)
    flags = block["flags"]
    return zip(
        block["time_ps"].tolist(),
        names[block["channel"]].tolist(),
        np.where(
            flags & _FLAG_HAS_STATE, names[flags & _FLAG_STATE_MASK], ""
        ).tolist(),
        ((flags & _FLAG_PHOTONS_MASK) >> _FLAG_PHOTONS_SHIFT).tolist(),
        np.where(flags & _FLAG_DARK, 1, 0).tolist(),
    )


def read_tags_csv(path: str | Path) -> TagStream:
    """Read the CSV tag format back into a stream."""
    time_ps, channel, state, photons, dark = read_table(
        path, "tags", _CSV_HEADER, _CSV_PARSERS
    )
    raw = np.empty(len(time_ps), dtype=_RECORD_DTYPE)
    raw["time_ps"] = time_ps
    raw["channel"] = channel
    raw["flags"] = np.bitwise_or.reduce(
        np.array([state, photons, dark], dtype=np.uint8)
    )
    return _stream_from_records(raw)
