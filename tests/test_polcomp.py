"""Tests for polarization drift and the automatic compensation loop.

Polarization algebra is verified against an independent Jones-calculus
oracle built inline; optimizer convergence and random-walk statistics
use frozen seeds.
"""

from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sps_bb84 import keyrate, polcomp
from sps_bb84._table import read_table
from sps_bb84.keyrate import qber_total
from sps_bb84.params import OperatingPoint, ParameterError
from sps_bb84.polcomp import (
    CompensationTrace,
    CompensatorState,
    PolarizationDrift,
    apply_drift,
    basis_error_rates,
    compensate,
    measured_qber,
    residual_rotation,
    rotation_from_axis_angle,
    track_compensation,
    waveplate,
    write_trace_csv,
)

POINT = OperatingPoint().with_loss(10.0)
FLOOR = qber_total(POINT)


def _random_drift(seed: int, drift_rate: float = 0.0) -> PolarizationDrift:
    """Haar-flavoured random rotation: uniform axis, uniform angle."""
    rng = np.random.default_rng(seed)
    z = 2.0 * rng.random() - 1.0
    azimuth = 2.0 * math.pi * rng.random()
    radial = math.sqrt(1.0 - z * z)
    return PolarizationDrift.from_axis_angle(
        (radial * math.cos(azimuth), radial * math.sin(azimuth), z),
        rng.random() * math.pi,
        drift_rate=drift_rate,
        seed=seed,
    )


def _fresh_generator_step(
    state: PolarizationDrift, dt: float
) -> PolarizationDrift:
    """One walk step drawn from its own generator at counter block 4k."""
    angle = state.drift_rate * dt
    if angle == 0.0:
        return replace(state, step=state.step + 1)
    bit_generator = np.random.Philox(key=state.seed)
    bit_generator.advance(4 * state.step)
    rng = np.random.Generator(bit_generator)
    z = 2.0 * rng.random() - 1.0
    azimuth = 2.0 * math.pi * rng.random()
    radial = math.sqrt(max(0.0, 1.0 - z * z))
    axis = (radial * math.cos(azimuth), radial * math.sin(azimuth), z)
    composed = rotation_from_axis_angle(axis, angle) @ state.rotation
    return replace(
        state,
        rotation=polcomp._reorthonormalize(composed),
        step=state.step + 1,
    )


# --- independent Jones oracle ----------------------------------------------

_H = np.array([1.0, 0.0], dtype=complex)
_V = np.array([0.0, 1.0], dtype=complex)
_D = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
_A = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)


def _oracle_retarder(angle: float, retardance: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    fast = np.array([c, s], dtype=complex)
    slow = np.array([-s, c], dtype=complex)
    return np.exp(-0.5j * retardance) * np.outer(
        fast, fast.conj()
    ) + np.exp(0.5j * retardance) * np.outer(slow, slow.conj())


def _oracle_error_rates(net: np.ndarray) -> tuple[float, float]:
    leak_z = abs(_V.conj() @ net @ _H) ** 2
    leak_x = abs(_A.conj() @ net @ _D) ** 2
    return (
        FLOOR + (1 - 2 * FLOOR) * leak_z,
        FLOOR + (1 - 2 * FLOOR) * leak_x,
    )


# ---------------------------------------------------------------------------
# rotations and retarders
# ---------------------------------------------------------------------------

class TestRotations:
    def test_axis_rotation_is_unitary(self):
        matrix = rotation_from_axis_angle((0.3, -0.5, 0.81), 1.234)
        np.testing.assert_allclose(
            matrix.conj().T @ matrix, np.eye(2), atol=1e-14
        )

    def test_zero_axis_rejected(self):
        with pytest.raises(ParameterError, match="axis"):
            rotation_from_axis_angle((0.0, 0.0, 0.0), 1.0)

    def test_rotation_angle_round_trip(self):
        for angle in (0.0, 0.3, math.pi / 2, 2.9):
            drift = PolarizationDrift.from_axis_angle(
                (0.0, 1.0, 0.0), angle
            )
            assert drift.rotation_angle == pytest.approx(
                angle, abs=1e-12
            )

    def test_waveplate_matches_oracle(self):
        for angle, retardance in (
            (0.0, math.pi / 2),
            (0.615, math.pi),
            (2.2, math.pi / 2),
        ):
            np.testing.assert_allclose(
                waveplate(angle, retardance),
                _oracle_retarder(angle, retardance),
                atol=1e-14,
            )

    def test_half_wave_at_quarter_turn_swaps_ports(self):
        swap = waveplate(math.pi / 4, math.pi)
        assert abs(_V.conj() @ swap @ _H) ** 2 == pytest.approx(1.0)
        assert abs(_H.conj() @ swap @ _V) ** 2 == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "plate, retardance",
        [("_quarter_wave", math.pi / 2), ("_half_wave", math.pi)],
    )
    def test_cached_plates_are_exact_and_read_only(self, plate, retardance):
        cached = getattr(polcomp, plate)
        for angle in (0.0, 0.615, 2.2, math.pi / 180.0):
            matrix = cached(angle)
            np.testing.assert_array_equal(
                matrix, waveplate(angle, retardance)
            )
            assert cached(angle) is matrix
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.0
        stack = CompensatorState(qwp_angle=0.3, hwp_angle=1.1).jones()
        with pytest.raises(ValueError):
            stack[1, 1] = 0.0

    def test_drift_constructor_validation(self):
        with pytest.raises(ParameterError, match="unitary"):
            PolarizationDrift(rotation=np.array([[1.0, 0.1], [0.0, 1.0]]))
        with pytest.raises(ParameterError, match="2x2"):
            PolarizationDrift(rotation=np.eye(3))
        with pytest.raises(ParameterError, match="drift_rate"):
            PolarizationDrift.identity(drift_rate=-1.0)


# ---------------------------------------------------------------------------
# drift random walk
# ---------------------------------------------------------------------------

class TestApplyDrift:
    def test_negative_dt_rejected(self):
        with pytest.raises(ParameterError, match="dt"):
            apply_drift(PolarizationDrift.identity(), -0.1)

    def test_zero_dt_composes_identity(self):
        start = _random_drift(4, drift_rate=1.0)
        after = apply_drift(start, 0.0)
        np.testing.assert_array_equal(after.rotation, start.rotation)
        assert after.step == start.step + 1

    def test_zero_rate_is_constant(self):
        state = _random_drift(6, drift_rate=0.0)
        reference = state.rotation.copy()
        for _ in range(50):
            state = apply_drift(state, 0.5)
        np.testing.assert_array_equal(state.rotation, reference)

    def test_walk_is_reproducible_and_pure(self):
        first = PolarizationDrift.identity(drift_rate=0.3, seed=8)
        second = PolarizationDrift.identity(drift_rate=0.3, seed=8)
        for _ in range(20):
            first = apply_drift(first, 0.1)
            second = apply_drift(second, 0.1)
        np.testing.assert_array_equal(first.rotation, second.rotation)
        # same state, same increment: applying twice gives the same result
        once = apply_drift(first, 0.1)
        twice = apply_drift(first, 0.1)
        np.testing.assert_array_equal(once.rotation, twice.rotation)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        drift_rate=st.sampled_from([0.0, 1e-3, 0.05, 0.5, 3.0]),
        dt=st.floats(0.0, 2.0),
        first_step=st.integers(0, 10_000),
        n_steps=st.integers(1, 30),
        block=st.integers(1, 8),
    )
    def test_batched_walk_matches_single_steps(
        self, seed, drift_rate, dt, first_step, n_steps, block
    ):
        start = replace(
            _random_drift(seed % 1000, drift_rate=drift_rate),
            seed=seed,
            step=first_step,
        )
        # a small block size makes the draw cross block boundaries
        with mock.patch.object(polcomp, "_WALK_BLOCK", block):
            batched = list(polcomp._drift_walk(start, dt, n_steps))
        assert len(batched) == n_steps
        state = fresh = start
        for walked in batched:
            state = apply_drift(state, dt)
            fresh = _fresh_generator_step(fresh, dt)
            for single in (state, fresh):
                np.testing.assert_array_equal(
                    walked.rotation, single.rotation
                )
                assert walked.step == single.step

    def test_walk_statistics_and_unitarity(self):
        # one long walk; disjoint segments are independent increments,
        # so the squared segment rotation angle should average to
        # (steps per segment) x (step angle)^2 and scale linearly
        state = PolarizationDrift.identity(drift_rate=0.5, seed=11)
        rotations = [state.rotation]
        for _ in range(10_000):
            state = apply_drift(state, 0.01)  # 5 mrad per step
            rotations.append(state.rotation)

        defect = np.abs(
            state.rotation.conj().T @ state.rotation - np.eye(2)
        ).max()
        assert defect < 1e-9

        def mean_square_angle(segment: int) -> float:
            values = []
            for k in range(10_000 // segment):
                product = (
                    rotations[(k + 1) * segment]
                    @ rotations[k * segment].conj().T
                )
                cos_half = min(1.0, 0.5 * abs(np.trace(product)))
                values.append((2.0 * math.acos(cos_half)) ** 2)
            return float(np.mean(values))

        short = mean_square_angle(100)
        long = mean_square_angle(400)
        assert short / (100 * 0.005**2) == pytest.approx(1.0, abs=0.3)
        assert 2.6 < long / short < 5.6


# ---------------------------------------------------------------------------
# error-rate algebra
# ---------------------------------------------------------------------------

class TestMeasuredQber:
    def test_exact_inverse_recovers_floor(self):
        stack = CompensatorState(
            qwp_angle=0.3, hwp_angle=1.1, exit_qwp_angle=0.7
        )
        drift = PolarizationDrift(rotation=stack.jones().conj().T)
        assert measured_qber(drift, stack, POINT) == pytest.approx(
            FLOOR, abs=1e-12
        )
        np.testing.assert_allclose(
            residual_rotation(drift, stack).conj().T
            @ residual_rotation(drift, stack),
            np.eye(2),
            atol=1e-12,
        )

    def test_quarter_turn_about_pole_axis_hits_half_in_one_basis(self):
        # a 90-degree sphere rotation about the horizontal/vertical
        # axis leaves that basis untouched and scrambles the diagonal
        # one completely
        drift = PolarizationDrift.from_axis_angle(
            (1.0, 0.0, 0.0), math.pi / 2
        )
        error_z, error_x = basis_error_rates(
            drift, CompensatorState(), POINT
        )
        assert error_z == pytest.approx(FLOOR, abs=1e-12)
        assert error_x == pytest.approx(0.5, abs=1e-12)
        assert measured_qber(
            drift, CompensatorState(), POINT
        ) == pytest.approx(0.5 * (FLOOR + 0.5), abs=1e-12)

    def test_small_rotation_grows_as_sine_squared_half_angle(self):
        theta = 0.04
        drift = PolarizationDrift.from_axis_angle(
            (0.0, 0.0, 1.0), theta
        )
        expected = FLOOR + (1 - 2 * FLOOR) * math.sin(theta / 2) ** 2
        error_z, error_x = basis_error_rates(
            drift, CompensatorState(), POINT
        )
        assert error_z == pytest.approx(expected, rel=1e-9)
        assert error_x == pytest.approx(expected, rel=1e-9)

    def test_matches_jones_oracle_on_random_rotations(self):
        stack = CompensatorState(
            qwp_angle=0.9, hwp_angle=0.2, exit_qwp_angle=2.5
        )
        oracle_stack = (
            _oracle_retarder(2.5, math.pi / 2)
            @ _oracle_retarder(0.2, math.pi)
            @ _oracle_retarder(0.9, math.pi / 2)
        )
        for seed in range(20):
            drift = _random_drift(seed)
            net = oracle_stack @ drift.rotation
            expected = _oracle_error_rates(net)
            observed = basis_error_rates(drift, stack, POINT)
            assert observed[0] == pytest.approx(expected[0], abs=1e-12)
            assert observed[1] == pytest.approx(expected[1], abs=1e-12)

    def test_shot_noise_sampling_is_unbiased(self):
        drift = PolarizationDrift.from_axis_angle(
            (1.0, 0.0, 0.0), math.pi / 2
        )
        state = CompensatorState()
        exact = measured_qber(drift, state, POINT)
        rng = np.random.default_rng(77)
        draws = np.array(
            [
                measured_qber(
                    drift, state, POINT, probe_photons=500, rng=rng
                )
                for _ in range(3000)
            ]
        )
        assert set(np.unique(draws * 500) % 1.0) == {0.0}
        sigma = math.sqrt(exact * (1 - exact) / 500 / 3000)
        assert abs(draws.mean() - exact) < 3 * sigma

    def test_probe_photons_validation(self):
        with pytest.raises(ParameterError, match="probe_photons"):
            measured_qber(
                _random_drift(1),
                CompensatorState(),
                POINT,
                probe_photons=0,
            )


# ---------------------------------------------------------------------------
# compensator state
# ---------------------------------------------------------------------------

class TestCompensatorState:
    def test_angles_wrap_to_half_turn(self):
        state = CompensatorState(
            qwp_angle=math.pi + 0.3, hwp_angle=-0.2
        )
        assert state.qwp_angle == pytest.approx(0.3)
        assert state.hwp_angle == pytest.approx(math.pi - 0.2)

    def test_plate_count_selects_angle_vector(self):
        assert len(CompensatorState(plates=2).angles) == 2
        assert len(CompensatorState(plates=3).angles) == 3
        with pytest.raises(ParameterError, match="plates"):
            CompensatorState(plates=4)

    def test_estimate_bounds(self):
        with pytest.raises(ParameterError, match="qber_estimate"):
            CompensatorState(qber_estimate=0.6)

    def test_zero_angles_three_plate_stack_is_transparent(self):
        stack = CompensatorState().jones()
        # proportional to the identity: off-diagonals vanish and the
        # diagonal magnitudes are unity
        assert abs(stack[0, 1]) < 1e-14 and abs(stack[1, 0]) < 1e-14
        assert abs(abs(stack[0, 0]) - 1.0) < 1e-14
        assert abs(stack[0, 0] - stack[1, 1]) < 1e-14


# ---------------------------------------------------------------------------
# compensation search
# ---------------------------------------------------------------------------

class TestCompensate:
    def test_static_rotations_compensated_within_budget(self):
        # acceptance-grade convergence on a seed slice: noise-free
        # probes, 200-probe budget, residual above floor below 1e-4
        for seed in range(40):
            drift = _random_drift(seed)
            final = compensate(
                CompensatorState(),
                lambda s: measured_qber(drift, s, POINT),
                budget=200,
            )
            residual = measured_qber(drift, final, POINT) - FLOOR
            assert residual <= 1e-4, f"seed {seed}: {residual:.2e}"

    def test_already_compensated_start_keeps_angles(self):
        stack = CompensatorState(
            qwp_angle=0.3, hwp_angle=1.1, exit_qwp_angle=0.7
        )
        drift = PolarizationDrift(rotation=stack.jones().conj().T)
        final = compensate(
            stack,
            lambda s: measured_qber(drift, s, POINT),
            budget=300,
        )
        assert final.angles == stack.angles
        assert not final.budget_exhausted
        assert final.qber_estimate == pytest.approx(FLOOR, abs=1e-12)

    def test_rerun_never_degrades_a_converged_state(self):
        # the search starts by probing its own starting point, so a
        # second run can only keep or improve the estimate
        drift = _random_drift(12)
        first = compensate(
            CompensatorState(),
            lambda s: measured_qber(drift, s, POINT),
            budget=200,
        )
        second = compensate(
            first,
            lambda s: measured_qber(drift, s, POINT),
            budget=200,
        )
        assert second.qber_estimate <= first.qber_estimate
        assert measured_qber(drift, second, POINT) - FLOOR <= 1e-4

    def test_estimate_is_minimum_of_all_probes(self):
        drift = _random_drift(23)
        probed: list[tuple[CompensatorState, float]] = []

        def probe(state: CompensatorState) -> float:
            value = measured_qber(drift, state, POINT)
            probed.append((state, value))
            return value

        final = compensate(CompensatorState(), probe, budget=150)
        values = [value for _, value in probed]
        assert len(values) == final.iterations
        assert final.qber_estimate == pytest.approx(min(values))
        # the returned angles are the argmin of everything probed
        best_state = probed[int(np.argmin(values))][0]
        assert final.angles == best_state.angles

    def test_budget_exhaustion_flag(self):
        drift = _random_drift(3)
        tiny = compensate(
            CompensatorState(),
            lambda s: measured_qber(drift, s, POINT),
            budget=5,
        )
        assert tiny.budget_exhausted
        assert tiny.iterations == 5

    def test_argument_validation(self):
        probe = lambda s: 0.1  # noqa: E731
        with pytest.raises(ParameterError, match="budget"):
            compensate(CompensatorState(), probe, budget=0)
        with pytest.raises(ParameterError, match="min_step"):
            compensate(
                CompensatorState(), probe, budget=10, min_step=1.0,
                initial_step=0.1,
            )

    def test_two_plates_invert_their_own_family_only(self):
        # a drift generated by a quarter+half stack is exactly
        # invertible with two plates ...
        source = CompensatorState(qwp_angle=0.4, hwp_angle=1.0, plates=2)
        drift = PolarizationDrift(rotation=source.jones().conj().T)
        final = compensate(
            CompensatorState(plates=2),
            lambda s: measured_qber(drift, s, POINT),
            budget=400,
        )
        assert measured_qber(drift, final, POINT) - FLOOR < 1e-6
        # ... but a generic fibre rotation is not: the pair aligns one
        # basis at the other's expense, which is why the default stack
        # carries the third plate
        generic = PolarizationDrift.from_axis_angle(
            (0.3, -0.5, 0.81), 1.2
        )
        partial = compensate(
            CompensatorState(plates=2),
            lambda s: measured_qber(generic, s, POINT),
            budget=400,
        )
        assert measured_qber(generic, partial, POINT) - FLOOR > 1e-3


# ---------------------------------------------------------------------------
# closed-loop tracking
# ---------------------------------------------------------------------------

class TestTracking:
    def test_slow_drift_stays_near_static_residual(self):
        drift = PolarizationDrift.from_axis_angle(
            (0.2, 0.9, -0.4), 0.8, drift_rate=2e-3, seed=5
        )
        static = compensate(
            CompensatorState(),
            lambda s: measured_qber(drift, s, POINT),
            budget=200,
        )
        static_residual = measured_qber(drift, static, POINT)
        _, _, trace = track_compensation(
            drift, static, POINT, n_steps=4000, dt=0.05
        )
        assert len(trace) == 4000
        assert trace.residual_qber.mean() <= 2 * static_residual
        np.testing.assert_allclose(
            trace.time_s, np.arange(1, 4001) * 0.05
        )
        assert (trace.probes_used >= 1).all()
        assert (trace.probes_used <= 6).all()

    @pytest.mark.parametrize("probe_photons", [None, 1000])
    def test_error_floor_evaluated_once_per_run(
        self, monkeypatch, probe_photons
    ):
        calls = []
        original = keyrate.click_terms

        def counting(op):
            calls.append(op)
            return original(op)

        monkeypatch.setattr(keyrate, "click_terms", counting)
        _, _, trace = track_compensation(
            _random_drift(3, drift_rate=1e-2), CompensatorState(), POINT,
            n_steps=50, dt=0.05, probe_photons=probe_photons,
        )
        assert len(trace) == 50
        assert len(calls) <= 1

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        drift_rate=st.sampled_from([0.0, 1e-2, 0.05, 0.3]),
        dt=st.floats(0.01, 0.5),
        half=st.integers(1, 25),
        plates=st.sampled_from([2, 3]),
    )
    def test_chained_runs_equal_one_run(
        self, seed, drift_rate, dt, half, plates
    ):
        drift = _random_drift(seed, drift_rate=drift_rate)
        state = CompensatorState(plates=plates)
        whole_drift, whole_state, whole = track_compensation(
            drift, state, POINT, n_steps=2 * half, dt=dt
        )
        mid_drift, mid_state, first = track_compensation(
            drift, state, POINT, n_steps=half, dt=dt
        )
        end_drift, end_state, second = track_compensation(
            mid_drift, mid_state, POINT, n_steps=half, dt=dt
        )
        np.testing.assert_array_equal(whole.time_s[:half], first.time_s)
        for column in ("drift_angle", "residual_qber", "probes_used"):
            np.testing.assert_array_equal(
                getattr(whole, column),
                np.concatenate(
                    [getattr(first, column), getattr(second, column)]
                ),
            )
        np.testing.assert_array_equal(
            whole_drift.rotation, end_drift.rotation
        )
        assert whole_drift.step == end_drift.step == 2 * half
        assert whole_state == end_state

    @pytest.mark.parametrize("drift_rate, expected", [(0.05, 1), (0.0, 0)])
    def test_one_walk_generator_per_run(
        self, monkeypatch, drift_rate, expected
    ):
        made = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            made.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        monkeypatch.setattr(polcomp, "_WALK_BLOCK", 16)
        _, _, trace = track_compensation(
            _random_drift(2, drift_rate=drift_rate), CompensatorState(),
            POINT, n_steps=100, dt=0.05, probe_photons=500,
        )
        assert len(trace) == 100
        assert len(made) == expected

    def test_argument_validation(self):
        drift = _random_drift(1)
        state = CompensatorState()
        with pytest.raises(ParameterError, match="n_steps"):
            track_compensation(drift, state, POINT, n_steps=0, dt=0.1)
        with pytest.raises(ParameterError, match="dt"):
            track_compensation(drift, state, POINT, n_steps=1, dt=0.0)
        with pytest.raises(ParameterError, match="probes_per_step"):
            track_compensation(
                drift, state, POINT, n_steps=1, dt=0.1,
                probes_per_step=0,
            )


# ---------------------------------------------------------------------------
# trace export
# ---------------------------------------------------------------------------

def _read_trace(path) -> CompensationTrace:
    """Read a ``write_trace_csv`` file back through the table codec."""
    parsers = (float, float, float, np.int64)
    columns = read_table(path, "trace", polcomp._TRACE_HEADER, parsers)
    return CompensationTrace(*columns)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        trace = CompensationTrace(
            time_s=np.array([0.05, 0.10, 0.15]),
            drift_angle=np.array([0.8, 0.81, 0.79]),
            residual_qber=np.array([3.5e-4, 3.6e-4, 3.4e-4]),
            probes_used=np.array([4, 6, 4]),
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = _read_trace(path)
        np.testing.assert_allclose(loaded.time_s, trace.time_s)
        np.testing.assert_allclose(
            loaded.residual_qber, trace.residual_qber
        )
        np.testing.assert_array_equal(
            loaded.probes_used, trace.probes_used
        )

    def test_header_is_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ParameterError, match="header"):
            _read_trace(path)

    @pytest.mark.parametrize("row", ["0.05,0.8,3.5e-4", "0.05,0.8,3.5e-4,4,9"])
    def test_row_width_is_enforced(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"time_s,drift_angle,residual_qber,probes_used\n{row}\n"
        )
        with pytest.raises(ParameterError, match=r"trace\[0\].*columns"):
            _read_trace(path)

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="equal length"):
            CompensationTrace(
                time_s=np.array([0.1]),
                drift_angle=np.array([0.8, 0.9]),
                residual_qber=np.array([1e-4]),
                probes_used=np.array([4]),
            )
