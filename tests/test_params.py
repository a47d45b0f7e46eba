"""Parameter containers, unit helpers, and scenario loading."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sps_bb84.params import (
    LinkModel,
    OperatingPoint,
    ParameterError,
    ProtocolParams,
    ScenarioConfig,
    SecurityBudget,
    SimulationConfig,
    SourceModel,
    binary_entropy,
    load_scenario,
    loss_to_length,
    scenario_from_mapping,
    sift_ratio,
)


# ---------------------------------------------------------------------------
# math utilities
# ---------------------------------------------------------------------------

def test_binary_entropy_maximum_at_half():
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_endpoints_zero_by_continuity():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_quarter_matches_high_precision_value():
    # -0.25*log2(0.25) - 0.75*log2(0.75), evaluated independently
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591329, rel=1e-14)


def test_binary_entropy_symmetric_on_grid():
    grid = np.linspace(0.0, 1.0, 1001)
    left = binary_entropy(grid)
    right = binary_entropy(1.0 - grid)
    assert np.allclose(left, right, rtol=0.0, atol=1e-12)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ParameterError):
        binary_entropy(-1e-9)
    with pytest.raises(ParameterError):
        binary_entropy(1.0 + 1e-9)


def test_binary_entropy_accepts_arrays():
    out = binary_entropy(np.array([0.0, 0.5, 1.0]))
    assert out == pytest.approx([0.0, 1.0, 0.0])


@settings(max_examples=500, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=1.0), wrap=st.booleans())
@example(x=0.0, wrap=False)
@example(x=1.0, wrap=True)
@example(x=5e-324, wrap=False)
@example(x=2.2250738585072014e-308, wrap=True)
@example(x=1.0 - 2.0**-53, wrap=False)
def test_binary_entropy_scalar_matches_array_bit_for_bit(x, wrap):
    scalar = np.float64(x) if wrap else x
    value = binary_entropy(scalar)
    assert type(value) is float
    reference = binary_entropy(np.array([x]))[0]
    assert value.hex() == float(reference).hex()


@settings(max_examples=200, deadline=None)
@given(
    x=st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, -5e-324]),
        st.floats(allow_nan=True).filter(lambda v: not 0.0 <= v <= 1.0),
    ),
    wrap=st.booleans(),
)
def test_binary_entropy_rejects_nan_inf_and_out_of_range(x, wrap):
    with pytest.raises(ParameterError):
        binary_entropy(np.float64(x) if wrap else x)
    with pytest.raises(ParameterError):
        binary_entropy(np.array([0.5, x]))


def test_sift_ratio_balanced_bases():
    assert sift_ratio(0.5) == 0.5


def test_sift_ratio_single_basis_degenerate():
    assert sift_ratio(1.0) == 1.0


def test_sift_ratio_biased_value():
    assert sift_ratio(0.9) == pytest.approx(0.82, rel=1e-12)


def test_sift_ratio_minimum_is_at_half():
    grid = np.linspace(0.0, 1.0, 1001)
    values = np.array([sift_ratio(p) for p in grid])
    assert grid[np.argmin(values)] == pytest.approx(0.5)
    assert values.min() == pytest.approx(0.5)


def test_sift_ratio_rejects_out_of_range():
    with pytest.raises(ParameterError):
        sift_ratio(1.2)


def test_loss_to_length_reference_link():
    assert loss_to_length(25.49, 0.1956) == pytest.approx(130.32, abs=0.01)


def test_loss_to_length_zero_loss():
    assert loss_to_length(0.0, 0.1956) == 0.0


def test_loss_to_length_asymptotic_limit_loss():
    assert loss_to_length(28.11, 0.1956) == pytest.approx(143.71, abs=0.01)


def test_loss_to_length_guards_zero_attenuation():
    with pytest.raises(ParameterError):
        loss_to_length(10.0, 0.0)


def test_loss_length_round_trip_identity():
    for loss in np.linspace(0.1, 40.0, 37):
        atten = 0.1956
        back = loss_to_length(loss, atten) * atten
        assert back == pytest.approx(loss, rel=1e-12)


# ---------------------------------------------------------------------------
# containers and validation
# ---------------------------------------------------------------------------

def test_source_model_defaults_are_valid_and_frozen():
    src = SourceModel()
    assert src.mean_photon_number == 0.138
    with pytest.raises(AttributeError):
        src.g2_zero = 0.5  # type: ignore[misc]


def test_source_model_rejects_mean_photon_number_of_one():
    with pytest.raises(ParameterError) as err:
        SourceModel(mean_photon_number=1.0)
    assert err.value.field_name == "mean_photon_number"


def test_source_model_rejects_negative_lifetime():
    with pytest.raises(ParameterError) as err:
        SourceModel(lifetime=-1.0)
    assert err.value.field_name == "lifetime"


def test_source_effective_mean_tracks_pre_attenuation():
    src = SourceModel(pre_attenuation=0.25)
    assert src.effective_mean_photon_number == pytest.approx(0.138 * 0.25)


def test_photon_number_pmf_sums_to_one_and_matches_mean():
    src = SourceModel()
    p0, p1, p2 = src.photon_number_pmf()
    assert p0 + p1 + p2 == pytest.approx(1.0, rel=1e-14)
    assert p1 + 2.0 * p2 == pytest.approx(src.mean_photon_number, rel=1e-14)
    assert 2.0 * p2 / src.mean_photon_number**2 == pytest.approx(
        src.g2_zero, rel=1e-12
    )


def test_photon_number_pmf_attenuation_preserves_g2():
    src = SourceModel(pre_attenuation=0.3)
    _, p1, p2 = src.photon_number_pmf()
    n_eff = src.effective_mean_photon_number
    assert p1 + 2.0 * p2 == pytest.approx(n_eff, rel=1e-14)
    assert 2.0 * p2 / n_eff**2 == pytest.approx(src.g2_zero, rel=1e-12)


def test_link_model_transmittance():
    link = LinkModel()
    assert link.channel_transmittance == pytest.approx(
        10.0 ** (-25.49 / 10.0), rel=1e-14
    )


def test_link_model_rejects_zero_efficiency():
    with pytest.raises(ParameterError) as err:
        LinkModel(transmitter_efficiency=0.0)
    assert err.value.field_name == "transmitter_efficiency"


def test_link_model_rejects_dark_prob_of_one():
    with pytest.raises(ParameterError) as err:
        LinkModel(dark_count_prob=1.0)
    assert err.value.field_name == "dark_count_prob"


@pytest.mark.parametrize("count", [2, 5])
def test_link_model_requires_one_detector_per_port(count):
    # the receiver has four ports; other counts would put dark tags on
    # missing ports or on the reference channel
    with pytest.raises(ParameterError) as err:
        LinkModel(detector_count=count)
    assert err.value.field_name == "detector_count"


def test_link_dark_prob_scales_inversely_with_clock_rate():
    link = LinkModel()
    base = link.dark_prob_total(228e6)
    slower = link.dark_prob_total(76e6)
    assert base == pytest.approx(link.dark_count_prob, rel=1e-14)
    assert slower == pytest.approx(3.0 * base, rel=1e-12)


def test_link_dark_prob_per_detector_consistent_with_total():
    for total_mode in (True, False):
        link = LinkModel(dark_count_is_total=total_mode)
        q = link.dark_prob_per_detector(228e6)
        combined = 1.0 - (1.0 - q) ** link.detector_count
        assert combined == pytest.approx(
            link.dark_prob_total(228e6), rel=1e-12
        )


def test_link_receiver_chain_collapse_flag():
    collapsed = LinkModel(receiver_includes_detector=True)
    independent = LinkModel(receiver_includes_detector=False)
    assert collapsed.receiver_chain_efficiency == pytest.approx(0.740)
    assert independent.receiver_chain_efficiency == pytest.approx(
        0.740 * 0.740
    )


def test_link_with_loss_returns_new_instance():
    link = LinkModel()
    other = link.with_loss(10.0)
    assert other.channel_loss_db == 10.0
    assert link.channel_loss_db == 25.49


def test_with_loss_equals_replace_and_checks_the_loss():
    op = OperatingPoint(
        source=SourceModel(mean_photon_number=0.2),
        protocol=ProtocolParams(clock_rate=76e6),
    )
    for loss in (0.0, 12.5, 25.49, 300.0):
        expected = replace(op, link=replace(op.link, channel_loss_db=loss))
        assert op.with_loss(loss) == expected
        assert op.link.with_loss(loss) == expected.link
    for bad in (-1e-9, -3.0, math.nan):
        for target in (op, op.link):
            with pytest.raises(ParameterError) as err:
                target.with_loss(bad)
            assert err.value.field_name == "channel_loss_db"
            assert "must be non-negative" in str(err.value)


def test_protocol_params_sift_probability():
    assert ProtocolParams().sift_probability == 0.5
    assert ProtocolParams(basis_bias=0.9).sift_probability == pytest.approx(
        0.82
    )


def test_protocol_params_rejects_inefficiency_below_one():
    with pytest.raises(ParameterError) as err:
        ProtocolParams(error_correction_inefficiency=0.99)
    assert err.value.field_name == "error_correction_inefficiency"


def test_security_budget_defaults_sum_exactly_to_total():
    b = SecurityBudget()
    assert b.eps_PE + b.eps_EC + b.eps_PA == pytest.approx(
        b.eps_sec, rel=1e-12
    )


def test_security_budget_rejects_overcommitted_allocation():
    with pytest.raises(ParameterError) as err:
        SecurityBudget(eps_PE=9e-11, eps_EC=9e-11, eps_PA=9e-11)
    assert err.value.field_name == "eps_sec"


def test_operating_point_with_helpers_leave_original_intact():
    op = OperatingPoint()
    low_loss = op.with_loss(0.0)
    fast = op.with_clock_rate(1063e6)
    assert low_loss.link.channel_loss_db == 0.0
    assert fast.protocol.clock_rate == 1063e6
    assert op.link.channel_loss_db == 25.49
    assert op.protocol.clock_rate == 228e6


def test_simulation_config_rejects_bad_encoded_state():
    with pytest.raises(ParameterError):
        SimulationConfig(encoded_state=4)


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def _write(path, mapping):
    path.write_text(json.dumps(mapping))
    return path


def test_load_scenario_round_trip(tmp_path):
    path = _write(
        tmp_path / "lab.json",
        {
            "name": "lab",
            "source": {"mean_photon_number": 0.2, "g2_zero": 0.01,
                       "lifetime": 500.0},
            "link": {"channel_loss_db": 12.0},
            "protocol": {"clock_rate": 76e6},
            "simulation": {"n_pulses": 1000, "seed": 42},
        },
    )
    cfg = load_scenario(path)
    assert cfg.name == "lab"
    assert cfg.point.source.mean_photon_number == 0.2
    assert cfg.point.link.channel_loss_db == 12.0
    assert cfg.point.link.transmitter_efficiency == 0.464  # default kept
    assert cfg.point.protocol.clock_rate == 76e6
    assert cfg.simulation.n_pulses == 1000
    assert cfg.simulation.seed == 42


def test_load_scenario_defaults_name_to_file_stem(tmp_path):
    path = _write(tmp_path / "fieldlink.json", {"link": {}})
    assert load_scenario(path).name == "fieldlink"


def test_load_scenario_reports_first_violated_field(tmp_path):
    path = _write(
        tmp_path / "bad.json",
        {"source": {"mean_photon_number": 2.0}},
    )
    with pytest.raises(ParameterError) as err:
        load_scenario(path)
    assert err.value.field_name == "source.mean_photon_number"


def test_load_scenario_rejects_unknown_field(tmp_path):
    path = _write(tmp_path / "bad.json", {"link": {"coupling": 0.5}})
    with pytest.raises(ParameterError) as err:
        load_scenario(path)
    assert err.value.field_name == "link.coupling"


def test_load_scenario_rejects_unknown_top_level_key(tmp_path):
    path = _write(tmp_path / "bad.json", {"detector": {}})
    with pytest.raises(ParameterError):
        load_scenario(path)


def test_load_scenario_with_base_and_overrides(tmp_path):
    _write(
        tmp_path / "base.json",
        {
            "source": {"mean_photon_number": 0.138, "g2_zero": 0.0243},
            "link": {"channel_loss_db": 25.49},
        },
    )
    child = _write(
        tmp_path / "child.json",
        {
            "base": "base.json",
            "link": {"channel_loss_db": 20.0},
            "overrides": {"source.g2_zero": 0.05},
        },
    )
    cfg = load_scenario(child)
    assert cfg.point.link.channel_loss_db == 20.0
    assert cfg.point.source.g2_zero == 0.05
    assert cfg.point.source.mean_photon_number == 0.138


def test_load_scenario_missing_file_raises_parameter_error(tmp_path):
    with pytest.raises(ParameterError):
        load_scenario(tmp_path / "nope.json")


def test_scenario_from_mapping_rejects_dotted_override_without_field():
    with pytest.raises(ParameterError):
        scenario_from_mapping({"overrides": {"link": 3.0}})
