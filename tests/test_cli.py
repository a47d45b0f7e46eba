"""End-to-end tests of the command-line front end.

Commands run in-process through ``main`` so exit codes, stdout, and the
files under each run directory can be asserted directly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sps_bb84 import cli
from sps_bb84.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    EXIT_ZERO_KEY,
    MANIFEST_NAME,
    main,
)
from sps_bb84.tagproc import read_histogram_csv

REPO = Path(__file__).resolve().parents[1]
TABLE1 = REPO / "scenarios" / "table1.json"
IMPROVED = REPO / "scenarios" / "improved.json"


def _write_scenario(path: Path, overrides: dict, **extra) -> Path:
    payload = {"base": str(TABLE1), "overrides": overrides, **extra}
    path.write_text(json.dumps(payload))
    return path


def _manifest(run_dir: Path) -> dict:
    return json.loads((run_dir / MANIFEST_NAME).read_text())


def _output_hashes(run_dir: Path) -> dict[str, str]:
    manifest = _manifest(run_dir)
    return {o["name"]: o["sha256"] for o in manifest["outputs"]}


@pytest.fixture(scope="module")
def loss10_scenario(tmp_path_factory) -> Path:
    return _write_scenario(
        tmp_path_factory.mktemp("scn") / "loss10.json",
        {
            "link.channel_loss_db": 10.0,
            "simulation.n_pulses": 4_000_000,
            "simulation.seed": 900,
        },
    )


@pytest.fixture(scope="module")
def sim10_dir(tmp_path_factory, loss10_scenario) -> Path:
    out = tmp_path_factory.mktemp("runs") / "sim10"
    code = main(
        [
            "simulate",
            "--scenario",
            str(loss10_scenario),
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

class TestParsing:
    def test_unknown_command_is_validation_error(self, capsys):
        assert main(["bogus"]) == EXIT_VALIDATION
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_required_out(self, capsys):
        assert main(["simulate"]) == EXIT_VALIDATION
        assert "--out" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "sps-bb84" in capsys.readouterr().out

    def test_unreadable_scenario(self, tmp_path, capsys):
        assert (
            main(["keyrate", "--scenario", str(tmp_path / "nope.json")])
            == EXIT_VALIDATION
        )
        assert "not found" in capsys.readouterr().err

    # the simulator picks its own thread count; no knob sets it
    def test_threads_option_is_gone(self, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(
            [
                "simulate",
                "--pulses",
                "1000",
                "--threads",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["simulate", "--g2", "--pulses", "1000", "--bin-width", "inf"],
             "bin_width_ps"),
            (["analyze", "--tags", "{tags}", "--bin-width", "inf"],
             "bin_width_ps"),
            (["polcomp", "--drift-rate", "inf", "--steps", "3"],
             "drift_rate"),
            (["polcomp", "--dt", "inf", "--steps", "3"], "dt"),
            (["mtl", "--regimes", "inf"], "block_size"),
            (["keyrate", "--regime", "finite", "--block-size", "inf"],
             "block_size"),
        ],
        ids=[
            "simulate-g2", "analyze", "drift-rate", "dt", "mtl", "keyrate"
        ],
    )
    def test_non_finite_option_is_validation_error(
        self, tmp_path, capsys, argv, field
    ):
        tags = tmp_path / "tags.csv"
        tags.write_text(
            "time_ps,channel,truth_state,truth_photons,dark\n"
            "0,REF,,0,0\n100,H,H,1,0\n4386,REF,,0,0\n"
        )
        out_dir = tmp_path / "run"
        argv = [arg.format(tags=tags) for arg in argv]
        assert main([*argv, "--out", str(out_dir)]) == EXIT_VALIDATION
        assert f"error: {field}: " in capsys.readouterr().err
        assert not out_dir.exists()

    def test_thread_env_var_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPS_BB84_THREADS", "lots")
        code = main(
            ["simulate", "--pulses", "1000", "--out", str(tmp_path / "s")]
        )
        assert code == EXIT_OK

    def test_parser_built_once_across_calls(self, tmp_path, monkeypatch):
        calls = []
        build = cli.build_parser

        def counting():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            codes = [
                main(["bogus"]),
                main(["simulate", "--out", str(tmp_path / "a"), "--nope"]),
                main(
                    [
                        "simulate",
                        "--pulses",
                        "1000",
                        "--out",
                        str(tmp_path / "b"),
                    ]
                ),
            ]
        finally:
            cli._parser.cache_clear()
        assert codes == [EXIT_VALIDATION, EXIT_VALIDATION, EXIT_OK]
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# keyrate
# ---------------------------------------------------------------------------

class TestKeyrate:
    def test_asymptotic_at_project_defaults(self, capsys):
        assert main(["keyrate", "--loss", "25.49"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "skb_per_pulse       3.766961e-05" in out
        assert "positive            True" in out

    def test_zero_key_exit_code(self, capsys):
        assert main(["keyrate", "--loss", "40"]) == EXIT_ZERO_KEY
        out = capsys.readouterr().out
        assert "skb_per_pulse       0.000000e+00" in out
        assert "positive            False" in out

    def test_finite_regime_with_block_size(self, capsys):
        code = main(
            [
                "keyrate",
                "--loss",
                "25.49",
                "--regime",
                "finite",
                "--block-size",
                "1e8",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        skb = float(out.split("skb_per_pulse")[1].split()[0])
        assert skb >= 2e-5
        assert "final_key_bits" in out

    def test_csv_and_manifest_written(self, tmp_path, capsys):
        out_dir = tmp_path / "kr"
        code = main(
            ["keyrate", "--loss", "10", "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        manifest = _manifest(out_dir)
        assert manifest["command"] == "keyrate"
        assert [o["name"] for o in manifest["outputs"]] == ["keyrate.csv"]
        body = (out_dir / "keyrate.csv").read_text().splitlines()
        assert body[0].startswith("axis_value,p_c,")
        assert body[1].startswith("10.0,")

    def test_negative_loss_is_validation_error(self, capsys):
        assert main(["keyrate", "--loss", "-3"]) == EXIT_VALIDATION
        assert "channel_loss_db" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mtl
# ---------------------------------------------------------------------------

class TestMtl:
    def test_four_regimes_ordered(self, tmp_path, capsys):
        out_dir = tmp_path / "mtl"
        code = main(
            ["mtl", "--scenario", str(TABLE1), "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        rows = (out_dir / "mtl.csv").read_text().splitlines()[1:]
        values = {
            row.split(",")[0]: float(row.split(",")[2]) for row in rows
        }
        assert values["asymptotic"] == pytest.approx(29.292, abs=5e-3)
        assert values["1e8"] == pytest.approx(29.280, abs=5e-3)
        assert values["1e5"] == pytest.approx(28.954, abs=5e-3)
        assert values["1e3"] == pytest.approx(24.807, abs=5e-3)
        assert (
            values["asymptotic"]
            > values["1e8"]
            > values["1e5"]
            > values["1e3"]
        )

    def test_improved_scenario_extends_reach(self, capsys):
        assert (
            main(
                [
                    "mtl",
                    "--scenario",
                    str(IMPROVED),
                    "--regimes",
                    "asymptotic",
                ]
            )
            == EXIT_OK
        )
        improved = float(capsys.readouterr().out.split("mtl_db")[1].split()[0])
        assert (
            main(
                [
                    "mtl",
                    "--scenario",
                    str(TABLE1),
                    "--regimes",
                    "asymptotic",
                ]
            )
            == EXIT_OK
        )
        table1 = float(capsys.readouterr().out.split("mtl_db")[1].split()[0])
        assert improved > table1

    def test_degenerate_scenario_reports_no_key(self, tmp_path, capsys):
        # multiphoton bound above the click probability even at zero
        # loss: nothing to extract anywhere
        scenario = _write_scenario(
            tmp_path / "degenerate.json",
            {
                "source.mean_photon_number": 0.999,
                "source.g2_zero": 1.0,
                "link.transmitter_efficiency": 1.0,
                "link.receiver_efficiency": 0.01,
                "link.dark_count_prob": 0.0,
            },
        )
        code = main(["mtl", "--scenario", str(scenario)])
        assert code == EXIT_ZERO_KEY
        assert "zero loss" in capsys.readouterr().err

    def test_bad_regime_token(self, capsys):
        assert (
            main(["mtl", "--regimes", "sideways"]) == EXIT_VALIDATION
        )
        assert "sideways" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class TestSweep:
    def test_loss_grid_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "swp"
        code = main(
            [
                "sweep",
                "--values",
                "0,10,20,25,30",
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert "positive_points     4" in capsys.readouterr().out
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 6
        ten_db = rows[2].split(",")
        assert float(ten_db[1]) == pytest.approx(4.6923716593e-3)

    def test_linspace_grid(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--start",
                "0",
                "--stop",
                "20",
                "--points",
                "5",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == EXIT_OK
        rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == [
            "0.0",
            "5.0",
            "10.0",
            "15.0",
            "20.0",
        ]

    def test_grid_specification_required(self, tmp_path, capsys):
        assert (
            main(["sweep", "--out", str(tmp_path / "s")])
            == EXIT_VALIDATION
        )
        assert "--values" in capsys.readouterr().err

    def test_non_numeric_value_is_validation_error(self, tmp_path, capsys):
        out_dir = tmp_path / "s"
        code = main(["sweep", "--values", "1,abc", "--out", str(out_dir)])
        assert code == EXIT_VALIDATION
        assert "'abc'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_dataset_axis(self, tmp_path, capsys):
        dataset = tmp_path / "sources.csv"
        dataset.write_text(
            "label,mean_photon_number,g2_zero\n"
            "bright,0.3,0.05\n"
            "dim,0.05,0.01\n"
        )
        out_dir = tmp_path / "ds"
        code = main(
            [
                "sweep",
                "--axis",
                "dataset",
                "--dataset",
                str(dataset),
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("bright,")
        assert rows[2].startswith("dim,")

    def test_missing_dataset_is_validation_error(self, tmp_path, capsys):
        out_dir = tmp_path / "ds"
        code = main(
            [
                "sweep",
                "--axis",
                "dataset",
                "--dataset",
                str(tmp_path / "nosuch.csv"),
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "dataset: dataset file not found" in capsys.readouterr().err
        assert not out_dir.exists()


# ---------------------------------------------------------------------------
# simulate + analyze
# ---------------------------------------------------------------------------

class TestSimulateAnalyze:
    def test_simulate_manifest_lists_outputs(self, sim10_dir):
        manifest = _manifest(sim10_dir)
        names = {o["name"] for o in manifest["outputs"]}
        assert names == {"tags.bin", "alice_states.npy"}
        assert manifest["seed"] == 900
        for output in manifest["outputs"]:
            target = sim10_dir / output["name"]
            assert target.stat().st_size == output["bytes"]

    def test_every_tag_window_resolves_in_alice_states(self, sim10_dir):
        from sps_bb84.montecarlo import read_tags

        records = np.load(sim10_dir / "alice_states.npy")
        assert records.dtype.names == ("pulse", "state")
        assert records["pulse"].dtype == np.dtype("<i8")
        assert records["state"].dtype == np.uint8
        assert (np.diff(records["pulse"]) > 0).all()
        assert (records["state"] <= 3).all()
        stream = read_tags(sim10_dir / "tags.bin")
        windows = stream.window_index()
        windows = windows[(windows >= 0) & (windows < stream.n_pulses)]
        assert len(windows) > 0
        assert np.isin(windows, records["pulse"]).all()

    def test_double_run_is_bit_identical(
        self, tmp_path, loss10_scenario, sim10_dir, capsys
    ):
        rerun = tmp_path / "rerun"
        code = main(
            [
                "simulate",
                "--scenario",
                str(loss10_scenario),
                "--out",
                str(rerun),
            ]
        )
        assert code == EXIT_OK
        assert _output_hashes(rerun) == _output_hashes(sim10_dir)

    def test_seed_changes_the_stream(
        self, tmp_path, loss10_scenario, sim10_dir, capsys
    ):
        other = tmp_path / "other"
        code = main(
            [
                "simulate",
                "--scenario",
                str(loss10_scenario),
                "--seed",
                "901",
                "--out",
                str(other),
            ]
        )
        assert code == EXIT_OK
        assert (
            _output_hashes(other)["tags.bin"]
            != _output_hashes(sim10_dir)["tags.bin"]
        )

    def test_analyze_recovers_source_properties(
        self, tmp_path, loss10_scenario, sim10_dir, capsys
    ):
        out_dir = tmp_path / "ana"
        code = main(
            [
                "analyze",
                "--tags",
                str(sim10_dir / "tags.bin"),
                "--scenario",
                str(loss10_scenario),
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["n_pulses"] == 4_000_000
        assert report["lifetime_ps_fit"] == pytest.approx(
            592.5, rel=0.05
        )
        assert report["truth_error_fraction"] < 1.5e-3
        window = report["window"]
        # width lives on the 10 ps histogram bin grid, so "the whole
        # period" may exceed the exact period by up to one bin
        assert 0 < window["width_ps"] <= 4385.965 + 10.0
        assert (
            window["skb_per_pulse_filtered"]
            >= window["skb_per_pulse_unfiltered"]
        )
        histogram = read_histogram_csv(
            out_dir / "response_histogram.csv"
        )
        assert histogram.total() == report["detector_tags"]

    def test_analyze_empty_tag_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.touch()
        out_dir = tmp_path / "ana"
        code = main(
            ["analyze", "--tags", str(empty), "--out", str(out_dir)]
        )
        assert code == EXIT_VALIDATION
        assert "empty" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    def test_simulate_single_pulse_is_validation_error(
        self, tmp_path, capsys, fmt
    ):
        # a tag file with one reference tag cannot be read back, so the
        # writer refuses it before anything lands in the run directory
        out_dir = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--pulses",
                "1",
                "--format",
                fmt,
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "error: n_pulses: " in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "row", ["100,H,Q,1,0", "100.5,H,H,1,0"], ids=["state", "time"]
    )
    def test_analyze_malformed_tag_csv(self, tmp_path, capsys, row):
        tags = tmp_path / "bad.csv"
        tags.write_text(
            "time_ps,channel,truth_state,truth_photons,dark\n"
            f"0,REF,,0,0\n{row}\n4386,REF,,0,0\n"
        )
        out_dir = tmp_path / "ana"
        code = main(["analyze", "--tags", str(tags), "--out", str(out_dir)])
        assert code == EXIT_VALIDATION
        assert "tags[1]" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "body", ["5.000,1\n15.000,abc\n", "5.000,1\n15.000\n"],
        ids=["count", "short"],
    )
    def test_analyze_malformed_g2_histogram(
        self, tmp_path, loss10_scenario, sim10_dir, capsys, body
    ):
        histogram = tmp_path / "g2.csv"
        histogram.write_text("delay_ps,counts\n" + body)
        out_dir = tmp_path / "ana"
        code = main(
            [
                "analyze",
                "--tags",
                str(sim10_dir / "tags.bin"),
                "--scenario",
                str(loss10_scenario),
                "--g2-histogram",
                str(histogram),
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "histogram[1]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_analyze_missing_g2_histogram(self, tmp_path, sim10_dir, capsys):
        out_dir = tmp_path / "ana"
        code = main(
            [
                "analyze",
                "--tags",
                str(sim10_dir / "tags.bin"),
                "--g2-histogram",
                str(tmp_path / "nosuch.csv"),
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "g2_histogram: histogram file not found" in err
        assert not out_dir.exists()

    def test_malformed_g2_histogram_fails_before_tag_analysis(
        self, tmp_path, sim10_dir, monkeypatch, capsys
    ):
        calls = []
        original = cli.correlate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "correlate", counting)
        histogram = tmp_path / "g2.csv"
        histogram.write_text("delay_ps,counts\n5.000,1\n15.000,abc\n")
        out_dir = tmp_path / "ana"
        code = main(
            [
                "analyze",
                "--tags",
                str(sim10_dir / "tags.bin"),
                "--g2-histogram",
                str(histogram),
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "histogram[1]" in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

    def test_csv_tag_round_trip(self, tmp_path, loss10_scenario, capsys):
        sim_dir = tmp_path / "sim_csv"
        code = main(
            [
                "simulate",
                "--scenario",
                str(loss10_scenario),
                "--pulses",
                "200000",
                "--format",
                "csv",
                "--out",
                str(sim_dir),
            ]
        )
        assert code == EXIT_OK
        out_dir = tmp_path / "ana_csv"
        code = main(
            [
                "analyze",
                "--tags",
                str(sim_dir / "tags.csv"),
                "--scenario",
                str(loss10_scenario),
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        assert report["n_pulses"] == 200000

    def test_g2_histogram_pipeline(self, tmp_path, capsys):
        scenario = _write_scenario(
            tmp_path / "hbt.json",
            {
                "link.channel_loss_db": 0.0,
                "simulation.n_pulses": 2_000_000,
                "simulation.seed": 31,
            },
        )
        sim_dir = tmp_path / "hbt_sim"
        code = main(
            [
                "simulate",
                "--scenario",
                str(scenario),
                "--g2",
                "--out",
                str(sim_dir),
            ]
        )
        assert code == EXIT_OK
        out_dir = tmp_path / "hbt_ana"
        code = main(
            [
                "analyze",
                "--tags",
                str(sim_dir / "g2_histogram.csv"),
                "--out",
                str(out_dir),
            ]
        )
        # the histogram is not a tag file; analyzing it must fail with
        # a clear validation error rather than nonsense output
        assert code == EXIT_VALIDATION

    def test_g2_estimate_from_histogram(
        self, tmp_path, loss10_scenario, sim10_dir, capsys
    ):
        scenario = _write_scenario(
            tmp_path / "hbt.json",
            {
                "link.channel_loss_db": 0.0,
                "simulation.n_pulses": 2_000_000,
                "simulation.seed": 31,
            },
        )
        sim_dir = tmp_path / "hbt_sim"
        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    str(scenario),
                    "--g2",
                    "--out",
                    str(sim_dir),
                ]
            )
            == EXIT_OK
        )
        out_dir = tmp_path / "ana"
        code = main(
            [
                "analyze",
                "--tags",
                str(sim10_dir / "tags.bin"),
                "--scenario",
                str(loss10_scenario),
                "--g2-histogram",
                str(sim_dir / "g2_histogram.csv"),
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        estimate = report["g2_zero"]
        assert estimate["value"] == pytest.approx(
            0.0243, abs=4 * estimate["sigma"]
        )


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

class TestSession:
    def test_ledger_and_keys(self, tmp_path, loss10_scenario, capsys):
        out_dir = tmp_path / "ses"
        code = main(
            [
                "session",
                "--scenario",
                str(loss10_scenario),
                "--pulses",
                "2000000",
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "final_key_bits       329" in out
        payload = json.loads((out_dir / "ledger.json").read_text())
        ledger = payload["ledger"]
        assert ledger["raw_z"] == 2372
        assert ledger["raw_x"] == 2350
        assert ledger["final_length"] == 329
        assert payload["finite_report"]["final_key_length"] == 329
        alice = (out_dir / "key_alice.bin").read_bytes()
        bob = (out_dir / "key_bob.bin").read_bytes()
        assert alice == bob
        assert len(alice) == math.ceil(329 / 8)
        unpacked = np.unpackbits(np.frombuffer(alice, dtype=np.uint8))
        assert unpacked[:329].sum() > 0

    def test_zero_key_session_exit_code(self, tmp_path, capsys):
        scenario = _write_scenario(
            tmp_path / "deep.json",
            {
                "link.channel_loss_db": 32.0,
                "simulation.n_pulses": 3_000_000,
                "simulation.seed": 901,
            },
        )
        out_dir = tmp_path / "zero"
        code = main(
            ["session", "--scenario", str(scenario), "--out", str(out_dir)]
        )
        assert code == EXIT_ZERO_KEY
        payload = json.loads((out_dir / "ledger.json").read_text())
        assert payload["ledger"]["final_length"] == 0
        assert (out_dir / "key_alice.bin").read_bytes() == b""

    def test_aborted_session_leaves_no_outputs(self, tmp_path, capsys):
        scenario = _write_scenario(
            tmp_path / "dead.json",
            {
                "link.channel_loss_db": 300.0,
                "link.dark_count_prob": 0.0,
                "simulation.n_pulses": 20000,
            },
        )
        out_dir = tmp_path / "dead"
        code = main(
            ["session", "--scenario", str(scenario), "--out", str(out_dir)]
        )
        assert code == EXIT_RUNTIME
        assert "abort" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_output_collision_rejected_before_running(
        self, tmp_path, loss10_scenario, capsys
    ):
        out_dir = tmp_path / "occupied"
        out_dir.mkdir()
        (out_dir / "stale.txt").write_text("leftover")
        code = main(
            [
                "session",
                "--scenario",
                str(loss10_scenario),
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "not empty" in capsys.readouterr().err
        assert (out_dir / "stale.txt").read_text() == "leftover"

    def test_disclose_fraction_validated(self, tmp_path, capsys):
        code = main(
            [
                "session",
                "--disclose",
                "1.5",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_VALIDATION
        assert "disclose_fraction" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# polcomp
# ---------------------------------------------------------------------------

class TestPolcomp:
    def test_static_compensation_report(self, tmp_path, capsys):
        out_dir = tmp_path / "pol"
        code = main(
            [
                "polcomp",
                "--drift-seed",
                "7",
                "--budget",
                "200",
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(
            (out_dir / "compensation.json").read_text()
        )
        assert payload["static_residual"] <= 1e-4
        assert payload["static_probes"] <= 200
        assert len(payload["angles"]) == 3
        assert not payload["budget_exhausted"]

    def test_tracking_trace(self, tmp_path, capsys):
        out_dir = tmp_path / "pol"
        code = main(
            [
                "polcomp",
                "--drift-seed",
                "5",
                "--drift-rate",
                "2e-3",
                "--steps",
                "50",
                "--dt",
                "0.05",
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(
            (out_dir / "compensation.json").read_text()
        )
        assert payload["tracking"]["mean_residual"] < 1e-3
        rows = (out_dir / "trace.csv").read_text().splitlines()
        assert rows[0] == "time_s,drift_angle,residual_qber,probes_used"
        assert len(rows) == 51
        names = {o["name"] for o in _manifest(out_dir)["outputs"]}
        assert names == {"compensation.json", "trace.csv"}

    def test_plate_count_choices(self, tmp_path, capsys):
        code = main(
            [
                "polcomp",
                "--plates",
                "4",
                "--out",
                str(tmp_path / "p"),
            ]
        )
        assert code == EXIT_VALIDATION

    def test_negative_step_count_is_validation_error(self, tmp_path, capsys):
        out_dir = tmp_path / "p"
        code = main(["polcomp", "--steps", "-1", "--out", str(out_dir)])
        assert code == EXIT_VALIDATION
        assert "steps: must be >= 0" in capsys.readouterr().err
        assert not out_dir.exists()


#: stdout and output digests of ``polcomp --drift-rate 0.05 --steps 200``
#: per (seed, extra options); any change to the tracking loop's arithmetic
#: or random streams shows up here
_POLCOMP_GOLDEN = {
    (601, ()): (
        "qber_floor          3.500463e-03\n"
        "drift_angle_rad     2.102868\n"
        "static_probes       166\n"
        "static_residual     1.570808e-10\n"
        "tracking_residual   mean 5.219151e-05 max 1.485107e-04\n",
        "0590dcbce30c8b11f380fab9bc7f8f5c6c80a7c531c4a8681ab2227f7798bdd4",
        "c74266b2da4f907c73e8158b02e2b966e81bc3d43b42584576755c915c0769fa",
    ),
    (601, ("--plates", "2")): (
        "qber_floor          3.500463e-03\n"
        "drift_angle_rad     2.102868\n"
        "static_probes       87\n"
        "static_residual     2.150362e-03\n"
        "tracking_residual   mean 1.964216e-03 max 2.279152e-03\n",
        "7a82548f5bd45536e514ce5b9e5f66a5662f883094671641ead37f89c839308f",
        "d5c5f08da2bb30bdf90b6e4d020f471e4cdf0f04405b6dd7fd862f203ec68b77",
    ),
    (601, ("--probe-photons", "2000")): (
        "qber_floor          3.500463e-03\n"
        "drift_angle_rad     2.102868\n"
        "static_probes       94\n"
        "static_residual     2.056387e-03\n"
        "tracking_residual   mean 1.270195e-01 max 2.475216e-01\n",
        "27a0bc69c39907899070236ac4de4e8a15157c51f96b93b70137f530e0d1224a",
        "82d77b6892e471ccfce1959c91e94b2f6b915726790134b1d82aa55dba10ff10",
    ),
    (7, ()): (
        "qber_floor          3.500463e-03\n"
        "drift_angle_rad     2.436888\n"
        "static_probes       154\n"
        "static_residual     1.203883e-11\n"
        "tracking_residual   mean 2.881356e-04 max 7.785858e-04\n",
        "1e5460d1d949474e9fbf8a39c981aaf6ccc2e6661e8a675b613307318b5242a2",
        "a387d91bccd94a89b42091a65567d76e8314a12d2d7ca1e7041f74c5cec4bcb9",
    ),
    (7, ("--plates", "2")): (
        "qber_floor          3.500463e-03\n"
        "drift_angle_rad     2.436888\n"
        "static_probes       99\n"
        "static_residual     5.992017e-02\n"
        "tracking_residual   mean 5.923243e-02 max 6.322831e-02\n",
        "fbccc42f9b4d69ca274141f7ae7e936c014bb47e8b830bade65f9fb1b8a9f6f1",
        "c18679db9cdbef054ce5f1923c81109b2a505fd944f698d5d4cf16ce0e077aee",
    ),
    (7, ("--probe-photons", "2000")): (
        "qber_floor          3.500463e-03\n"
        "drift_angle_rad     2.436888\n"
        "static_probes       94\n"
        "static_residual     4.215850e-03\n"
        "tracking_residual   mean 2.175760e-01 max 4.500954e-01\n",
        "e14ab31df4b2c529c9a5427ed92daf8663b0bb987d1b25b90b350217062bd26b",
        "5b2e36416588d75d1a05e4fe94f099204c89634a79a358d29b58ae59f666d92b",
    ),
}


@pytest.mark.parametrize(
    "seed, extra",
    list(_POLCOMP_GOLDEN),
    ids=[
        "-".join((str(seed), *extra)).replace("--", "")
        for seed, extra in _POLCOMP_GOLDEN
    ],
)
def test_polcomp_tracking_is_byte_identical(seed, extra, tmp_path, capsys):
    out_dir = tmp_path / "pol"
    code = main(
        [
            "polcomp",
            "--drift-seed",
            str(seed),
            "--drift-rate",
            "0.05",
            "--steps",
            "200",
            *extra,
            "--out",
            str(out_dir),
        ]
    )
    assert code == EXIT_OK
    stdout, json_digest, trace_digest = _POLCOMP_GOLDEN[seed, extra]
    assert capsys.readouterr().out == stdout
    for name, digest in (
        ("compensation.json", json_digest),
        ("trace.csv", trace_digest),
    ):
        data = (out_dir / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name


#: stdout, exit code and output digests of ``session`` per (channel loss
#: dB, misalignment probability or None for the table value, pulses,
#: seed); the 0 dB run corrects hundreds of errors and the 25.49 dB run
#: ends with an empty key
_SESSION_GOLDEN = {
    (0.0, 0.02, 2_000_000, 1): (
        EXIT_OK,
        "n_sent               2000000\n"
        "raw_z                21740\n"
        "raw_x                21719\n"
        "observed_error_x     0.023020\n"
        "corrected_errors     432\n"
        "reconciliation_leak  3526\n"
        "verify_rounds        1\n"
        "final_key_bits       8850\n"
        "skb_per_pulse        4.425000e-03\n"
        "skr_bits_per_s       1.008900e+06\n",
        "74794bc293704372288aa320d77d91b570e2039a788bdc6967fa1f7f2c89af8f",
        "9ac7ccb08712faa76a316da2e1c8bcdbf2402fc4d719de30048ca2496ab0a703",
    ),
    (3.0, None, 2_000_000, 1): (
        EXIT_OK,
        "n_sent               2000000\n"
        "raw_z                11458\n"
        "raw_x                11536\n"
        "observed_error_x     0.000000\n"
        "corrected_errors     8\n"
        "reconciliation_leak  103\n"
        "verify_rounds        1\n"
        "final_key_bits       6078\n"
        "skb_per_pulse        3.039000e-03\n"
        "skr_bits_per_s       6.928920e+05\n",
        "a78d33e23930cb5ca2be8a6f8c44c525470fe8201f1f5d1750b2cd8875f137dc",
        "6b07f7ca9417d69ce559ddf1e9e99e750091d8d2a9e86bf8e2c2e9938e58520a",
    ),
    (10.0, None, 4_000_000, 1): (
        EXIT_OK,
        "n_sent               4000000\n"
        "raw_z                4672\n"
        "raw_x                4834\n"
        "observed_error_x     0.000000\n"
        "corrected_errors     2\n"
        "reconciliation_leak  28\n"
        "verify_rounds        1\n"
        "final_key_bits       1504\n"
        "skb_per_pulse        3.760000e-04\n"
        "skr_bits_per_s       8.572800e+04\n",
        "5b8580467078e377cace783734905d441a7227db1a184ca8740b3f62db7992f9",
        "21986865f1ff392187fb5d2ac5ec7c4831465bf9134519f3d97cdfb2543867eb",
    ),
    (25.49, None, 4_000_000, 1): (
        EXIT_ZERO_KEY,
        "n_sent               4000000\n"
        "raw_z                152\n"
        "raw_x                145\n"
        "observed_error_x     0.000000\n"
        "corrected_errors     0\n"
        "reconciliation_leak  3\n"
        "verify_rounds        1\n"
        "final_key_bits       0\n"
        "skb_per_pulse        0.000000e+00\n"
        "skr_bits_per_s       0.000000e+00\n",
        "ffa1c06c295c12e7445a1b7b3c12bffc6d2cdbc2cd113555424c8fd3e5061fc1",
        hashlib.sha256(b"").hexdigest(),
    ),
}


@pytest.mark.parametrize(
    "config", list(_SESSION_GOLDEN), ids=lambda c: f"{c[0]}dB-seed{c[3]}"
)
def test_session_outputs_are_byte_identical(config, tmp_path, capsys):
    loss, misalignment, pulses, seed = config
    overrides = {"link.channel_loss_db": loss}
    if misalignment is not None:
        overrides["link.misalignment_prob"] = misalignment
    scenario = _write_scenario(tmp_path / "golden.json", overrides)
    out_dir = tmp_path / "ses"
    code = main(
        [
            "session",
            "--scenario",
            str(scenario),
            "--pulses",
            str(pulses),
            "--seed",
            str(seed),
            "--out",
            str(out_dir),
        ]
    )
    exit_code, stdout, ledger_digest, key_digest = _SESSION_GOLDEN[config]
    assert code == exit_code
    assert capsys.readouterr().out == stdout
    for name, digest in (
        ("ledger.json", ledger_digest),
        ("key_alice.bin", key_digest),
        ("key_bob.bin", key_digest),
    ):
        data = (out_dir / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
