"""Command-line front end wiring scenario files to the engine modules.

Every invocation runs one command in one process.  Commands that produce
files take an output directory (``--out``), write their artifacts there,
and finish by writing a ``manifest.json`` at its root listing every
output with its SHA-256 digest — re-running a simulation command with
the same scenario and seed reproduces each listed file bit for bit.

Exit codes: 0 success (positive key where applicable), 2 zero key,
3 validation error, 4 runtime abort.  On abort, partial outputs are
removed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from ._table import write_table
from .keygen import (
    ReconciliationError,
    SessionAbort,
    run_session,
)
from .keyrate import (
    NoPositiveKeyError,
    SweepRow,
    click_probability,
    max_tolerable_loss,
    qber_total,
    read_dataset_csv,
    skb_per_pulse,
    sweep,
    write_sweep_csv,
)
from .montecarlo import (
    NO_TRUTH_STATE,
    Scenario,
    read_tags,
    read_tags_csv,
    simulate_g2_histogram,
    simulate_run,
    write_tags,
    write_tags_csv,
)
from .params import (
    ParameterError,
    ScenarioConfig,
    load_scenario,
    loss_to_length,
)
from .polcomp import (
    CompensatorState,
    PolarizationDrift,
    _measured_qber,
    compensate,
    track_compensation,
    write_trace_csv,
)
from .tagproc import (
    InsufficientStatisticsError,
    correlate,
    fit_lifetime,
    g2_zero,
    optimize_temporal_window,
    read_histogram_csv,
    write_histogram_csv,
)

__all__ = [
    "EXIT_OK",
    "EXIT_ZERO_KEY",
    "EXIT_VALIDATION",
    "EXIT_RUNTIME",
    "MANIFEST_NAME",
    "main",
    "entrypoint",
]

EXIT_OK = 0
EXIT_ZERO_KEY = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1

_MTL_REGIMES_DEFAULT = "asymptotic,1e8,1e5,1e3"
_STATE_CODES = {"H": 0, "V": 1, "D": 2, "A": 3}


class _UsageError(Exception):
    """Bad command-line arguments (maps to the validation exit code)."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that defers exiting to :func:`main`."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# run directory and manifest
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _json_default(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, default=_json_default) + "\n"
    )


class RunDirectory:
    """Collects a command's output files and writes the manifest.

    The target directory must be new or empty so that every file under a
    run directory is listed in exactly one manifest.  Used as a context
    manager, it removes everything registered so far when the block
    raises, so a command that aborts partway leaves no partial outputs
    behind; ``finalize`` is called explicitly on success.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._created_dir = not self.path.exists()
        if self._created_dir:
            self.path.mkdir(parents=True)
        elif not self.path.is_dir():
            raise ParameterError("out", f"not a directory: {self.path}")
        elif any(self.path.iterdir()):
            raise ParameterError(
                "out",
                f"directory {self.path} is not empty; outputs of one run "
                "must live under a fresh directory with their manifest",
            )
        self._outputs: list[Path] = []

    def file(self, name: str) -> Path:
        """Register an output file name and return its full path."""
        target = self.path / name
        if target in self._outputs:
            raise ParameterError("out", f"duplicate output name: {name}")
        self._outputs.append(target)
        return target

    def __enter__(self) -> "RunDirectory":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            return
        for target in self._outputs:
            target.unlink(missing_ok=True)
        manifest = self.path / MANIFEST_NAME
        manifest.unlink(missing_ok=True)
        if self._created_dir and not any(self.path.iterdir()):
            self.path.rmdir()

    def finalize(
        self, args: argparse.Namespace, scenario_name: str, seed: int | None
    ) -> None:
        """Write the manifest of the command ``args`` ran."""
        outputs = [
            {
                "name": target.name,
                "bytes": target.stat().st_size,
                "sha256": _sha256(target),
            }
            for target in self._outputs
        ]
        scenario = args.scenario
        manifest = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "tool_version": __version__,
            "command": args.command,
            "scenario_path": (
                None if scenario is None else str(Path(scenario).resolve())
            ),
            "scenario_name": scenario_name,
            "seed": seed,
            "output_dir": str(self.path.resolve()),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": outputs,
        }
        _write_json(self.path / MANIFEST_NAME, manifest)


def _check_disk_space(directory: Path, needed_bytes: float) -> None:
    free = shutil.disk_usage(directory).free
    if free < needed_bytes:
        raise ParameterError(
            "out",
            f"insufficient disk space: need about {needed_bytes / 1e6:.0f}"
            f" MB, {free / 1e6:.0f} MB free",
        )


# ---------------------------------------------------------------------------
# shared option handling
# ---------------------------------------------------------------------------

def _require_file(path: Path, option: str, kind: str) -> Path:
    """``path`` if it exists; a missing input is a validation error."""
    if not path.exists():
        raise ParameterError(option, f"{kind} file not found: {path}")
    return path


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    if args.scenario is not None:
        return load_scenario(args.scenario)
    return ScenarioConfig()


def _build_scenario(
    config: ScenarioConfig, args: argparse.Namespace
) -> Scenario:
    """Scenario from config plus per-command simulation overrides."""
    sim = config.simulation
    updates: dict = {}
    if getattr(args, "pulses", None) is not None:
        updates["n_pulses"] = args.pulses
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "state", None) is not None:
        updates["encoded_state"] = _STATE_CODES[args.state]
    if updates:
        sim = dataclasses.replace(sim, **updates)
    return Scenario.from_config(
        dataclasses.replace(config, simulation=sim)
    )


# ---------------------------------------------------------------------------
# keyrate
# ---------------------------------------------------------------------------

def _cmd_keyrate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    point = config.point
    if args.loss is not None:
        point = point.with_loss(args.loss)
    report = skb_per_pulse(point, args.regime, args.block_size)

    print(f"scenario            {config.name}")
    print(f"channel_loss_db     {point.link.channel_loss_db:.4f}")
    print(f"regime              {report.regime}")
    print(f"click_prob          {report.p_c:.6e}")
    print(f"multiphoton_prob    {report.p_m:.6e}")
    print(f"qber_total          {report.e_tot:.6e}")
    print(f"skb_per_pulse       {report.skb_per_pulse:.6e}")
    print(f"skr_bits_per_s      {report.skr:.6e}")
    if report.finite is not None:
        finite = report.finite
        print(f"final_key_bits      {finite.final_key_length}")
        print(f"phase_error_upper   {finite.phase_error_upper:.6e}")
    print(f"positive            {report.positive}")

    if args.out is not None:
        with RunDirectory(args.out) as run:
            row = SweepRow("loss", point.link.channel_loss_db, report)
            write_sweep_csv([row], run.file("keyrate.csv"))
            run.finalize(args, config.name, None)
    return EXIT_OK if report.positive else EXIT_ZERO_KEY


# ---------------------------------------------------------------------------
# mtl
# ---------------------------------------------------------------------------

def _parse_regimes(text: str) -> list[tuple[str, float | None]]:
    """Parse 'asymptotic,1e8,...' into (label, block size) pairs."""
    regimes: list[tuple[str, float | None]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "asymptotic":
            regimes.append((token, None))
            continue
        try:
            block = float(token)
        except ValueError:
            raise ParameterError(
                "regimes",
                f"expected 'asymptotic' or a block size, got {token!r}",
            )
        regimes.append((token, block))
    if not regimes:
        raise ParameterError("regimes", "no regimes requested")
    return regimes


def _cmd_mtl(args: argparse.Namespace) -> int:
    config = _load_config(args)
    point = config.point
    rows = []
    for label, block in _parse_regimes(args.regimes):
        if block is None:
            loss = max_tolerable_loss(point, "asymptotic")
        else:
            loss = max_tolerable_loss(point, "finite", block)
        length = loss_to_length(loss, point.link.fibre_attenuation)
        block_text = "" if block is None else f"{block:.6e}"
        rows.append([label, block_text, f"{loss:.6f}", f"{length:.6f}"])
        print(
            f"regime {label:>12}  mtl_db {loss:8.3f}  length_km "
            f"{length:8.2f}"
        )

    if args.out is not None:
        with RunDirectory(args.out) as run:
            header = ("regime", "block_size", "mtl_db", "length_km")
            write_table(run.file("mtl.csv"), header, rows)
            run.finalize(args, config.name, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_values(args: argparse.Namespace) -> Sequence:
    if args.axis == "dataset":
        if args.dataset is None:
            raise ParameterError(
                "dataset", "--axis dataset requires --dataset FILE"
            )
        return read_dataset_csv(
            _require_file(Path(args.dataset), "dataset", "dataset")
        )
    if args.values is not None:
        tokens = [token for token in args.values.split(",") if token]
        try:
            return [float(token) for token in tokens]
        except ValueError as exc:
            raise ParameterError("values", str(exc)) from None
    if None in (args.start, args.stop, args.points):
        raise ParameterError(
            "values",
            "provide either --values or all of --start/--stop/--points",
        )
    if args.points < 2:
        raise ParameterError("points", "grid needs at least 2 points")
    return np.linspace(args.start, args.stop, args.points).tolist()


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    values = _sweep_values(args)
    with RunDirectory(args.out) as run:
        rows = sweep(
            config.point,
            args.axis,
            values,
            regime=args.regime,
            block_size=args.block_size,
        )
        positive = sum(row.report.positive for row in rows)
        print(f"swept {len(rows)} points on axis {args.axis}")
        print(f"positive_points     {positive}")
        write_sweep_csv(rows, run.file("sweep.csv"))
        run.finalize(args, config.name, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    scenario = _build_scenario(config, args)

    with RunDirectory(args.out) as run:
        if args.g2:
            histogram = simulate_g2_histogram(
                scenario, bin_width_ps=args.bin_width
            )
            write_histogram_csv(histogram, run.file("g2_histogram.csv"))
            print(
                f"simulated {scenario.n_pulses} pulses into a pair "
                f"histogram ({histogram.total()} coincidences)"
            )
        else:
            # 10-byte records, one per detector tag plus one per pulse
            # for the reference channel (CSV costs roughly 4x), and a
            # 9-byte transmitter record per photon event or tagged window
            per_record = 40.0 if args.format == "csv" else 10.0
            click = click_probability(scenario.operating_point)
            _check_disk_space(
                run.path,
                scenario.n_pulses
                * (per_record * (1.1 + 2.0 * click) + 9.0 * 2.0 * click),
            )
            alice, stream = simulate_run(scenario)
            if args.format == "csv":
                write_tags_csv(stream, run.file("tags.csv"))
            else:
                write_tags(stream, run.file("tags.bin"))
            np.save(run.file("alice_states.npy"), alice.as_records())
            print(
                f"simulated {scenario.n_pulses} pulses -> "
                f"{len(stream)} detector tags"
            )
        run.finalize(args, config.name, scenario.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _read_stream(path: Path):
    _require_file(path, "tags", "tag")
    if path.stat().st_size == 0:
        raise ParameterError("tags", f"tag file is empty: {path}")
    if path.suffix == ".csv":
        return read_tags_csv(path)
    return read_tags(path)


def _truth_error_fraction(stream) -> tuple[int, int]:
    """(matched-basis photon tags, errors among them) from truth labels."""
    use = (~stream.dark) & (stream.truth_state != NO_TRUTH_STATE)
    channel = stream.channel[use]
    truth = stream.truth_state[use]
    matched = (channel >> 1) == (truth >> 1)
    errors = matched & ((channel & 1) != (truth & 1))
    return int(matched.sum()), int(errors.sum())


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = _load_config(args)
    point = config.point
    # the histogram is small; a bad one fails before the tag file is read
    histogram = None
    if args.g2_histogram is not None:
        path = _require_file(
            Path(args.g2_histogram), "g2_histogram", "histogram"
        )
        histogram = read_histogram_csv(path)
    with RunDirectory(args.out) as run:
        stream = _read_stream(Path(args.tags))
        if len(stream) == 0:
            raise ParameterError(
                "tags", "tag file contains no detector events"
            )

        response = correlate(stream, bin_width_ps=args.bin_width)
        report: dict = {
            "n_pulses": stream.n_pulses,
            "detector_tags": len(stream),
            "dark_tags": int(stream.dark.sum()),
        }

        matched, errors = _truth_error_fraction(stream)
        if matched > 0:
            report["matched_photon_tags"] = matched
            report["truth_error_fraction"] = errors / matched

        try:
            report["lifetime_ps_fit"] = fit_lifetime(response)
        except InsufficientStatisticsError as exc:
            report["lifetime_ps_fit"] = None
            report["lifetime_fit_note"] = str(exc)

        window = optimize_temporal_window(point, response)
        report["window"] = {
            "start_ps": window.start_ps,
            "width_ps": window.width_ps,
            "acceptance": window.acceptance,
            "skb_per_pulse_filtered": window.report.skb_per_pulse,
            "skb_per_pulse_unfiltered": (
                window.baseline_report.skb_per_pulse
            ),
        }

        if histogram is not None:
            lifetime = (
                report.get("lifetime_ps_fit") or point.source.lifetime
            )
            estimate = g2_zero(
                histogram,
                point.protocol.pulse_period_ps,
                lifetime_ps=lifetime,
            )
            report["g2_zero"] = {
                "value": estimate.value,
                "sigma": estimate.sigma,
                "center_counts": estimate.center_counts,
                "side_counts": estimate.side_counts,
            }

        for key in (
            "n_pulses",
            "detector_tags",
            "dark_tags",
            "truth_error_fraction",
            "lifetime_ps_fit",
        ):
            if key in report and report[key] is not None:
                print(f"{key:<22} {report[key]}")
        print(
            f"window                 start={window.start_ps:.1f} ps "
            f"width={window.width_ps:.1f} ps "
            f"acceptance={window.acceptance:.4f}"
        )
        if "g2_zero" in report:
            g2 = report["g2_zero"]
            print(
                f"g2_zero                {g2['value']:.4f} "
                f"+/- {g2['sigma']:.4f}"
            )

        write_histogram_csv(response, run.file("response_histogram.csv"))
        _write_json(run.file("report.json"), report)
        run.finalize(args, config.name, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# session
# ---------------------------------------------------------------------------

def _cmd_session(args: argparse.Namespace) -> int:
    config = _load_config(args)
    scenario = _build_scenario(config, args)
    with RunDirectory(args.out) as run:
        result = run_session(scenario, args.disclose)
        ledger = result.ledger

        payload = {
            "scenario": config.name,
            "ledger": ledger.as_dict(),
            "transcript": [list(entry) for entry in result.transcript],
            "skb_per_pulse": result.skb_per_pulse,
            "skr_bits_per_s": result.skr_bits_per_second,
        }
        if result.finite_report is not None:
            finite = result.finite_report
            payload["finite_report"] = {
                "n_nmp_lower": finite.n_nmp_lower,
                "phase_error_upper": finite.phase_error_upper,
                "lambda_ec": finite.lambda_ec,
                "skb_per_pulse": finite.skb_per_pulse,
                "final_key_length": finite.final_key_length,
                "positive": finite.positive,
            }

        for label, value in (
            ("n_sent", ledger.n_sent),
            ("raw_z", ledger.raw_z),
            ("raw_x", ledger.raw_x),
            ("observed_error_x", f"{ledger.observed_error_x:.6f}"),
            ("corrected_errors", ledger.corrected_errors),
            ("reconciliation_leak", ledger.reconciliation_leak),
            ("verify_rounds", ledger.verify_rounds),
            ("final_key_bits", ledger.final_length),
            ("skb_per_pulse", f"{result.skb_per_pulse:.6e}"),
            ("skr_bits_per_s", f"{result.skr_bits_per_second:.6e}"),
        ):
            print(f"{label:<20} {value}")

        _write_json(run.file("ledger.json"), payload)
        for name, key in (
            ("key_alice.bin", result.alice_key),
            ("key_bob.bin", result.bob_key),
        ):
            run.file(name).write_bytes(np.packbits(key).tobytes())
        run.finalize(args, config.name, scenario.seed)
    return EXIT_OK if ledger.final_length > 0 else EXIT_ZERO_KEY


# ---------------------------------------------------------------------------
# polcomp
# ---------------------------------------------------------------------------

def _drift_from_seed(seed: int, drift_rate: float) -> PolarizationDrift:
    rng = np.random.default_rng(seed)
    z = 2.0 * rng.random() - 1.0
    azimuth = 2.0 * math.pi * rng.random()
    radial = math.sqrt(max(0.0, 1.0 - z * z))
    return PolarizationDrift.from_axis_angle(
        (radial * math.cos(azimuth), radial * math.sin(azimuth), z),
        rng.random() * math.pi,
        drift_rate=drift_rate,
        seed=seed,
    )


def _cmd_polcomp(args: argparse.Namespace) -> int:
    if args.steps < 0:
        raise ParameterError("steps", "must be >= 0")
    config = _load_config(args)
    point = config.point
    drift = _drift_from_seed(args.drift_seed, args.drift_rate)
    floor = qber_total(point)

    probe_rng = (
        np.random.default_rng(args.drift_seed)
        if args.probe_photons is not None
        else None
    )

    def probe(state: CompensatorState) -> float:
        return _measured_qber(
            drift,
            state,
            floor,
            probe_photons=args.probe_photons,
            rng=probe_rng,
        )

    static = compensate(
        CompensatorState(plates=args.plates), probe, budget=args.budget
    )
    static_residual = _measured_qber(drift, static, floor) - floor
    print(f"qber_floor          {floor:.6e}")
    print(f"drift_angle_rad     {drift.rotation_angle:.6f}")
    print(f"static_probes       {static.iterations}")
    print(f"static_residual     {static_residual:.6e}")

    payload = {
        "scenario": config.name,
        "qber_floor": floor,
        "drift_seed": args.drift_seed,
        "drift_rate": args.drift_rate,
        "plates": args.plates,
        "angles": [float(a) for a in static.angles],
        "static_probes": static.iterations,
        "static_residual": static_residual,
        "budget_exhausted": static.budget_exhausted,
    }

    trace = None
    if args.steps > 0:
        _, _, trace = track_compensation(
            drift,
            static,
            point,
            n_steps=args.steps,
            dt=args.dt,
            probes_per_step=args.probes_per_step,
            probe_photons=args.probe_photons,
            probe_seed=args.drift_seed,
        )
        payload["tracking"] = {
            "steps": args.steps,
            "dt_s": args.dt,
            "mean_residual": float(trace.residual_qber.mean() - floor),
            "max_residual": float(trace.residual_qber.max() - floor),
        }
        print(
            f"tracking_residual   mean "
            f"{payload['tracking']['mean_residual']:.6e} max "
            f"{payload['tracking']['max_residual']:.6e}"
        )

    with RunDirectory(args.out) as run:
        _write_json(run.file("compensation.json"), payload)
        if trace is not None:
            write_trace_csv(trace, run.file("trace.csv"))
        run.finalize(args, config.name, args.drift_seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sps-bb84",
        description=(
            "Secret-key analytics and event-level simulation for a "
            "single-photon-source BB84 link."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument(
            "--scenario",
            metavar="FILE",
            help="scenario JSON (defaults to built-in nominal values)",
        )
        return sub

    keyrate = add(
        "keyrate", "evaluate the secret-key rate at one point",
        _cmd_keyrate,
    )
    keyrate.add_argument("--loss", type=float, metavar="DB")
    keyrate.add_argument(
        "--regime", choices=("asymptotic", "finite"), default="asymptotic"
    )
    keyrate.add_argument("--block-size", type=float, metavar="N")
    keyrate.add_argument("--out", metavar="DIR")

    mtl = add("mtl", "solve maximum tolerable loss per regime", _cmd_mtl)
    mtl.add_argument(
        "--regimes",
        default=_MTL_REGIMES_DEFAULT,
        help="comma list of 'asymptotic' and/or block sizes",
    )
    mtl.add_argument("--out", metavar="DIR")

    swp = add("sweep", "evaluate the key rate over a grid", _cmd_sweep)
    swp.add_argument(
        "--axis",
        choices=("loss", "clock_rate", "dataset"),
        default="loss",
    )
    swp.add_argument("--start", type=float)
    swp.add_argument("--stop", type=float)
    swp.add_argument("--points", type=int)
    swp.add_argument("--values", metavar="LIST", help="comma list")
    swp.add_argument("--dataset", metavar="FILE")
    swp.add_argument(
        "--regime", choices=("asymptotic", "finite"), default="asymptotic"
    )
    swp.add_argument("--block-size", type=float, metavar="N")
    swp.add_argument("--out", required=True, metavar="DIR")

    sim = add(
        "simulate", "generate a labelled time-tag stream", _cmd_simulate
    )
    sim.add_argument("--pulses", type=int, metavar="N")
    sim.add_argument("--seed", type=int, metavar="N")
    sim.add_argument("--state", choices=tuple(_STATE_CODES))
    sim.add_argument("--format", choices=("bin", "csv"), default="bin")
    sim.add_argument(
        "--g2",
        action="store_true",
        help="write a two-detector pair histogram instead of tags",
    )
    sim.add_argument("--bin-width", type=float, default=10.0, metavar="PS")
    sim.add_argument("--out", required=True, metavar="DIR")

    ana = add("analyze", "estimate properties of a tag stream", _cmd_analyze)
    ana.add_argument("--tags", required=True, metavar="FILE")
    ana.add_argument("--g2-histogram", metavar="FILE")
    ana.add_argument("--bin-width", type=float, default=10.0, metavar="PS")
    ana.add_argument("--out", required=True, metavar="DIR")

    ses = add(
        "session", "simulate and post-process one key session", _cmd_session
    )
    ses.add_argument("--pulses", type=int, metavar="N")
    ses.add_argument("--seed", type=int, metavar="N")
    ses.add_argument(
        "--disclose",
        type=float,
        default=0.10,
        metavar="F",
        help="fraction of the estimation basis revealed",
    )
    ses.add_argument("--out", required=True, metavar="DIR")

    pol = add(
        "polcomp", "compensate a drifted fibre and track it", _cmd_polcomp
    )
    pol.add_argument("--drift-seed", type=int, default=0, metavar="N")
    pol.add_argument("--drift-rate", type=float, default=0.0, metavar="R")
    pol.add_argument("--plates", type=int, choices=(2, 3), default=3)
    pol.add_argument("--budget", type=int, default=200, metavar="N")
    pol.add_argument("--steps", type=int, default=0, metavar="N")
    pol.add_argument("--dt", type=float, default=0.05, metavar="S")
    pol.add_argument("--probes-per-step", type=int, default=6, metavar="N")
    pol.add_argument("--probe-photons", type=int, metavar="N")
    pol.add_argument("--out", required=True, metavar="DIR")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every ``main``."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.handler(args)
    except (_UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoPositiveKeyError as exc:
        print(f"no positive key: {exc}", file=sys.stderr)
        return EXIT_ZERO_KEY
    except (
        SessionAbort,
        ReconciliationError,
        InsufficientStatisticsError,
    ) as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    """Console-script shim."""
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
