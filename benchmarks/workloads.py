"""The benchmark's four workloads: inputs, CLI command sequences, checks.

An op is a fixed sequence of ``sps-bb84`` commands.  After an op the
workload checks every output it wrote and returns facts about it: exact
counts and output digests (compared across runs for determinism) and the
work done (pulses, sifted bits, design points) for throughput metrics.
See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

MANIFEST = "manifest.json"

# C1 maximum tolerable loss of the model at this repository's baseline,
# in dB to three decimals (ROADMAP baseline, tests/test_acceptance.py)
MTL_C1_DB = {
    "asymptotic": 29.292,
    "1e8": 29.280,
    "1e5": 28.954,
    "1e3": 24.807,
}
MTL_REGIMES = "asymptotic,1e11,1e10,1e9,1e8,1e7,1e6,1e5,1e4,1e3"
SWEEP_POINTS = 601
# mtl and sweep pairs per link_design op: one pair takes about 50 ms, and
# a longer op averages out the thread handoffs of the sweep pool
LINK_DESIGN_PAIRS = 8

# published values of the source paper, for the fidelity gaps
PAPER_MTL_DB = 28.11
PAPER_SKB_AT_OPERATING_POINT = 4.80e-5
OPERATING_LOSS_DB = 25.49

G2_REFERENCE = 0.0243
LIFETIME_REFERENCE_PS = 592.5
LIFETIME_TOLERANCE = 0.05
# per-op g2 band, in the estimate's own sigma (see README.md)
G2_FAIL_SIGMA = 5.0
G2_NOTE_SIGMA = 3.0


@dataclass
class Command:
    argv: list[str]
    expected_exit: int


@dataclass
class CommandResult:
    argv: list[str]
    expected_exit: int
    exit_code: int | None
    stdout: str
    stderr: str
    seconds: float


@dataclass
class OpFacts:
    """What the checks of one op established."""

    problems: list[str] = field(default_factory=list)
    # exact values that must repeat for the same op seed
    signature: dict = field(default_factory=dict)
    pulses: int = 0
    sifted_bits: int = 0
    design_points: int = 0
    bytes_written: int = 0
    ledger: dict | None = None
    g2: tuple[float, float] | None = None


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_run_dir(run_dir: Path, facts: OpFacts, label: str) -> dict:
    """Check a run directory against its manifest; return name -> sha256.

    Every file in the directory except the manifest must be listed, with
    the size and digest it has on disk.
    """
    manifest_path = run_dir / MANIFEST
    if not manifest_path.is_file():
        facts.problems.append(f"{label}: no {MANIFEST}")
        return {}
    manifest = json.loads(manifest_path.read_text())
    listed = {entry["name"]: entry for entry in manifest.get("outputs", [])}
    on_disk = {p.name for p in run_dir.iterdir() if p.name != MANIFEST}
    if set(listed) != on_disk:
        facts.problems.append(
            f"{label}: manifest lists {sorted(listed)}, directory holds "
            f"{sorted(on_disk)}"
        )
    digests = {}
    facts.bytes_written += manifest_path.stat().st_size
    for name, entry in sorted(listed.items()):
        path = run_dir / name
        if not path.is_file():
            continue
        size = path.stat().st_size
        digest = sha256_file(path)
        facts.bytes_written += size
        if size != entry.get("bytes") or digest != entry.get("sha256"):
            facts.problems.append(f"{label}: {name} does not match manifest")
        digests[name] = digest
    return digests


def check_exit(result: CommandResult, facts: OpFacts, label: str) -> bool:
    if result.exit_code != result.expected_exit:
        facts.problems.append(
            f"{label}: exit {result.exit_code}, expected "
            f"{result.expected_exit}: {result.stderr.strip()[-300:]}"
        )
        return False
    return True


def stdout_fields(text: str) -> dict[str, str]:
    """``name   value`` lines of a command's stdout."""
    fields = {}
    for line in text.splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            fields[parts[0]] = parts[1].strip()
    return fields


class Workload:
    name = ""
    why = ""

    def prepare(self, inputs: Path, root: Path) -> None:
        """Write the generated input files this workload needs."""

    def commands(
        self, root: Path, inputs: Path, op_dir: Path, op_seed: int
    ) -> list[Command]:
        raise NotImplementedError

    def check(
        self, results: list[CommandResult], op_dir: Path, op_seed: int
    ) -> OpFacts:
        raise NotImplementedError


def write_overlay(path: Path, root: Path, name: str, overrides: dict) -> None:
    base = os.path.relpath(root / "scenarios" / "table1.json", path.parent)
    path.write_text(
        json.dumps({"name": name, "base": base, "overrides": overrides})
    )


class SessionWorkload(Workload):
    """One ``session`` command per op, checked through its ledger."""

    pulses = 0
    expected_exit = 0

    def scenario(self, root: Path, inputs: Path) -> Path:
        raise NotImplementedError

    def commands(self, root, inputs, op_dir, op_seed):
        return [
            Command(
                [
                    "session",
                    "--scenario", str(self.scenario(root, inputs)),
                    "--pulses", str(self.pulses),
                    "--seed", str(op_seed),
                    "--out", str(op_dir / "session"),
                ],
                self.expected_exit,
            )
        ]

    def check(self, results, op_dir, op_seed):
        facts = OpFacts()
        (result,) = results
        if not check_exit(result, facts, "session"):
            return facts
        run_dir = op_dir / "session"
        digests = check_run_dir(run_dir, facts, "session")
        alice = (run_dir / "key_alice.bin").read_bytes()
        bob = (run_dir / "key_bob.bin").read_bytes()
        if alice != bob:
            facts.problems.append("session: key_alice.bin != key_bob.bin")
        ledger = json.loads((run_dir / "ledger.json").read_text())["ledger"]
        closing = (
            ledger["raw_z"]
            + ledger["raw_x"]
            - ledger["disclosed_bits"]
            - ledger["reconciliation_leak"]
            - ledger["verification_bits"]
            - ledger["pa_shortening"]
        )
        if closing != ledger["final_length"] or ledger["final_length"] < 0:
            facts.problems.append(f"session: ledger does not close: {ledger}")
        if ledger["raw_x"] != (
            ledger["disclosed_bits"] + ledger["estimation_discards"]
        ):
            facts.problems.append("session: estimation stage loses bits")
        if len(alice) != math.ceil(ledger["final_length"] / 8):
            facts.problems.append("session: key file length != final_length")
        if ledger["n_sent"] != self.pulses:
            facts.problems.append("session: n_sent != --pulses")
        if (ledger["final_length"] > 0) != (self.expected_exit == 0):
            facts.problems.append("session: exit code and key length disagree")
        printed = stdout_fields(result.stdout)
        if printed.get("final_key_bits") != str(ledger["final_length"]):
            facts.problems.append("session: stdout and ledger disagree")
        facts.ledger = ledger
        facts.pulses = self.pulses
        facts.sifted_bits = ledger["raw_z"] + ledger["raw_x"]
        facts.signature = {
            "exit": result.exit_code,
            "raw_z": ledger["raw_z"],
            "raw_x": ledger["raw_x"],
            "parity_and_failed_tags": ledger["reconciliation_leak"],
            "corrected_errors": ledger["corrected_errors"],
            "verify_rounds": ledger["verify_rounds"],
            "final_bits": ledger["final_length"],
            "outputs": digests,
        }
        return facts


class PaperPoint(SessionWorkload):
    name = "paper_point"
    why = (
        "the paper's operating point at 25.49 dB: the per-pulse simulator "
        "dominates and keygen sees few bits (zero key expected)"
    )
    pulses = 40_000_000
    expected_exit = 2

    def scenario(self, root, inputs):
        return root / "scenarios" / "table1.json"


class MetroSession(SessionWorkload):
    name = "metro_session"
    why = (
        "0 dB link with 2% misalignment: about 2.2e5 sifted Z bits per op, "
        "so post-processing (sift to PA) carries a large share"
    )
    pulses = 20_000_000
    expected_exit = 0

    def prepare(self, inputs, root):
        write_overlay(
            inputs / "metro.json",
            root,
            "metro",
            {"link.channel_loss_db": 0.0, "link.misalignment_prob": 0.02},
        )

    def scenario(self, root, inputs):
        return inputs / "metro.json"


_MTL_LINE = re.compile(r"regime\s+(\S+)\s+mtl_db\s+(\S+)\s+length_km\s+(\S+)")


def parse_mtl(stdout: str) -> dict[str, float]:
    return {
        match.group(1): float(match.group(2))
        for match in _MTL_LINE.finditer(stdout)
    }


class LinkDesign(Workload):
    name = "link_design"
    why = (
        "analytic only: MTL over ten regimes plus a 601-point finite loss "
        "sweep, eight times per op, all in keyrate and finitekey"
    )

    def commands(self, root, inputs, op_dir, op_seed):
        commands = []
        for pair in range(LINK_DESIGN_PAIRS):
            commands += [
                Command(["mtl", "--regimes", MTL_REGIMES], 0),
                Command(
                    [
                        "sweep", "--axis", "loss",
                        "--start", "0", "--stop", "30",
                        "--points", str(SWEEP_POINTS),
                        "--regime", "finite", "--block-size", "1e8",
                        "--out", str(op_dir / f"sweep{pair}"),
                    ],
                    0,
                ),
            ]
        return commands

    def check(self, results, op_dir, op_seed):
        facts = OpFacts()
        pairs = []
        for pair in range(LINK_DESIGN_PAIRS):
            mtl, swept = results[2 * pair:2 * pair + 2]
            pairs.append(self.check_pair(mtl, swept, op_dir / f"sweep{pair}",
                                         facts))
        # the pairs of one op have the same inputs, so the same outputs
        if any(pair != pairs[0] for pair in pairs):
            facts.problems.append("link_design: pairs of one op differ")
        facts.signature = pairs[0]
        return facts

    def check_pair(self, mtl, swept, sweep_dir, facts):
        """Check one mtl and sweep pair; return its exact outputs."""
        signature = {}
        if check_exit(mtl, facts, "mtl"):
            values = parse_mtl(mtl.stdout)
            if len(values) != len(MTL_REGIMES.split(",")):
                facts.problems.append(f"mtl: regimes printed: {values}")
            for regime, expected in MTL_C1_DB.items():
                if round(values.get(regime, math.nan), 3) != expected:
                    facts.problems.append(
                        f"mtl: {regime} is {values.get(regime)}, "
                        f"expected {expected}"
                    )
            facts.design_points += len(values)
            signature["mtl_stdout"] = hashlib.sha256(
                mtl.stdout.encode()
            ).hexdigest()
        if check_exit(swept, facts, "sweep"):
            digests = check_run_dir(sweep_dir, facts, "sweep")
            csv_path = sweep_dir / "sweep.csv"
            rows = csv_path.read_text().splitlines()[1:] if (
                csv_path.is_file()
            ) else []
            if len(rows) != SWEEP_POINTS:
                facts.problems.append(
                    f"sweep: {len(rows)} rows, expected {SWEEP_POINTS}"
                )
            facts.design_points += len(rows)
            signature["sweep_outputs"] = digests
        return signature


class SourceCharacterization(Workload):
    name = "source_characterization"
    why = (
        "lossless source checks: HBT g2 histogram, binary tag write and "
        "read, tagproc estimators and polcomp tracking"
    )
    pulses_per_simulate = 3_000_000

    def prepare(self, inputs, root):
        write_overlay(
            inputs / "lossless.json",
            root,
            "lossless",
            {"link.channel_loss_db": 0.0},
        )

    def commands(self, root, inputs, op_dir, op_seed):
        scenario = str(inputs / "lossless.json")
        pulses = str(self.pulses_per_simulate)
        return [
            Command(
                ["simulate", "--scenario", scenario, "--g2",
                 "--pulses", pulses, "--seed", str(op_seed),
                 "--out", str(op_dir / "g2")],
                0,
            ),
            Command(
                ["simulate", "--scenario", scenario,
                 "--pulses", pulses, "--seed", str(op_seed),
                 "--out", str(op_dir / "tags")],
                0,
            ),
            Command(
                ["analyze", "--scenario", scenario,
                 "--tags", str(op_dir / "tags" / "tags.bin"),
                 "--g2-histogram", str(op_dir / "g2" / "g2_histogram.csv"),
                 "--out", str(op_dir / "analysis")],
                0,
            ),
            Command(
                ["polcomp", "--drift-seed", str(op_seed),
                 "--drift-rate", "0.05", "--steps", "2000",
                 "--out", str(op_dir / "polcomp")],
                0,
            ),
        ]

    def check(self, results, op_dir, op_seed):
        facts = OpFacts()
        labels = ("simulate_g2", "simulate", "analyze", "polcomp")
        for label, result in zip(labels, results):
            if not check_exit(result, facts, label):
                return facts
        for label, sub in zip(labels, ("g2", "tags", "analysis", "polcomp")):
            facts.signature[label] = check_run_dir(op_dir / sub, facts, label)
        facts.pulses = 2 * self.pulses_per_simulate

        report = json.loads((op_dir / "analysis" / "report.json").read_text())
        printed_tags = re.search(r"-> (\d+) detector tags", results[1].stdout)
        tags = int(printed_tags.group(1)) if printed_tags else -1
        if report.get("detector_tags") != tags:
            facts.problems.append(
                f"analyze read {report.get('detector_tags')} tags, "
                f"simulate wrote {tags}"
            )
        if report.get("n_pulses") != self.pulses_per_simulate:
            facts.problems.append("analyze: n_pulses != simulated pulses")
        g2 = report.get("g2_zero") or {}
        value, sigma = g2.get("value"), g2.get("sigma")
        if value is None or not sigma or not sigma > 0:
            facts.problems.append(f"analyze: no g2 estimate: {g2}")
        else:
            facts.g2 = (value, sigma)
            if abs(value - G2_REFERENCE) > G2_FAIL_SIGMA * sigma:
                facts.problems.append(
                    f"g2 {value:.4f} +/- {sigma:.4f} is more than "
                    f"{G2_FAIL_SIGMA:g} sigma from {G2_REFERENCE}"
                )
        lifetime = report.get("lifetime_ps_fit")
        if lifetime is None or abs(
            lifetime - LIFETIME_REFERENCE_PS
        ) > LIFETIME_TOLERANCE * LIFETIME_REFERENCE_PS:
            facts.problems.append(
                f"lifetime fit {lifetime} ps is not within "
                f"{LIFETIME_TOLERANCE:.0%} of {LIFETIME_REFERENCE_PS} ps"
            )
        compensation = json.loads(
            (op_dir / "polcomp" / "compensation.json").read_text()
        )
        trace_rows = (op_dir / "polcomp" / "trace.csv").read_text()
        if compensation.get("tracking", {}).get("steps") != 2000 or (
            len(trace_rows.splitlines()) != 2001
        ):
            facts.problems.append("polcomp: tracking trace is not 2000 steps")
        facts.signature["counts"] = {
            "detector_tags": tags,
            "coincidences": g2.get("center_counts"),
            "side_counts": g2.get("side_counts"),
            "static_probes": compensation.get("static_probes"),
        }
        return facts


WORKLOADS = {
    workload.name: workload
    for workload in (
        PaperPoint(),
        MetroSession(),
        LinkDesign(),
        SourceCharacterization(),
    )
}
