"""Benchmark of the ``sps-bb84`` command line, run in-process.

    python3 benchmarks/run.py --workload paper_point --seed 1 --seconds 20 --trace 0

One client drives ``sps_bb84.cli.main(argv)`` in a closed loop from this
single-threaded process: the next op starts when the previous one and
its output checks are done.  Inputs (scenario overlays, argv, per-op
seeds) come from ``--seed``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics from the traced ones.  The last line of stdout is the
result object; the line before it is a fuller report, which is also
written under ``.bench_work/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import (
    OPERATING_LOSS_DB,
    PAPER_MTL_DB,
    PAPER_SKB_AT_OPERATING_POINT,
    G2_NOTE_SIGMA,
    G2_REFERENCE,
    WORKLOADS,
    CommandResult,
    OpFacts,
    parse_mtl,
    stdout_fields,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TABLE1 = ROOT / "scenarios" / "table1.json"
WORK = ROOT / ".bench_work"

# distinct per-op seeds of one run; ops cycle through them, so every run
# also repeats ops and checks that their outputs repeat exactly
OP_SEED_COUNT = 16
# set-up is measured in this process and in this many fresh interpreters
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 60
# a fresh interpreter that sets up as a run does and prints the seconds
SETUP_CHILD = (
    "import sys, run; session = run.Session(sys.argv[1], int(sys.argv[2]), "
    "run.Path(sys.argv[3])); print(session.setup()); "
    "sys.exit(1 if session.warmup_facts.problems else 0)"
)
# a run reports op_p90_s only with at least this many untraced ops
P90_MIN_OPS = 100


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def per_layer_units() -> dict[str, str]:
    """Unit of each per-layer metric, as BENCHMARK.json names it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench["per_layer"]}


def op_seeds(workload: str, seed: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2**31) for _ in range(OP_SEED_COUNT)]


def tree_digest(*directories: Path) -> tuple[str, int]:
    """sha256 over the files of the directories, and their Python lines."""
    digest = hashlib.sha256()
    lines = 0
    for directory in directories:
        for path in sorted(directory.rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            data = path.read_bytes()
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(data)
            if path.suffix == ".py" and directory == SRC:
                lines += data.count(b"\n")
    return digest.hexdigest(), lines


def import_cli():
    """Import ``sps_bb84.cli`` from this checkout's ``src``."""
    if not (SRC / "sps_bb84" / "cli.py").is_file() or not TABLE1.is_file():
        raise BenchError(
            f"no sps_bb84 sources under {SRC} or no {TABLE1}; run from a "
            "checkout of the repository"
        )
    sys.path.insert(0, str(SRC))
    import sps_bb84.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "sps_bb84":
        raise BenchError(f"imported sps_bb84 from {cli.__file__}, not {SRC}")
    return cli


class Session:
    """One benchmark process: its inputs, ops and their records."""

    def __init__(self, workload_name: str, seed: int, work_dir: Path):
        self.workload = WORKLOADS[workload_name]
        self.seeds = op_seeds(workload_name, seed)
        self.work = work_dir
        self.inputs = work_dir / "inputs"
        self.cli = None
        self.tracer = tracing.Tracer()
        self.pool_workers: list = []

    # -- ops -----------------------------------------------------------------

    def run_commands(self, op_dir: Path, op_seed: int, traced: bool):
        commands = self.workload.commands(ROOT, self.inputs, op_dir, op_seed)
        results = []
        if traced:
            self.tracer.install()
        try:
            for command in commands:
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = self.cli.main(command.argv)
                except Exception:
                    code = None
                    err.write(traceback.format_exc())
                seconds = time.perf_counter() - start
                results.append(
                    CommandResult(
                        command.argv, command.expected_exit, code,
                        out.getvalue(), err.getvalue(), seconds,
                    )
                )
                if code is None:
                    break
        finally:
            if traced:
                self.tracer.uninstall()
        spans = self.tracer.take() if traced else []
        return commands, results, spans

    def run_op(self, index: int, op_seed: int, traced: bool):
        op_dir = self.work / f"op{index}"
        commands, results, spans = self.run_commands(op_dir, op_seed, traced)
        wall = math.fsum(result.seconds for result in results)
        crashed = [r for r in results if r.exit_code is None]
        if crashed or len(results) != len(commands):
            facts = OpFacts(
                problems=[f"{r.argv[0]} raised: {r.stderr}" for r in crashed]
            )
        else:
            try:
                facts = self.workload.check(results, op_dir, op_seed)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                facts = OpFacts(problems=[f"output check failed: {exc!r}"])
        shutil.rmtree(op_dir, ignore_errors=True)
        return wall, facts, spans

    # -- set-up --------------------------------------------------------------

    def setup(self) -> float:
        """Import, generate inputs and run one untimed op; return seconds."""
        start = time.perf_counter()
        self.cli = import_cli()
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.workload.prepare(self.inputs, ROOT)
        montecarlo = sys.modules["sps_bb84.montecarlo"]
        pool = getattr(montecarlo, "ThreadPoolExecutor", None)
        if pool is not None:
            seen = self.pool_workers

            class RecordingPool(pool):
                def __init__(self, max_workers=None, *args, **kwargs):
                    seen.append(max_workers)
                    super().__init__(max_workers, *args, **kwargs)

            montecarlo.ThreadPoolExecutor = RecordingPool
        try:
            _, self.warmup_facts, _ = self.run_op(-1, self.seeds[0], False)
        finally:
            if pool is not None:
                montecarlo.ThreadPoolExecutor = pool
        return time.perf_counter() - start

    def fidelity(self) -> dict:
        """C1 and C2 gaps of the model to the paper's reference values."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code_mtl = self.cli.main(
                ["mtl", "--scenario", str(TABLE1), "--regimes", "asymptotic"]
            )
        mtl = parse_mtl(out.getvalue()).get("asymptotic")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code_rate = self.cli.main(
                ["keyrate", "--scenario", str(TABLE1),
                 "--loss", str(OPERATING_LOSS_DB)]
            )
        skb = stdout_fields(out.getvalue()).get("skb_per_pulse")
        if code_mtl != 0 or code_rate != 0 or mtl is None or skb is None:
            raise BenchError("mtl or keyrate failed on scenarios/table1.json")
        return {
            "mtl_asymptotic_db": mtl,
            "mtl_gap_abs_db": abs(mtl - PAPER_MTL_DB),
            "skb_at_operating_point": float(skb),
            "skb_ref_rel_error": abs(
                float(skb) / PAPER_SKB_AT_OPERATING_POINT - 1.0
            ),
        }


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class Determinism:
    """Exact values per op seed, kept across runs of the same sources."""

    def __init__(self, path: Path):
        self.path = path
        self.known: dict = {}
        if path.is_file():
            self.known = json.loads(path.read_text())
        self.compared = 0

    def check(self, op_seed: int, kind: str, signature: dict) -> str | None:
        """Record or compare; return what differs from an earlier op."""
        record = self.known.setdefault(str(op_seed), {})
        if kind not in record:
            record[kind] = signature
            return None
        self.compared += 1
        differing = sorted(
            key for key in set(record[kind]) | set(signature)
            if record[kind].get(key) != signature.get(key)
        )
        if not differing:
            return None
        return (
            f"not deterministic: op seed {op_seed} {kind} values "
            f"{differing} differ from an earlier op with that seed"
        )

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(self.known, sort_keys=True))
        os.replace(scratch, self.path)


def check_determinism(
    determinism: Determinism, op_seed: int, facts: OpFacts,
    summary: dict | None,
) -> None:
    """Fail an op whose exact values differ from an earlier one's.

    Traced ops also compare the call count of every public function and
    the hook counts.
    """
    if facts.problems:
        return
    signatures = [("plain", facts.signature)]
    if summary is not None:
        signatures.append((
            "traced",
            {
                name: [entry["calls"], entry["counts"]]
                for name, entry in sorted(summary["by_name"].items())
            },
        ))
    for kind, signature in signatures:
        mismatch = determinism.check(op_seed, kind, signature)
        if mismatch:
            facts.problems.append(mismatch)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    summaries, facts, traced_walls, untraced_walls, all_traced
):
    """Per-layer metrics from the traced ops of one run (means per op).

    ``summaries``, ``facts`` and ``traced_walls`` are of the traced ops
    that passed their checks; ``all_traced`` holds the summaries of every
    traced op, failed ones too, for the abort count.
    """
    n = len(summaries)
    names = {name for s in summaries for name in s["by_name"]}

    def total(name: str, key: str) -> float:
        return math.fsum(
            s["by_name"][name][key] for s in summaries if name in s["by_name"]
        )

    def count(name: str, key: str) -> float:
        return sum(
            s["by_name"][name]["counts"].get(key, 0)
            for s in summaries if name in s["by_name"]
        )

    def busy(prefix: str) -> float:
        return math.fsum(
            total(name, "busy_s") for name in names
            if name == prefix or name.startswith(prefix + ".")
        ) / n

    ledgers = [f.ledger for f in facts if f.ledger is not None]
    raw_z = sum(ledger["raw_z"] for ledger in ledgers)
    shannon = math.fsum(
        ledger["raw_z"]
        * binary_entropy(ratio(ledger["corrected_errors"], ledger["raw_z"]))
        for ledger in ledgers
    )
    sim_pulses = count("montecarlo.simulate_run", "pulses")
    op_wall = statistics.fmean(traced_walls)
    metrics = {
        "cli.self_s": busy("cli"),
        "cli.bytes_written": statistics.fmean(f.bytes_written for f in facts),
    }
    for layer in tracing.LAYERS[1:]:
        metrics[f"{layer}.busy_s"] = busy(layer)
    for name in (
        "params.load_scenario",
        "montecarlo.simulate_run",
        "montecarlo.simulate_g2_histogram",
        "montecarlo.write_tags",
        "montecarlo.read_tags",
        "keygen.run_session",
        "keygen.sift",
        "keygen.estimate_error_rate",
        "keygen.reconcile",
        "keygen.verify",
        "keygen.privacy_amplify",
        "finitekey.finite_skb_per_pulse",
        "keyrate.max_tolerable_loss",
        "keyrate.sweep",
        "tagproc.correlate",
        "tagproc.fit_lifetime",
        "tagproc.optimize_temporal_window",
        "tagproc.g2_zero",
        "polcomp.compensate",
        "polcomp.track_compensation",
    ):
        metrics[f"{name}.busy_s"] = total(name, "busy_s") / n
    metrics.update({
        "montecarlo.simulate_run.ns_per_pulse": 1e9 * ratio(
            total("montecarlo.simulate_run", "wall_s"), sim_pulses
        ),
        "montecarlo.simulate_run.cpu_over_wall": ratio(
            total("montecarlo.simulate_run", "cpu_s"),
            total("montecarlo.simulate_run", "wall_s"),
        ),
        "montecarlo.tags_per_pulse": ratio(
            count("montecarlo.simulate_run", "tags"), sim_pulses
        ),
        "montecarlo.tag_file_bytes":
            count("montecarlo.write_tags", "bytes") / n,
        "keygen.sifted_bits": count("keygen.sift", "bits") / n,
        "keygen.parity_bits": count("keygen.reconcile", "parity_bits") / n,
        "keygen.leak_over_shannon": ratio(
            count("keygen.reconcile", "parity_bits"), shannon
        ),
        "keygen.verify_rounds": total("keygen.verify", "calls") / n,
        "keygen.final_over_sifted_z": ratio(
            sum(ledger["final_length"] for ledger in ledgers), raw_z
        ),
        "keygen.aborts": statistics.fmean(
            s["by_name"].get("keygen.run_session", {}).get("errors", 0)
            for s in all_traced
        ),
        "finitekey.finite_skb_per_pulse.calls":
            total("finitekey.finite_skb_per_pulse", "calls") / n,
        "keyrate.sweep.cpu_over_wall": ratio(
            total("keyrate.sweep", "cpu_s"), total("keyrate.sweep", "wall_s")
        ),
        "keyrate.click_terms.calls_per_point": ratio(
            sum(s["click_terms_in_sweep"] for s in summaries),
            count("keyrate.sweep", "points"),
        ),
        "keyrate.skb_per_pulse.calls_per_mtl": ratio(
            sum(s["skb_per_pulse_in_mtl"] for s in summaries),
            total("keyrate.max_tolerable_loss", "calls"),
        ),
        "polcomp.compensate.probes": count("polcomp.compensate", "probes") / n,
        "trace.op_wall_s": op_wall,
        "trace.accounted_frac": ratio(
            math.fsum(total(name, "busy_s") for name in names) / n, op_wall
        ),
        "trace.overhead_frac": ratio(
            statistics.median(traced_walls),
            statistics.median(untraced_walls),
        ) - 1.0,
        "trace.spans_per_op": statistics.fmean(
            s["n_spans"] for s in summaries
        ),
    })
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_in_child(args, work_dir: Path) -> tuple[float | None, str | None]:
    """Seconds of one set-up in a fresh interpreter, or what went wrong."""
    command = [sys.executable, "-c", SETUP_CHILD,
               args.workload, str(args.seed), str(work_dir)]
    try:
        done = subprocess.run(
            command, cwd=HERE, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "set-up child timed out"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        return None, f"set-up child failed: {done.stderr[-500:]}{done.stdout}"
    return float(done.stdout.split()[-1]), None


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    src_digest, src_lines = tree_digest(SRC, ROOT / "scenarios")
    # outputs are kept per version of the program and of the benchmark
    bench_digest, _ = tree_digest(SRC, ROOT / "scenarios", HERE)
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    session = Session(args.workload, args.seed, run_dir)
    problems: list[str] = []
    try:
        setup_samples = [session.setup()]
        for index in range(SETUP_CHILDREN):
            seconds, error = setup_in_child(args, run_dir / f"setup{index}")
            if error:
                problems.append(error)
            else:
                setup_samples.append(seconds)
        fidelity = session.fidelity()
        determinism = Determinism(
            WORK / "determinism" / bench_digest[:16] / f"{args.workload}.json"
        )

        records = []  # (wall, traced, failed)
        summaries, traced_facts, all_traced = [], [], []
        first_spans = None
        g2_values = []
        all_facts = [session.warmup_facts]
        check_determinism(
            determinism, session.seeds[0], session.warmup_facts, None
        )
        start = time.perf_counter()
        index = 0
        # a traced run needs at least one untraced and one traced op
        min_ops = 2 if args.trace else 1
        while index < min_ops or time.perf_counter() - start < args.seconds:
            op_seed = session.seeds[index % OP_SEED_COUNT]
            traced = bool(args.trace) and index % 2 == 1
            wall, facts, spans = session.run_op(index, op_seed, traced)
            summary = tracing.summarize_op(spans) if traced else None
            check_determinism(determinism, op_seed, facts, summary)
            if summary is not None:
                all_traced.append(summary)
            if summary is not None and not facts.problems:
                summaries.append(summary)
                traced_facts.append(facts)
                if first_spans is None:
                    first_spans = tracing.spans_to_json(spans)
            if facts.g2 is not None and index < OP_SEED_COUNT:
                g2_values.append(facts.g2)
            all_facts.append(facts)
            records.append((wall, traced, bool(facts.problems)))
            index += 1
        loop_seconds = time.perf_counter() - start
        determinism.save()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems += [p for f in all_facts for p in f.problems]
    if g2_values:
        # the g2 of the run's distinct op seeds pooled, against the
        # reference, in the pooled estimate's sigma
        pooled = statistics.fmean(value for value, _ in g2_values)
        pooled_sigma = math.sqrt(
            math.fsum(sigma**2 for _, sigma in g2_values)
        ) / len(g2_values)
        if abs(pooled - G2_REFERENCE) > 5.0 * pooled_sigma:
            problems.append(
                f"pooled g2 {pooled:.5f} +/- {pooled_sigma:.5f} of "
                f"{len(g2_values)} ops is more than 5 sigma from "
                f"{G2_REFERENCE}"
            )

    attempted = len(records)
    failed = sum(1 for _, _, bad in records if bad)
    ok = [(wall, traced) for wall, traced, bad in records if not bad]
    untraced_walls = [wall for wall, traced in ok if not traced]
    traced_walls = [wall for wall, traced in ok if traced]
    good_facts = [f for f, (_, _, bad) in zip(all_facts[1:], records)
                  if not bad]
    busy_wall = math.fsum(wall for wall, _ in ok)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop_seconds": loop_seconds,
        "attempted": attempted,
        "failed": failed,
        "failed_op_frac": failed / attempted,
        "untraced_ops": len(untraced_walls),
        "traced_ops": len(traced_walls),
        "setup_s_samples": setup_samples,
        "op_p50_s": statistics.median(untraced_walls) if untraced_walls
        else None,
        "peak_rss_mb": peak_rss_mb,
        **fidelity,
        "determinism_comparisons": determinism.compared,
        "environment": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "src_lines": src_lines,
            "src_digest": src_digest,
            "simulator_pool_workers": session.pool_workers,
            "simulator_workers_note": (
                "session runs simulate_run with its default of 4 workers: "
                "run_session ignores --threads and SPS_BB84_THREADS"
            ),
        },
    }
    if len(untraced_walls) >= P90_MIN_OPS:
        report["op_p90_s"] = statistics.quantiles(
            untraced_walls, n=10, method="inclusive"
        )[8]
    pulses = sum(f.pulses for f in good_facts)
    sifted = sum(f.sifted_bits for f in good_facts)
    points = sum(f.design_points for f in good_facts)
    for name, work in (
        ("pulses_per_s", pulses),
        ("sifted_bits_per_s", sifted),
        ("design_points_per_s", points),
    ):
        if work:
            report[name] = work / busy_wall
    if g2_values:
        pulls = [
            abs(value - G2_REFERENCE) / sigma for value, sigma in g2_values
        ]
        report["g2_max_abs_pull"] = max(pulls)
        report["g2_ops_beyond_3_sigma"] = sum(
            1 for pull in pulls if pull > G2_NOTE_SIGMA
        )

    if args.trace:
        if not summaries or not untraced_walls:
            problems.append("traced run holds no successful op pair")
            metrics = {}
        else:
            layer = per_layer_metrics(
                summaries, traced_facts, traced_walls, untraced_walls,
                all_traced,
            )
            metrics = {name: {"value": layer[name], "unit": unit}
                       for name, unit in per_layer_units().items()}
            report["per_layer"] = layer
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "op_p50_s": {"value": report["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "mtl_gap_abs_db": {"value": fidelity["mtl_gap_abs_db"],
                               "unit": "dB"},
            "skb_ref_rel_error": {"value": fidelity["skb_ref_rel_error"],
                                  "unit": "ratio"},
        }
        if report["op_p50_s"] is None:
            metrics = {}

    report["problems"] = problems[:20]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    if first_spans is not None:
        (results_dir / f"{stem}-spans.json").write_text(
            json.dumps(first_spans) + "\n"
        )
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
