#!/usr/bin/env python3
"""Benchmark for sspflow: seeded workloads run through the public CLI.

    python3 perfbench/run.py --workload hard-4096 --seed 0 --seconds 20 --trace 0

Each run measures one workload in one process on one thread, as a closed
loop with one client: a round calls ``sspflow.cli.main(argv)`` in-process
for each of the workload's operations in turn, and the next round starts
when the last call has returned. numpy is imported once, so process
start-up does not swamp the timings. ``--seed`` picks the run's instance
seeds from the workload's pool in ``reference.json``; the benchmark makes
every input from them and hands the program only those inputs. Every time
it reports is calibrated against a fixed kernel (see calibrate.py).

An operation is one CLI subcommand call. It fails when its exit code is
not 0, or when a digest of its outputs (stdout and every output file, plus
the solver's steps in traced calls) differs from another call of the same
operation in this run, or from the digest recorded in ``reference.json``
for that instance.

``--trace 0`` measures with the package untouched and reports the
end-to-end metrics. ``--trace 1`` alternates untraced rounds with rounds
under ``tracing.Tracer`` and reports the per-layer metrics from the traced
ones. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
starts with ``detail `` and holds per-operation timings, the digests and
the probes' exit codes.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Calibrator
from tracing import Tracer, steps_digest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK = HERE.parent / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPS = 5
# Fresh interpreter that reports how long importing the package takes.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import sspflow.cli; "
    "print(time.perf_counter() - t)"
)
# In a traced timed operation, the cli layer's self time (parsing, file
# writes, whatever no wrapper covers) must stay below this share of the
# wall time; more means the time went to a function no span measures.
CLI_SELF_MAX_FRAC = 0.05


@dataclass(frozen=True)
class Op:
    """One CLI call. augs says how to count the augmentations it performs:
    "steps" and "verified" read stdout, "experiment" reads the CSV, and
    "instance" takes the count of the round's solve of the same instance.
    spans names the spans a traced call must record: the per-layer metrics
    read them, so a wrapper that its caller no longer looks up shows."""

    label: str
    argv: tuple[str, ...]
    files: tuple[str, ...] = ()
    augs: str = ""
    spans: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    setup: tuple[Op, ...]
    ops: tuple[Op, ...]
    # Robustness probes run once per run, outside every timing. Their exit
    # codes are reported, not counted as failed operations.
    probes: tuple[Op, ...] = ()


SOLVE_SPANS = ("dimacs.read_instance", "solver.run_ssp", "solver.trace_csv_rows")


def hard_4096(seed: int, work: Path) -> Workload:
    inst, trace = str(work / "hard.dimacs"), str(work / "trace.csv")
    lb = ("lowerbound", "--n", "8", "--m", "16", "--phi", "4096", "--seed", str(seed))
    return Workload(
        setup=(Op("lowerbound-out", lb + ("--out", inst), (inst,),
                  spans=("lowerbound.build_hard_instance", "dimacs.write_instance")),),
        ops=(
            Op("lowerbound-verify", lb + ("--verify",), augs="verified",
               spans=("lowerbound.build_hard_instance", "lowerbound.verify_count",
                      "solver.run_ssp")),
            Op("solve", ("solve", inst, "--out", trace), (trace,), "steps", SOLVE_SPANS),
        ),
        # The solver's fixed reduced-cost slack breaks on some instances
        # that LowerBoundParams documents as valid: at phi=16384, and at
        # this workload's phi=4096 on the seeds that reference.json leaves
        # out of the pool. Fixed inputs, so the defect shows on every run.
        probes=(
            Op("probe-lowerbound-phi16384",
               ("lowerbound", "--n", "4", "--m", "4", "--phi", "16384", "--verify")),
            Op("probe-lowerbound-phi4096-seed4",
               ("lowerbound", "--n", "8", "--m", "16", "--phi", "4096", "--seed", "4",
                "--verify")),
        ),
    )


def smoothed_bipartite(seed: int, work: Path) -> Workload:
    inst = str(work / "smoothed.dimacs")
    lemmas, trace = str(work / "lemmas.csv"), str(work / "trace.csv")
    return Workload(
        setup=(
            Op("generate",
               ("generate", "--model", "smoothed", "--shape", "bipartite",
                "--n", "40", "--m", "800", "--phi", "10", "--preset", "adversarial",
                "--seed", str(seed), "--out", inst), (inst,),
               spans=("generators.random_topology", "generators.sample_costs",
                      "dimacs.write_instance")),
        ),
        ops=(
            Op("verify", ("verify", inst, "--out", lemmas), (lemmas,), "instance",
               ("dimacs.read_instance", "solver.run_ssp", "analysis.check_lemmas",
                "analysis.verify_optimality", "analysis.replay_flows",
                "analysis.classify")),
            Op("solve", ("solve", inst, "--out", trace), (trace,), "steps", SOLVE_SPANS),
            Op("reconstruct-check", ("reconstruct-check", inst, "--max-cases", "50"),
               augs="instance",
               spans=("dimacs.read_instance", "solver.run_ssp",
                      "analysis.harvest_reconstruction_cases", "analysis.reconstruct")),
        ),
    )


def experiment_grid(seed: int, work: Path) -> Workload:
    out = str(work / "experiment.csv")
    return Workload(
        setup=(),
        ops=(
            Op("experiment",
               ("experiment", "--models", "smoothed,perturbed", "--shape", "erdos",
                "--ns", "60,120", "--ms", "600", "--phis", "4,16", "--trials", "3",
                "--seed", str(seed), "--out", out), (out,), "experiment",
               ("generators.random_topology", "generators.sample_costs",
                "generators.perturbed_integer", "network.transform", "solver.run_ssp")),
        ),
    )


# Workload builders and how many instances one run covers. A run takes
# that many consecutive seeds from the workload's pool and cycles through
# them, so that one instance's cost does not decide a run's figures.
WORKLOADS = {
    "hard-4096": (hard_4096, 1),
    "smoothed-bipartite": (smoothed_bipartite, 4),
    "experiment-grid": (experiment_grid, 8),
}

# Per-operation wall times under the names the end-to-end table uses.
OP_METRICS = {
    "lowerbound-verify": "lowerbound_verify_s",
    "solve": "solve_s",
    "verify": "verify_s",
    "reconstruct-check": "reconstruct_check_s",
}


# ---------------------------------------------------------------------------
# Calling the CLI


@dataclass
class Call:
    op: Op
    code: object
    wall: float
    stdout: str
    stderr: str
    scale: float
    digest: dict = field(default_factory=dict)
    augs: int = 0
    spans: list | None = None

    @property
    def seconds(self) -> float:
        """Calibrated wall time (see calibrate.py)."""
        return self.wall * self.scale


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def invoke(op: Op, cal, tracer=None) -> Call:
    """Call the CLI once; only the call itself is inside the timed region,
    between two samples of the calibration kernel."""
    from sspflow import cli

    before = cal.last if cal.last is not None else cal.sample()

    for path in op.files:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    spans = None
    gc.collect()
    started = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = cli.main(list(op.argv))
            else:
                code, spans = tracer.call(cli.main, list(op.argv))
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
        except Exception:  # a traceback fails the operation, not the run
            traceback.print_exc()
            code = "exception"
    wall = time.perf_counter() - started
    scale = cal.scale(before, cal.sample())

    call = Call(op, code, wall, out.getvalue(), err.getvalue(), scale, spans=spans)
    call.digest["stdout"] = _sha(call.stdout.encode())
    for path in op.files:
        try:
            with open(path, "rb") as fh:
                call.digest[os.path.basename(path)] = _sha(fh.read())
        except FileNotFoundError:
            call.digest[os.path.basename(path)] = "missing"
    if spans is not None:
        call.digest["steps"] = steps_digest(spans)
    call.augs = count_augmentations(call)
    return call


def count_augmentations(call: Call) -> int:
    if call.code != 0:
        return 0
    if call.op.augs == "steps":
        return int(re.search(r"\bsteps=(\d+)", call.stdout).group(1))
    if call.op.augs == "verified":
        return int(re.search(r"verified: (\d+) augmentations", call.stdout).group(1))
    if call.op.augs == "experiment":
        return sum(int(row["steps"]) for row in experiment_rows(call.op.files[0]))
    return 0  # "instance" is filled in by run_round


def experiment_rows(path: str) -> list[dict]:
    """The per-trial rows of an experiment CSV (not the per-cell means)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.DictReader(fh) if row["trial"] != "mean"]


def run_round(ops, cal, tracer=None) -> list[Call]:
    if tracer is not None:
        tracer.install()
    try:
        calls = [invoke(op, cal, tracer) for op in ops]
    finally:
        if tracer is not None:
            tracer.uninstall()
    instance = next((c.augs for c in calls if c.op.augs == "steps"), 0)
    for c in calls:
        if c.op.augs == "instance" and c.code == 0:
            c.augs = instance
    return calls


class Checker:
    """Counts operations and the ones that fail, with the reasons.

    ``problems`` holds failed checks of the trace itself; they make the run
    incorrect without failing an operation."""

    def __init__(self, recorded: dict):
        self.recorded = recorded  # instance seed -> operation -> digests
        self.seen: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[dict] = []
        self.problems: list[str] = []

    def check(self, call: Call, seed: int) -> None:
        label = call.op.label
        self.attempted += 1
        reasons = []
        if call.code != 0:
            reasons.append(f"exit {call.code}, expected 0: {call.stderr[-300:]}")
        else:
            seen = self.seen.setdefault(str(seed), {}).setdefault(label, {})
            want = self.recorded.get(str(seed), {}).get(label, {})
            for key, got in call.digest.items():
                if seen.setdefault(key, got) != got:
                    reasons.append(f"{key} digest differs between calls of this run")
                if key in want and want[key] != got:
                    reasons.append(
                        f"reference: {key} digest {got} != recorded {want[key]}")
        if reasons:
            self.failures.append({"op": label, "seed": seed, "reasons": reasons})

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# Metrics


def timing(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples above."""
    ordered = sorted(samples)
    n = len(ordered)
    top = None
    if n >= 11:
        k = n - 11
        top = {"p": round(100.0 * (k + 1) / n, 1), "value": ordered[k]}
    return {"median": statistics.median(ordered), "samples": n, "p_top": top}


def import_seconds(reps: int, cal) -> float:
    """Median calibrated time to import the package in a fresh interpreter."""
    times = []
    for _ in range(reps):
        before = cal.last if cal.last is not None else cal.sample()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout.strip()) * cal.scale(before, cal.sample()))
    return statistics.median(times)


# Counts that must repeat exactly from round to round.
EXACT_COUNTS = (
    "solver.augmentations",
    "solver.run_ssp_calls",
    "analysis.verify_optimality_calls",
    "analysis.reconstruct_calls",
    "analysis.reconstruct_augmentations",
    "dimacs.bytes_read",
)
LAYERS = ("cli", "generators", "lowerbound", "network", "dimacs", "solver", "analysis")


def span_metrics(calls: list[Call]) -> dict:
    """Per-layer figures for one traced round (solver.us_per_aug aside).

    ``<layer>.self_s`` sums the self time of that layer's spans, and the
    seven of them add up to the round's wall time. ``<function>_s`` is a
    function's inclusive time and ``<function>_self_s`` excludes the
    traced functions it calls.
    """
    total = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    layer = dict.fromkeys(LAYERS, 0.0)
    augs = reconstruct_augs = read_bytes = 0
    run_ssp_by_op = defaultdict(float)
    for c in calls:
        for s in c.spans:
            total[s.name] += s.duration * c.scale
            own[s.name] += s.self_time * c.scale
            count[s.name] += 1
            layer[s.layer] += s.self_time * c.scale
            if s.name == "solver.run_ssp":
                augs += len(s.payload.steps)
                run_ssp_by_op[c.op.label] += s.self_time * c.scale
                if s.parent is not None and s.parent.name == "analysis.reconstruct":
                    reconstruct_augs += len(s.payload.steps)
            elif s.name == "dimacs.read_instance":
                read_bytes += s.payload
    labels = {c.op.label for c in calls}
    metrics = {f"{name}.self_s": value for name, value in layer.items()}
    metrics.update({
        "solver.run_ssp_self_s": own["solver.run_ssp"],
        "solver.record_distances_s": (
            run_ssp_by_op["verify"] - run_ssp_by_op["solve"]
            if {"verify", "solve"} <= labels else 0.0
        ),
        "solver.trace_csv_rows_s": total["solver.trace_csv_rows"],
        "solver.augmentations": augs,
        "solver.run_ssp_calls": count["solver.run_ssp"],
        "analysis.check_lemmas_self_s": own["analysis.check_lemmas"],
        "analysis.verify_optimality_s": total["analysis.verify_optimality"],
        "analysis.verify_optimality_calls": count["analysis.verify_optimality"],
        "analysis.replay_flows_s": total["analysis.replay_flows"],
        "analysis.classify_s": total["analysis.classify"],
        "analysis.reconstruct_s": total["analysis.reconstruct"],
        "analysis.reconstruct_calls": count["analysis.reconstruct"],
        "analysis.reconstruct_augmentations": reconstruct_augs,
        "analysis.harvest_reconstruction_cases_s":
            total["analysis.harvest_reconstruction_cases"],
        "lowerbound.verify_count_self_s": own["lowerbound.verify_count"],
        "lowerbound.build_hard_instance_s": total["lowerbound.build_hard_instance"],
        "generators.random_topology_s": total["generators.random_topology"],
        "generators.sample_costs_s": total["generators.sample_costs"],
        "generators.perturbed_integer_s": total["generators.perturbed_integer"],
        "network.transform_s": total["network.transform"],
        "dimacs.read_instance_s": total["dimacs.read_instance"],
        "dimacs.bytes_read": read_bytes,
    })
    return metrics


def check_spans(call: Call, checker: Checker, timed: bool) -> None:
    """The call must record every span its Op names, and in a timed
    operation the cli layer's self time must stay below CLI_SELF_MAX_FRAC
    of the wall time."""
    if call.code != 0:
        return
    names = {s.name for s in call.spans}
    missing = [name for name in call.op.spans if name not in names]
    if missing:
        checker.problems.append(f"{call.op.label}: no span {', '.join(missing)}")
    cli_self = sum(s.self_time for s in call.spans if s.layer == "cli")
    if timed and cli_self > CLI_SELF_MAX_FRAC * call.wall:
        checker.problems.append(
            f"{call.op.label}: cli self time is {cli_self / call.wall:.3f} of the wall time")


# ---------------------------------------------------------------------------
# One run


def measure(name: str, seed: int, seconds: float, traced: bool, work: Path,
            cal: Calibrator) -> dict:
    """One run over the instances that --seed picks from the workload's pool.

    Figures are per cycle: one round on each instance, each taken at its
    median over the run's rounds on that instance."""
    reference = json.loads(REFERENCE.read_text())
    build, count = WORKLOADS[name]
    pool = reference["pools"][name]
    seeds = [pool[(seed + j) % len(pool)] for j in range(count)]
    loads = []
    for s in seeds:
        (work / str(s)).mkdir()
        loads.append(build(s, work / str(s)))
    checker = Checker(reference["digests"].get(name, {}))
    tracer = Tracer() if traced else None
    detail: dict = {"workload": name, "seed": seed, "instance_seeds": seeds}

    import_s = 0.0 if traced else import_seconds(SETUP_REPS, cal)
    setup_s, write_s = [], []
    for _ in range(SETUP_REPS if loads[0].setup else 0):
        calls = []
        for s, load in zip(seeds, loads):
            for c in run_round(load.setup, cal, tracer):
                checker.check(c, s)
                if traced:
                    check_spans(c, checker, timed=False)
                calls.append(c)
        setup_s.append(sum(c.seconds for c in calls))
        if traced:
            write_s.append(sum(sp.duration * c.scale for c in calls for sp in c.spans
                               if sp.name == "dimacs.write_instance"))

    plain: list[list[list[Call]]] = [[] for _ in seeds]
    under: list[list[dict]] = [[] for _ in seeds]
    under_s: list[list[float]] = [[] for _ in seeds]
    started = time.perf_counter()
    r = 0
    while (time.perf_counter() - started < seconds or not all(plain)
           or (traced and not all(under))):
        with_tracer = traced and r % 2 == 1
        j = (r // 2 if traced else r) % count
        calls = run_round(loads[j].ops, cal, tracer if with_tracer else None)
        for c in calls:
            checker.check(c, seeds[j])
        if with_tracer:
            for c in calls:
                check_spans(c, checker, timed=True)
            under[j].append(span_metrics(calls))
            under_s[j].append(sum(c.seconds for c in calls))
            for c in calls:
                c.spans = None
        else:
            plain[j].append(calls)
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    detail["probes"] = {}
    for op in loads[0].probes:
        call = invoke(op, cal)
        detail["probes"][op.label] = {"exit": call.code, "expected": 0,
                                      "stderr": call.stderr.strip()[-200:]}
    probe_failed = sum(p["exit"] != 0 for p in detail["probes"].values())

    by_op = defaultdict(list)
    for rounds in plain:
        for calls in rounds:
            for c in calls:
                by_op[c.op.label].append(c)
    detail["ops"] = {
        label: dict(timing([c.seconds for c in cs]),
                    wall_median=statistics.median(c.wall for c in cs))
        for label, cs in by_op.items()
    }
    for label, metric in OP_METRICS.items():
        if label in by_op:
            detail[metric] = detail["ops"][label]
    if "experiment" in by_op:
        trials = len(experiment_rows(loads[0].ops[0].files[0]))
        detail["experiment_trials_per_s"] = timing(
            [trials / c.seconds for c in by_op["experiment"]])
    detail["ops_failed_frac"] = {
        "value": checker.failed / max(checker.attempted, 1),
        "failed": checker.failed, "attempted": checker.attempted}
    detail["digests"] = checker.seen
    detail["failures"] = checker.failures
    detail["problems"] = checker.problems
    detail["rounds"] = {"untraced": sum(map(len, plain)), "traced": sum(map(len, under))}

    cycle_s = sum(statistics.median(sum(c.seconds for c in calls) for calls in rounds)
                  for rounds in plain)
    raw_cycle_s = sum(statistics.median(sum(c.wall for c in calls) for calls in rounds)
                      for rounds in plain)
    if traced:
        metrics = {}
        for key in under[0][0]:
            for j, rounds in enumerate(under):
                if key in EXACT_COUNTS and len({m[key] for m in rounds}) > 1:
                    checker.problems.append(f"{key} differs between rounds on seed {seeds[j]}")
            metrics[key] = sum(statistics.median(m[key] for m in rounds) for rounds in under)
        augs = metrics["solver.augmentations"]
        metrics["solver.us_per_aug"] = 1e6 * metrics["solver.run_ssp_self_s"] / augs if augs else 0.0
        metrics["dimacs.write_instance_s"] = statistics.median(write_s) if write_s else 0.0
        traced_cycle_s = sum(map(statistics.median, under_s))
        metrics["trace_overhead_frac"] = traced_cycle_s / cycle_s - 1.0
        metrics["cli.self_frac"] = metrics["cli.self_s"] / traced_cycle_s
        metrics["lowerbound.large_phi_probe_failed"] = probe_failed
        return {"detail": detail, "checker": checker, "metrics": metrics}

    augs = 0
    for j, rounds in enumerate(plain):
        counts = {sum(c.augs for c in calls) for calls in rounds}
        if len(counts) > 1 or 0 in counts:
            checker.problems.append(f"augmentations per round on seed {seeds[j]}: {counts}")
        augs += max(counts)
    # The same figure from uncalibrated wall times, for comparison only.
    detail["raw_us_per_aug"] = 1e6 * raw_cycle_s / augs if augs else 0.0
    metrics = {
        "us_per_aug": 1e6 * cycle_s / augs if augs else 0.0,
        "setup_s": import_s + (statistics.median(setup_s) if setup_s else 0.0),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"detail": detail, "checker": checker, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sspflow" / "cli.py").is_file():
        print(f"error: no sspflow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One core for the run, the calibration kernel and the import probes, so
    # that the kernel measures the core the timed code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        with Calibrator() as cal:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             work, cal)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker, metrics = result["checker"], result["metrics"]
    listed = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        checker.problems.append(f"metrics differ from BENCHMARK.json: {sorted(units)}")
    print("detail " + json.dumps(result["detail"], sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
