#!/usr/bin/env python3
"""Report every metric of every workload, or re-record reference.json.

    python3 perfbench/record.py report [--seed N]
    python3 perfbench/record.py digests
    python3 perfbench/record.py baseline

``report`` runs each workload once untraced and once traced and prints
every end-to-end, per-operation and per-layer figure by name and unit.
``digests`` records the identity digests of every operation on every
instance in the workloads' pools; do this only for a change that is meant
to alter the program's outputs, and say so. ``baseline`` records the
medians of BASELINE_RUNS untraced runs and one traced run for the default
and the held-out seed.
Each run is its own process, started one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
BASELINE_RUNS = 3


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail line)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited "
                 f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


def machine() -> dict:
    import numpy

    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def timing_rows(detail: dict) -> list[tuple[str, float, str]]:
    rows = []
    for key in ("lowerbound_verify_s", "solve_s", "verify_s", "reconstruct_check_s"):
        if key in detail:
            rows.append((key, detail[key]["median"], "s"))
    if "experiment_trials_per_s" in detail:
        rows.append(("experiment_trials_per_s",
                     detail["experiment_trials_per_s"]["median"], "1/s"))
    rows.append(("ops_failed_frac", detail["ops_failed_frac"]["value"], "frac"))
    return rows


def cmd_report(bench: dict, args) -> None:
    for w in bench["workloads"]:
        name = w["name"]
        print(f"== {name}: {w['why']}")
        for trace in (0, 1):
            result, detail = run(name, args.seed, bench["run_seconds"], trace)
            rows = [(k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
            if trace == 0:
                rows += timing_rows(detail)
            print(f"-- trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for key, value, unit in rows:
                print(f"   {key:42s} {value:>16.6g} {unit}")
            for label, probe in detail["probes"].items():
                print(f"   {label}: exit {probe['exit']} (expected "
                      f"{probe['expected']}) {probe['stderr']}")


def cmd_digests(bench: dict, args) -> None:
    """Record the digests of every instance in every workload's pool."""
    from run import WORKLOADS

    ref = json.loads(REFERENCE.read_text())
    for w in bench["workloads"]:
        name = w["name"]
        ref["digests"][name] = {}
        for seed in range(0, len(ref["pools"][name]), WORKLOADS[name][1]):
            result, detail = run(name, seed, 0, 1)
            own = [f for f in detail["failures"]
                   if not all(r.startswith("reference:") for r in f["reasons"])]
            if own or detail["problems"]:
                sys.exit(f"{name} seed {seed}: {own} {detail['problems']}")
            ref["digests"][name].update(detail["digests"])
            print(name, detail["instance_seeds"], "recorded", flush=True)
    ref["machine"] = machine()
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def cmd_baseline(bench: dict, args) -> None:
    ref = json.loads(REFERENCE.read_text())
    for w in bench["workloads"]:
        for seed in (ref["default_seed"], ref["held_out_seed"]):
            results, details = [], []
            for _ in range(BASELINE_RUNS):
                result, detail = run(w["name"], seed, bench["run_seconds"], 0)
                if not result["correct"]:
                    sys.exit(f"{w['name']} seed {seed}: {detail['failures']}")
                results.append(result)
                details.append(detail)
            traced, detail = run(w["name"], seed, bench["run_seconds"], 1)
            if not traced["correct"]:
                sys.exit(f"{w['name']} seed {seed} traced: "
                         f"{detail['failures']} {detail['problems']}")
            entry = {
                "runs": BASELINE_RUNS,
                "end_to_end": {
                    key: statistics.median(r["metrics"][key]["value"] for r in results)
                    for key in results[0]["metrics"]
                },
                "ops_s": {
                    label: statistics.median(d["ops"][label]["median"] for d in details)
                    for label in details[0]["ops"]
                },
                "ops_failed": details[0]["ops_failed_frac"],
                "probes": {label: p["exit"] for label, p in details[0]["probes"].items()},
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            }
            ref["baseline"].setdefault(w["name"], {})[str(seed)] = entry
            print(w["name"], seed, entry["end_to_end"], flush=True)
    ref["machine"] = machine()
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("report")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_report)
    p = sub.add_parser("digests")
    p.set_defaults(fn=cmd_digests)
    p = sub.add_parser("baseline")
    p.set_defaults(fn=cmd_baseline)
    args = parser.parse_args()
    args.fn(json.loads(BENCHMARK.read_text()), args)


if __name__ == "__main__":
    main()
