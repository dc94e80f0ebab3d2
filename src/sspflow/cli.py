"""Command-line harness.

    sspflow solve INSTANCE [--z Z] [--out trace.csv] [--iteration-cap N]
    sspflow costfn INSTANCE [--out costfn.csv]
    sspflow generate --model smoothed|perturbed|lowerbound
                     [--shape bipartite|erdos|layered] --n N --m M --seed S
                     [--phi PHI] [--cost-spec FILE]
                     [--preset uniform|adversarial] [--out FILE]
      (--cost-spec and --preset only with --model smoothed, --preset
      and --phi not with --cost-spec, --shape not with --model
      lowerbound)
    sspflow lowerbound --n N --m M --phi PHI --seed S [--out FILE] [--verify]
    sspflow experiment --models LIST --shape bipartite|erdos|layered
                       --ns LIST --ms LIST --phis LIST --trials T --seed S
                       [--out results.csv] [--timings]
    sspflow verify INSTANCE [--out lemmas.csv]
    sspflow reconstruct-check INSTANCE [--max-cases N]

Exit codes: 0 success, 1 input error (a bad flag value, an unreadable
file, or a size past the memory at hand), 2 infeasible demand, 3
internal invariant violation. Every package error carries its code as
exit_code (see errors).

All commands are deterministic under fixed seeds. The experiment
runtime column stays empty unless --timings is given, keeping default
output byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import sys
import time

from . import _rng, dimacs, generators, lowerbound
from .analysis import (
    check_lemmas,
    check_reconstruction,
    harvest_reconstruction_cases,
)
from .errors import FlowError, ParseError
from .network import TransformedNetwork, as_transformed, transform
from .solver import (
    Outcome,
    cost_function,
    cost_function_csv_rows,
    run_ssp,
    trace_csv_rows,
)

# perfbench/tracing.py's TARGETS resolves sspflow.cli.solve; nothing calls
# it. It goes when ROADMAP item 1 drops that entry.
solve = run_ssp

MODELS = ("smoothed", "perturbed", "lowerbound")
SHAPES = ("bipartite", "erdos", "layered")

# What main prints before the message, per exit code.
_LABELS = {1: "error", 2: "infeasible", 3: "invariant violation"}


def load_instance(path: str) -> TransformedNetwork:
    """Read a DIMACS file and bring it into single source/sink form."""
    with open(path, "r", encoding="utf-8") as fh:
        net = dimacs.read_instance(fh.read())
    supplies = [v for v, b in net.balance.items() if b > 0]
    demands = [v for v, b in net.balance.items() if b < 0]
    if len(supplies) == 1 and len(demands) == 1:
        return as_transformed(net, supplies[0], demands[0])
    return transform(net)


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _flow_cost(instance: TransformedNetwork, values) -> float:
    """The flow's cost; inf past float64, as costfn's profile prints it
    (every term is nonnegative)."""
    try:
        return math.fsum(map(operator.mul, values, instance._arrays.cost))
    except OverflowError:
        return math.inf


def _nonnegative(flag: str, value):
    """value unchanged when it is None or >= 0; ParseError otherwise."""
    if value is not None and not value >= 0:
        raise ParseError(f"{flag} must be nonnegative, got {value!r}")
    return value


def _seed(value: int) -> int:
    """value unchanged when it is a usable seed, in [0, 2^63); ParseError
    otherwise (numpy would key larger seeds inexactly)."""
    if not 0 <= value < _rng.SEED_LIMIT:
        raise ParseError(f"--seed must lie in [0, 2^63), got {value}")
    return value


def _cost_bound(flag: str, phi: float) -> int:
    """phi as the perturbed model's integer cost bound C; ParseError for
    a fraction, which int() would drop silently."""
    if not phi.is_integer():
        raise ParseError(f"{flag}: perturbed cost bound must be an integer, got {phi:g}")
    return int(phi)


def _comma_list(flag: str, text: str, kind) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(f"{flag}: bad value in {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands

def cmd_solve(args) -> int:
    z = _nonnegative("--z", args.z)
    cap = _nonnegative("--iteration-cap", args.iteration_cap)
    instance = load_instance(args.instance)
    trace = run_ssp(instance, z=z, record_distances=False, iteration_cap=cap)
    if args.out:
        _write_lines(args.out, trace_csv_rows(trace))
    final = trace.final_flow
    print(
        f"{trace.outcome.value} steps={len(trace.steps)} value={final.value!r} "
        f"cost={_flow_cost(instance, final.values)!r}"
    )
    if trace.outcome is Outcome.MAX_FLOW_BELOW_Z:
        target = z if z is not None else instance.z
        print(
            f"no flow of value {target!r}: maximum is {final.value!r}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_costfn(args) -> int:
    instance = load_instance(args.instance)
    cf = cost_function(instance)
    _write_lines(args.out, cost_function_csv_rows(cf))
    return 0


def cmd_generate(args) -> int:
    _seed(args.seed)
    if args.model != "smoothed":
        for flag, value in (("--cost-spec", args.cost_spec), ("--preset", args.preset)):
            if value is not None:
                raise ParseError(f"{flag} applies only to --model smoothed")
    elif args.cost_spec is not None:
        # the spec file gives every interval and phi
        for flag, value in (("--preset", args.preset), ("--phi", args.phi)):
            if value is not None:
                raise ParseError(f"{flag} does not apply with --cost-spec")
    if args.model == "lowerbound" and args.shape is not None:
        raise ParseError("--shape does not apply to --model lowerbound")
    shape = args.shape or "bipartite"
    phi = 1.0 if args.phi is None else args.phi
    if args.model == "smoothed":
        topo = generators.random_topology(args.n, args.m, shape, args.seed)
        if args.cost_spec is not None:
            with open(args.cost_spec, "r", encoding="utf-8") as fh:
                spec = generators.parse_cost_spec(fh.read())
        elif args.preset == "adversarial":
            spec = generators.adversarial_spec(topo, phi)
        else:
            spec = generators.SmoothedCostSpec(phi)
        net = generators.sample_costs(topo, spec, args.seed)
    elif args.model == "perturbed":
        topo = generators.random_topology(args.n, args.m, shape, args.seed)
        c_bound = _cost_bound("--phi", phi)
        net, _scale = generators.perturbed_integer(topo, c_bound, args.seed)
    else:  # lowerbound
        built = lowerbound.build_worstcase(args.n, args.m, phi, args.seed)
        net = built.instance.base
    _write_lines(args.out, dimacs.write_instance(net).splitlines())
    return 0


def cmd_lowerbound(args) -> int:
    built = lowerbound.build_worstcase(args.n, args.m, args.phi, _seed(args.seed))
    instance = built.instance
    full = isinstance(built, lowerbound.HardInstance)
    print(
        f"stage={'full' if full else built.stage} "
        f"nodes={instance.n} edges={instance.m} z={instance.z!r} "
        f"predicted_steps={built.predicted_steps}"
    )
    if args.out:
        _write_lines(args.out, dimacs.write_instance(instance.base).splitlines())
    if args.verify:
        trace = lowerbound.verify_count(built)
        phases = (
            f" over {2 * built.params.chain_length} phases (seed {args.seed})"
            if full else ""
        )
        print(f"verified: {len(trace.steps)} augmentations{phases}")
    return 0


def _trial_seed(base: int, cell_index: int, trial: int) -> int:
    # Stable arithmetic derivation so any (cell, trial) can be rerun alone.
    return (base * 1000003 + cell_index) * 100003 + trial


def _experiment_instance(model, shape, n, m, phi, seed):
    if model == "lowerbound":
        return lowerbound.build_worstcase(n, m, phi, seed).instance
    topo = generators.random_topology(n, m, shape, seed)
    if model == "perturbed":
        net, _scale = generators.perturbed_integer(topo, int(phi), seed)
    else:
        spec = generators.adversarial_spec(topo, phi)
        net = generators.sample_costs(topo, spec, seed)
    return transform(net)


def cmd_experiment(args) -> int:
    models = args.models.split(",")
    unknown = [model for model in models if model not in MODELS]
    if unknown:
        raise ParseError(f"--models: unknown model {unknown[0]!r}")
    ns = _comma_list("--ns", args.ns, int)
    ms = _comma_list("--ms", args.ms, int)
    phis = _comma_list("--phis", args.phis, float)
    if "perturbed" in models:
        for phi in phis:
            _cost_bound("--phis", phi)
    trials = _nonnegative("--trials", args.trials)
    cells = [
        (model, n, m, phi)
        for model in models
        for n in ns
        for m in ms
        for phi in phis
    ]
    _seed(args.seed)
    if cells and trials:
        last = _trial_seed(args.seed, len(cells) - 1, trials - 1)
        if last >= _rng.SEED_LIMIT:
            raise ParseError(
                f"--seed {args.seed}: trial seeds reach {last}, past 2^63"
            )
    failures = 0
    rows = ["cell,trial,steps,runtime,bound_2mnphi_plus_2n,ratio"]
    for cell_index, (model, n, m, phi) in enumerate(cells):
        cell = f"model={model};shape={args.shape};n={n};m={m};phi={phi:g}"
        steps_seen = []
        bound = None
        for trial in range(trials):
            # dropped before the next trial's instance is built, so that
            # one instance and its trace are alive at a time
            instance = trace = None
            seed = _trial_seed(args.seed, cell_index, trial)
            started = time.perf_counter()
            try:
                instance = _experiment_instance(model, args.shape, n, m, phi, seed)
                trace = run_ssp(instance, record_distances=False)
            except FlowError as exc:
                # Bad parameters fail every trial alike and end the run with
                # their own exit code; only a failed self-check becomes a
                # per-trial error row.
                if exc.exit_code != 3:
                    raise
                failures += 1
                rows.append(f"{cell},{trial},error:{type(exc).__name__},,,")
                continue
            elapsed = time.perf_counter() - started
            phi_eff = generators.effective_phi(model, phi)
            bound = 2 * instance.m * instance.n * phi_eff + 2 * instance.n
            steps = len(trace.steps)
            steps_seen.append(steps)
            runtime = f"{elapsed:.6f}" if args.timings else ""
            rows.append(f"{cell},{trial},{steps},{runtime},{bound!r},{steps / bound!r}")
        if steps_seen and bound is not None:
            mean = math.fsum(steps_seen) / len(steps_seen)
            rows.append(f"{cell},mean,{mean!r},,{bound!r},{mean / bound!r}")
    # Written once the grid is done, so a run that anything stops leaves
    # --out as it found it.
    _write_lines(args.out, rows)
    return 3 if failures else 0


def cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    trace = run_ssp(instance, retain_flows=True, record_distances=True)
    report = check_lemmas(trace)
    print(report.as_text())
    if args.out:
        _write_lines(args.out, report.as_csv_rows())
    return 0 if report.all_passed else 3


def cmd_reconstruct_check(args) -> int:
    max_cases = _nonnegative("--max-cases", args.max_cases)
    instance = load_instance(args.instance)
    trace = run_ssp(instance, retain_flows=True, record_distances=False)
    cases = harvest_reconstruction_cases(trace)
    if not cases:
        print("no reconstructable steps harvested")
        return 0
    results = check_reconstruction(instance, cases[:max_cases])
    bad = [case for case, ok in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} reconstructions exact")
    if bad:
        first = bad[0]
        print(
            f"first mismatch: arc {first.arc} threshold {first.threshold!r} "
            f"(step {first.step_index})",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs milliseconds a solve can spend."""
    parser = argparse.ArgumentParser(
        prog="sspflow",
        description="Successive-shortest-path min-cost flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance, emit the step trace")
    p.add_argument("instance")
    p.add_argument("--z", type=float, default=None, help="target value override")
    p.add_argument("--out", default=None, help="trace CSV path")
    p.add_argument("--iteration-cap", type=int, default=None)

    p = sub.add_parser("costfn", help="value-vs-cost profile as CSV")
    p.add_argument("instance")
    p.add_argument("--out", default=None)

    p = sub.add_parser("generate", help="write a seeded instance file")
    p.add_argument("--model", choices=MODELS, default="smoothed")
    # None when not given, so that a model which reads no shape rejects it
    p.add_argument("--shape", choices=SHAPES, default=None,
                   help="topology (default bipartite; not for --model lowerbound)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    # None when not given, so that --cost-spec, whose file gives phi,
    # rejects it
    p.add_argument("--phi", type=float, default=None,
                   help="density bound (default 1); integer cost bound C for"
                        " --model perturbed; not with --cost-spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cost-spec", default=None,
                   help="interval spec file (smoothed model)")
    p.add_argument("--preset", choices=["uniform", "adversarial"], default=None,
                   help="interval choice (smoothed model; default uniform)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("lowerbound", help="exponential-family instance")
    p.add_argument("--n", type=int, required=True, help="seed gadget side size")
    p.add_argument("--m", type=int, required=True, help="seed gadget edge count")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--verify", action="store_true",
                   help="solve and check the predicted behavior")

    p = sub.add_parser("experiment", help="step-count grid experiment")
    p.add_argument("--models", default="smoothed",
                   help="comma list: smoothed,perturbed,lowerbound")
    p.add_argument("--shape", choices=SHAPES, default="bipartite")
    p.add_argument("--ns", required=True, help="comma list of n")
    p.add_argument("--ms", required=True, help="comma list of m")
    p.add_argument("--phis", required=True,
                   help="comma list of phi (C for perturbed)")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="results CSV (default stdout)")
    p.add_argument("--timings", action="store_true",
                   help="fill the runtime column (breaks byte-determinism)")

    p = sub.add_parser("verify", help="run the lemma suite on an instance")
    p.add_argument("instance")
    p.add_argument("--out", default=None, help="lemma report CSV path")

    p = sub.add_parser("reconstruct-check",
                       help="harvest and check flow reconstructions")
    p.add_argument("instance")
    p.add_argument("--max-cases", type=int, default=50)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a replaced cmd_* function is the one run.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except FlowError as exc:
        print(f"{_LABELS[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
