"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with -s; under plain
pytest -v the test outcome line carries the same information) and
enforces its wall-clock budget.
"""

import math
import time

import pytest

from sspflow import (
    LowerBoundParams,
    Outcome,
    SmoothedCostSpec,
    TransformedNetwork,
    adversarial_spec,
    bipartite_topology,
    build_hard_instance,
    check_lemmas,
    check_reconstruction,
    effective_phi,
    erdos_topology,
    harvest_reconstruction_cases,
    layered_topology,
    perturbed_integer,
    random_topology,
    reconstruct,
    reference_solve,
    run_ssp,
    sample_costs,
    stage_sequence,
    transform,
    verify_count,
)


def report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {name}: {detail} [{elapsed:.2f}s / {budget:.0f}s]", flush=True)
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget:.0f}s"


def test_criterion_1_exponential_counts_exact():
    started = time.perf_counter()
    cells = [(8, 16, 64.0, 256), (8, 16, 128.0, 512), (4, 4, 64.0, 32)]
    checked = 0
    for side, edges, phi, want in cells:
        params = LowerBoundParams(side, edges, phi)
        for seed in range(20):
            trace = verify_count(build_hard_instance(params, seed))
            assert len(trace.steps) == want, (side, edges, phi, seed)
            checked += 1
    report(
        "criterion-1",
        checked == 60,
        f"hard-instance counts exact on {checked} seeded builds "
        f"(256/512/32 augmentations)",
        time.perf_counter() - started,
        5.0,
    )


def test_criterion_2_seed_gadget_counts_and_costs():
    started = time.perf_counter()
    total = 0
    for side, edges in [(3, 7), (5, 10), (10, 100)]:
        stage = stage_sequence(side, edges, 1, seed=0)[0]
        trace = run_ssp(stage.instance, record_distances=False)
        assert trace.outcome is Outcome.REACHED_Z
        assert len(trace.steps) == edges, (side, edges)
        for step in trace.steps:
            assert step.amount == 1.0
            assert 7.0 - 1e-9 <= step.length <= 11.0 + 1e-9, (side, edges)
        total += edges
    report(
        "criterion-2",
        total == 117,
        "seed gadget takes exactly m unit steps, lengths in [7, 11]",
        time.perf_counter() - started,
        1.0,
    )


def test_criterion_3_extension_doubles_counts():
    started = time.perf_counter()
    checked = 0
    for seed in range(10):
        seq = stage_sequence(4, 8, 5, seed)  # depth matching phi = 2^9
        for i, stage in enumerate(seq, start=1):
            trace = run_ssp(stage.instance, record_distances=False)
            want = 8 * 2 ** (i - 1)
            assert len(trace.steps) == want, (seed, i)
            assert stage.predicted_steps == want
            checked += 1
    report(
        "criterion-3",
        checked == 50,
        "each extension stage exactly doubles the augmentation count "
        "(stages 1..5, 10 seeds)",
        time.perf_counter() - started,
        5.0,
    )


def test_criterion_4_smoothed_grid_within_bound():
    started = time.perf_counter()
    trials = 50
    worst = 0.0
    cells = 0
    for n in (6, 10):
        for m in (2 * n, n * n // 2):
            for phi in (1.0, 10.0, 100.0):
                steps = []
                bound = None
                for trial in range(trials):
                    seed = 100_000 * cells + trial
                    topo = bipartite_topology(n, m)
                    spec = adversarial_spec(topo, phi)
                    inst = transform(sample_costs(topo, spec, seed))
                    trace = run_ssp(inst, record_distances=False)
                    assert trace.outcome is Outcome.REACHED_Z
                    steps.append(len(trace.steps))
                    bound = 2 * inst.m * inst.n * phi + 2 * inst.n
                mean = math.fsum(steps) / trials
                assert mean <= bound, (n, m, phi, mean, bound)
                worst = max(worst, mean / bound)
                cells += 1
    report(
        "criterion-4",
        cells == 12,
        f"mean steps within 2mn*phi + 2n on all {cells} grid cells "
        f"(worst ratio {worst:.4f})",
        time.perf_counter() - started,
        60.0,
    )


def _lemma_pool():
    """Small-instance stream mixing shapes, conventions and densities."""
    idx = 0
    while True:
        shape = ("erdos", "layered", "bipartite")[idx % 3]
        phi = (1.0, 10.0, 50.0)[(idx // 3) % 3]
        seed = idx
        if shape == "erdos":
            n = 5 + idx % 4
            topo = erdos_topology(n, min(8 + idx % 5, n * (n - 1) // 2), seed)
        elif shape == "layered":
            n, m = [(6, 7), (7, 9), (8, 11), (9, 12)][idx % 4]
            topo = layered_topology(n, m, seed)
        else:
            topo = bipartite_topology(3, 5 + idx % 5)
        spec = adversarial_spec(topo, phi)
        yield transform(sample_costs(topo, spec, seed))
        idx += 1


def test_criterion_5_lemma_suite_on_pool():
    started = time.perf_counter()
    pool = _lemma_pool()
    count = 0
    while count < 500:
        inst = next(pool)
        if inst.n > 12:
            continue
        trace = run_ssp(inst, retain_flows=True)
        rep = check_lemmas(trace)
        assert rep.all_passed, (count, rep.as_text())
        count += 1
    report(
        "criterion-5",
        count == 500,
        "structural lemma suite passes on 500/500 small instances",
        time.perf_counter() - started,
        120.0,
    )


def test_criterion_6_reconstruction_exact_and_cost_blind():
    started = time.perf_counter()
    verified = 0
    blind_checked = 0
    seed = 0
    while verified < 200 or blind_checked < 30:
        seed += 1
        topo = erdos_topology(6, 12, seed, capacities="int")
        spec = adversarial_spec(topo, 5.0)
        inst = transform(sample_costs(topo, spec, seed))
        trace = run_ssp(inst, retain_flows=True)
        cases = harvest_reconstruction_cases(trace)
        for case, ok in check_reconstruction(inst, cases):
            assert ok, (seed, case.arc, case.threshold)
            verified += 1
        if cases:
            # recovery must not depend on the probe edge's own cost
            case = cases[0]
            e = case.arc >> 1
            lo, hi = spec.interval_for(e)
            variant = TransformedNetwork(
                inst.base.with_edge_cost(e, (lo + hi) / 2),
                inst.source,
                inst.sink,
                inst.z,
            )
            a = reconstruct(inst, case.arc, case.threshold)
            b = reconstruct(variant, case.arc, case.threshold)
            assert a.values == b.values, seed
            blind_checked += 1
    report(
        "criterion-6",
        verified >= 200 and blind_checked >= 30,
        f"{verified} reconstruction triples recovered exactly; "
        f"{blind_checked} probe-cost-resample invariance checks",
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_7_reference_agreement():
    started = time.perf_counter()
    count = 0
    idx = 0
    while count < 1000:
        idx += 1
        shape = ("erdos", "layered")[idx % 2]
        if shape == "erdos":
            n = 5 + idx % 3
            topo = erdos_topology(n, min(7 + idx % 6, n * (n - 1) // 2), idx)
        else:
            n, m = [(6, 7), (7, 9), (8, 12)][idx % 3]
            topo = layered_topology(n, m, idx)
        phi = (1.0, 10.0)[idx % 2]
        spec = adversarial_spec(topo, phi)
        inst = transform(sample_costs(topo, spec, idx))
        if inst.n > 10:
            continue
        a = run_ssp(inst)
        b = reference_solve(inst)
        assert a.outcome == b.outcome, idx
        assert len(a.steps) == len(b.steps), idx
        for x, y in zip(a.steps, b.steps):
            assert x.path_arcs == y.path_arcs, (idx, x.index)
            assert abs(x.length - y.length) <= 1e-9, (idx, x.index)
        count += 1
    report(
        "criterion-7",
        count == 1000,
        "production and reference solvers agree on 1000/1000 instances "
        "(identical paths, lengths within 1e-9)",
        time.perf_counter() - started,
        60.0,
    )


def test_criterion_8_perturbed_model_within_bound():
    started = time.perf_counter()
    cells = 0
    worst = 0.0
    for c_bound in (2, 4):
        steps = []
        bound = None
        for trial in range(50):
            seed = 10_000 * c_bound + trial
            topo = bipartite_topology(8, 24)
            net, _scale = perturbed_integer(topo, c_bound, seed)
            inst = transform(net)
            trace = run_ssp(inst, record_distances=False)
            assert trace.outcome is Outcome.REACHED_Z
            steps.append(len(trace.steps))
            phi_eff = effective_phi("perturbed", float(c_bound))
            bound = 2.0 * (2 * inst.m * inst.n * phi_eff + 2 * inst.n)
        mean = math.fsum(steps) / len(steps)
        assert mean <= bound, (c_bound, mean, bound)
        worst = max(worst, mean / bound)
        cells += 1
    report(
        "criterion-8",
        cells == 2,
        f"perturbed-integer model within twice the linear bound "
        f"(worst ratio {worst:.4f})",
        time.perf_counter() - started,
        60.0,
    )
