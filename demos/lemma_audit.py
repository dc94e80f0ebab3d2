"""Audit the structural guarantees behind the step-count analysis.

Each solve is replayed through eight independent checks: distances
only grow, path lengths never decrease, the cost profile stays convex,
every path crosses an empty arc, bad steps stay below the node count,
no residual negative cycles appear, reversed path arcs are themselves
optimal, and auxiliary edges are never traversed backwards. The checks
are the executable versions of the facts the linear smoothed bound
rests on; a single failure anywhere would invalidate the analysis. The
detailed instance is also replayed in exact arithmetic, over its costs
scaled to ints by one common factor, which tells whether float rounding
changed any path choice.

Run:  python3 demos/lemma_audit.py
"""

from sspflow import (
    adversarial_spec,
    bipartite_topology,
    check_lemmas,
    erdos_topology,
    exact_check,
    layered_topology,
    run_ssp,
    sample_costs,
    transform,
)


def audit_one(verbose: bool):
    topo = bipartite_topology(4, 13)
    inst = transform(sample_costs(topo, adversarial_spec(topo, 10.0), 21))
    trace = run_ssp(inst, retain_flows=True)
    report = check_lemmas(trace)
    if verbose:
        print(f"single instance, {len(trace.steps)} augmentations:")
        print(report.as_text())
        print()
        exact = exact_check(trace)
        where = "" if exact.passed else f" at step {exact.first_violation_step}"
        print(f"exact replay: {'PASS' if exact.passed else 'FAIL'}{where}")
        print()
    return report


def audit_pool(count: int):
    passed = 0
    checked = 0
    for idx in range(count):
        if idx % 2:
            topo = erdos_topology(5 + idx % 4, 8, idx)
        else:
            topo = layered_topology(6 + idx % 3, 7, idx)
        phi = (1.0, 10.0, 50.0)[idx % 3]
        inst = transform(sample_costs(topo, adversarial_spec(topo, phi), idx))
        report = check_lemmas(run_ssp(inst, retain_flows=True))
        checked += 1
        passed += report.all_passed
    return passed, checked


def main():
    audit_one(verbose=True)
    passed, checked = audit_pool(120)
    print(f"pool audit: {passed}/{checked} instances pass all eight checks")
    print()
    print("csv: lemma_id,pass,first_violation_step")
    for row in audit_one(verbose=False).as_csv_rows()[1:]:
        print(row)


if __name__ == "__main__":
    main()
