"""Recover an intermediate flow from a single residual arc.

During a run, any augmentation whose path crosses an empty original
edge leaves a fingerprint: the flow right before that augmentation can
be rebuilt knowing only (a) which arc was empty and (b) any length
threshold between the previous path length and the current one. The
probe edge's own cost is never consulted: its cost gets overridden
before the re-run, which is what makes the recovery useful when
reasoning about how much information one edge cost carries.

Run:  python3 demos/reconstruction.py
"""

from sspflow import (
    adversarial_spec,
    erdos_topology,
    harvest_reconstruction_cases,
    reconstruct,
    run_ssp,
    sample_costs,
    transform,
)


def main():
    topo = erdos_topology(6, 12, seed=8, capacities="int")
    spec = adversarial_spec(topo, 5.0)
    inst = transform(sample_costs(topo, spec, seed=8))
    print(f"instance: {inst.n} nodes, {inst.m} edges, target {inst.z:g}")

    trace = run_ssp(inst, retain_flows=True)
    print(f"solved in {len(trace.steps)} augmentations")
    print()

    cases = harvest_reconstruction_cases(trace)
    print(f"harvested {len(cases)} reconstructable (arc, threshold) pairs")
    case = cases[len(cases) // 2]
    e = case.arc >> 1
    direction = "forward" if case.arc % 2 == 0 else "backward"
    edge = inst.base.edges[e]
    print(
        f"probe: {direction} arc over edge {e} ({edge.tail} -> {edge.head}), "
        f"threshold {case.threshold:.6f}, taken before step {case.step_index}"
    )
    print()

    got = reconstruct(inst, case.arc, case.threshold)
    want = case.expected
    print("edge  recovered  actual")
    for i, (g, w) in enumerate(zip(got.values, want.values)):
        marker = "" if g == w else "   <- MISMATCH"
        print(f"{i:4d}  {g:9g}  {w:6g}{marker}")
    exact = got.values == want.values
    print()
    print(f"recovered flow identical to the intermediate flow: {exact}")

    # the probe arc's cost is irrelevant by construction: overriding it
    # with anything else changes nothing about the recovery
    variant = inst.base.with_edge_cost(e, 0.123)
    from sspflow import TransformedNetwork

    inst2 = TransformedNetwork(variant, inst.source, inst.sink, inst.z)
    again = reconstruct(inst2, case.arc, case.threshold)
    print(f"recovery unchanged after resampling the probe cost: "
          f"{again.values == got.values}")


if __name__ == "__main__":
    main()
