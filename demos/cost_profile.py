"""Walk through a solve and its value-vs-cost profile.

Builds a small two-route instance, runs the solver step by step, and
prints the piecewise-linear map from flow value to minimum cost. The
slopes are exactly the successive augmenting path lengths, so the
profile doubles as a readable summary of the whole run.

Run:  python3 demos/cost_profile.py
"""

from sspflow import Edge, FlowNetwork, cost_function, run_ssp, transform
from sspflow.solver import cost_function_csv_rows, trace_csv_rows


def build_instance():
    # two disjoint routes of different costs plus a shared overflow edge
    edges = [
        Edge(0, 1, 4.0, 0.10),
        Edge(1, 3, 4.0, 0.15),
        Edge(0, 2, 5.0, 0.30),
        Edge(2, 3, 5.0, 0.35),
        Edge(1, 2, 2.0, 0.05),
    ]
    return transform(
        FlowNetwork(edges, {0: 9.0, 3: -9.0}, cost_bound=1.0)
    )


def main():
    inst = build_instance()
    print(f"instance: {inst.n} nodes, {inst.m} edges, target value {inst.z}")
    print()

    trace = run_ssp(inst)
    print(f"outcome: {trace.outcome.value} after {len(trace.steps)} augmentations")
    edges = inst.base.edges
    for step in trace.steps:
        # arc 2e runs along edge e, arc 2e + 1 against it
        nodes = [inst.source] + [
            edges[a >> 1].tail if a & 1 else edges[a >> 1].head
            for a in step.path_arcs
        ]
        route = " -> ".join(map(str, nodes))
        print(
            f"  step {step.index}: length {step.length:.4f}, "
            f"amount {step.amount:g}, via {route}"
        )
    print()

    cf = cost_function(inst)
    print("value-vs-cost profile (slope = active path length):")
    for j, (x, y) in enumerate(cf.breakpoints):
        slope = f"  slope {cf.slopes[j]:.4f} ->" if j < len(cf.slopes) else ""
        print(f"  value {x:6.2f}  cost {y:8.4f}{slope}")
    print(f"profile convex: {cf.is_convex()}")
    print()

    print("trace CSV:")
    for row in trace_csv_rows(trace):
        print(f"  {row}")
    print()
    print("profile CSV:")
    for row in cost_function_csv_rows(cf):
        print(f"  {row}")


if __name__ == "__main__":
    main()
