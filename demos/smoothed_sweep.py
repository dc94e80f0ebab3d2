"""Sweep the density bound and watch step counts stay linear.

For each phi, topologies are fixed adversarially and only the edge
costs are random (each drawn from an interval of length 1/phi). The
observed mean augmentation count sits far below the 2*m*n*phi + 2*n
guarantee; the point of the sweep is that it never crosses it, and
that the count barely moves as phi grows while the bound balloons.

Run:  python3 demos/smoothed_sweep.py
"""

import math

from sspflow import (
    adversarial_spec,
    bipartite_topology,
    run_ssp,
    sample_costs,
    transform,
)

TRIALS = 40
SIDE = 6
EDGES = 18


def mean_steps(phi: float) -> tuple[float, float]:
    steps = []
    bound = 0.0
    for trial in range(TRIALS):
        seed = int(phi * 1000) + trial
        topo = bipartite_topology(SIDE, EDGES)
        spec = adversarial_spec(topo, phi)
        inst = transform(sample_costs(topo, spec, seed))
        trace = run_ssp(inst, record_distances=False)
        steps.append(len(trace.steps))
        bound = 2 * inst.m * inst.n * phi + 2 * inst.n
    return math.fsum(steps) / len(steps), bound


def main():
    print(f"bipartite {SIDE}x{SIDE}, {EDGES} tier edges, {TRIALS} trials per phi")
    print("(this topology routes one unit per tier edge, so the observed")
    print(" count is pinned at m while the guarantee grows with phi)")
    print()
    print(f"{'phi':>8}  {'mean steps':>10}  {'bound':>12}  {'ratio':>8}")
    for phi in (1.0, 2.0, 5.0, 10.0, 50.0, 100.0, 1000.0):
        mean, bound = mean_steps(phi)
        print(f"{phi:8g}  {mean:10.2f}  {bound:12.0f}  {mean / bound:8.5f}")
    print()
    print("csv: phi,mean_steps,bound,ratio")
    for phi in (1.0, 10.0, 100.0):
        mean, bound = mean_steps(phi)
        print(f"{phi:g},{mean!r},{bound!r},{mean / bound!r}")


if __name__ == "__main__":
    main()
