"""The exponential family, from seed gadget to full construction.

Three acts:

1. the bipartite seed gadget takes exactly one augmentation per tier
   edge, all of unit size, with path lengths inside [7, 11];
2. each wrapper stage doubles the augmentation count by forcing the
   solver to fill its core and then drain it back out through bypass
   edges twice as expensive as everything before;
3. the full construction chains the doubling stages into four node
   chains and provably needs an exponential number of augmentations,
   verified here step by step against the closed-form prediction.

Run:  python3 demos/worstcase_family.py
"""

from sspflow import (
    LowerBoundParams,
    build_hard_instance,
    run_ssp,
    stage_sequence,
    verify_count,
)


def act_one():
    print("1. seed gadget (side 4, 9 tier edges)")
    stage = stage_sequence(4, 9, 1, seed=0)[0]
    trace = run_ssp(stage.instance, record_distances=False)
    lengths = [s.length for s in trace.steps]
    print(f"   augmentations: {len(trace.steps)} (one per tier edge)")
    print(f"   amounts all 1.0: {all(s.amount == 1.0 for s in trace.steps)}")
    print(f"   length range: [{min(lengths):.3f}, {max(lengths):.3f}]")
    print()


def act_two():
    print("2. doubling stages (seed 4x4, 8 edges)")
    print(f"   {'stage':>5}  {'nodes':>5}  {'edges':>5}  {'steps':>6}  {'predicted':>9}")
    for i, stage in enumerate(stage_sequence(4, 8, 5, seed=0), start=1):
        trace = run_ssp(stage.instance, record_distances=False)
        inst = stage.instance
        print(
            f"   {i:>5}  {inst.n:>5}  {inst.m:>5}  "
            f"{len(trace.steps):>6}  {stage.predicted_steps:>9}"
        )
    print()


def act_three():
    print("3. full construction")
    for side, edges, phi in [(4, 4, 64.0), (8, 16, 64.0), (8, 16, 128.0)]:
        params = LowerBoundParams(side, edges, phi)
        hard = build_hard_instance(params, seed=0)
        trace = verify_count(hard)
        print(
            f"   side={side} edges={edges} phi={phi:g}: "
            f"{hard.instance.n} nodes, {hard.instance.m} edges, "
            f"{len(trace.steps)} augmentations "
            f"(predicted {hard.predicted_steps}, "
            f"{2 * params.chain_length} phases checked)"
        )
    print()
    print("   doubling the density bound doubles the count; the family")
    print("   scales as m * 2^(k-1) * 2M with k ~ log2(phi).")


def main():
    act_one()
    act_two()
    act_three()


if __name__ == "__main__":
    main()
