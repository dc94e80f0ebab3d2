import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sspflow import (
    AUXILIARY,
    ORIGINAL,
    BalanceMismatch,
    Edge,
    FlowNetwork,
    InfeasibleFlow,
    InvariantError,
    SmoothedCostSpec,
    TransformedNetwork,
    adversarial_spec,
    as_transformed,
    check_feasible,
    layered_topology,
    perturbed_integer,
    random_topology,
    residual_arcs,
    run_ssp,
    sample_costs,
    transform,
)

from sspflow.network import Flow, empty_arcs, push
from sspflow.solver import trace_csv_rows

from conftest import (
    lp_feasible_value,
    random_instance,
    single_edge_network,
    uniform_instance,
)


class TestConstruction:
    def test_minimal(self):
        net = single_edge_network()
        assert net.n == 2 and net.m == 1
        assert net.balance[0] == 3.0 and net.balance[1] == -3.0
        assert (net.edges[0].tail, net.edges[0].head) == (0, 1)

    def test_isolated_node_kept(self):
        net = FlowNetwork(
            [Edge(0, 1, 1.0, 0.0)], {0: 1.0, 1: -1.0}, nodes=[0, 1, 7]
        )
        assert net.nodes == (0, 1, 7)
        assert net.balance[7] == 0.0

    def test_self_loop_rejected(self):
        with pytest.raises(InvariantError, match="self-loop"):
            FlowNetwork([Edge(2, 2, 1.0, 0.0)], {})

    def test_duplicate_rejected(self):
        with pytest.raises(InvariantError, match="duplicate"):
            FlowNetwork(
                [Edge(0, 1, 1.0, 0.1), Edge(0, 1, 2.0, 0.2)],
                {0: 0.0, 1: 0.0},
            )

    def test_two_cycle_rejected(self):
        with pytest.raises(InvariantError, match="2-cycle"):
            FlowNetwork(
                [Edge(0, 1, 1.0, 0.1), Edge(1, 0, 2.0, 0.2)],
                {0: 0.0, 1: 0.0},
            )

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvariantError, match="capacity"):
            FlowNetwork([Edge(0, 1, -1.0, 0.1)], {0: 0.0, 1: 0.0})

    def test_infinite_capacity_rejected(self):
        with pytest.raises(InvariantError, match="capacity"):
            FlowNetwork([Edge(0, 1, math.inf, 0.1)], {0: 0.0, 1: 0.0})

    def test_cost_above_bound_rejected(self):
        with pytest.raises(InvariantError, match="outside"):
            FlowNetwork(
                [Edge(0, 1, 1.0, 1.5)], {0: 0.0, 1: 0.0}, cost_bound=1.0
            )
        # same cost is fine under a wider bound
        FlowNetwork([Edge(0, 1, 1.0, 1.5)], {0: 0.0, 1: 0.0}, cost_bound=2.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(InvariantError, match="outside"):
            FlowNetwork([Edge(0, 1, 1.0, -0.1)], {0: 0.0, 1: 0.0})

    def test_aux_cost_must_be_zero(self):
        with pytest.raises(InvariantError, match="auxiliary"):
            FlowNetwork(
                [Edge(0, 1, 1.0, 0.5, AUXILIARY)], {0: 0.0, 1: 0.0}
            )

    def test_unbalanced_rejected(self):
        with pytest.raises(BalanceMismatch):
            FlowNetwork([Edge(0, 1, 1.0, 0.1)], {0: 2.0, 1: -1.0})

    def test_balance_magnitudes_past_float64_rejected(self):
        # their fsum overflows: an input error, not an OverflowError
        with pytest.raises(InvariantError, match="past float64"):
            FlowNetwork([Edge(0, 1, 1e308, 0.5)], {0: 1e308, 1: -1e308})

    def test_path_length_bound_past_float64_rejected(self):
        # n * cost_bound bounds every path length and potential
        edges = [Edge(0, 1, 1.0, 5e307), Edge(1, 2, 1.0, 5e307)]
        with pytest.raises(InvariantError, match="3 nodes times cost bound"):
            FlowNetwork(edges, {0: 1.0, 2: -1.0}, cost_bound=1e308)
        FlowNetwork(edges, {0: 1.0, 2: -1.0}, cost_bound=5e307)

    def test_balance_tolerates_float_noise(self):
        b = {0: 0.1 + 0.2, 1: -0.3}  # off by one ulp-ish amount
        net = FlowNetwork([Edge(0, 1, 1.0, 0.1)], b)
        assert net.n == 2

    def test_immutable(self):
        net = single_edge_network()
        with pytest.raises(AttributeError):
            net.cost_bound = 2.0

    def test_equality_ignores_node_order(self):
        edges = [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 0.2)]
        a = FlowNetwork(edges, {0: 1.0, 2: -1.0}, nodes=[2, 9, 0, 1])
        b = FlowNetwork(tuple(edges), {2: -1.0, 0: 1.0}, nodes=[9, 1, 0, 2])
        assert a == b and hash(a) == hash(b)
        c = FlowNetwork(edges, {0: 2.0, 2: -2.0}, nodes=[0, 1, 2, 9])
        assert c != a

    def test_with_edge_cost(self):
        net = single_edge_network()
        net2 = net.with_edge_cost(0, 0.9)
        assert net2.edges[0].cost == 0.9
        assert net.edges[0].cost == 0.5
        assert net2 != net

    def test_with_edge_cost_rejects_edge_outside_range(self):
        # -1 used to replace the last edge through negative indexing
        net = single_edge_network()
        for e in (-1, -2, 1):
            with pytest.raises(IndexError, match=f"edge {e} outside 0..0"):
                net.with_edge_cost(e, 0.25)


def golden_networks():
    """Networks over the topologies whose digests tests/test_generators.py
    pins, through both cost models, plus sample_costs' wider bound."""
    seeds = (0, 1, 5, 2**63 - 1)
    topos = [
        random_topology(n, m, "erdos", seed, capacities=caps)
        for n, m in ((2, 1), (6, 15), (8, 14), (40, 780))
        for caps in ("int", "real")
        for seed in seeds
    ] + [
        layered_topology(n, m, seed, layers=layers, capacities=caps)
        for n, m, layers in ((6, 9, 2), (9, 12, 3), (40, 150, 5))
        for caps in ("int", "real")
        for seed in seeds
    ]
    for i, topo in enumerate(topos):
        yield sample_costs(topo, SmoothedCostSpec(1.0), i)
        yield sample_costs(topo, adversarial_spec(topo, 8.0), i)
        yield perturbed_integer(topo, 16, i)[0]


def constructed(net, edges=None):
    """The full constructor over net's parts, its edges perhaps replaced."""
    return FlowNetwork(
        net.edges if edges is None else edges,
        dict(net.balance),
        net.nodes,
        net.cost_bound,
    )


def same_network(a, b):
    """Equal, and with the same value types and balance items too."""
    return a == b and repr(
        (a.edges, sorted(a.balance.items()), a.nodes, a.cost_bound)
    ) == repr((b.edges, sorted(b.balance.items()), b.nodes, b.cost_bound))


def reference_transform(net):
    """transform as the full constructor builds it, every edge checked."""
    supplies = [(v, b) for v, b in sorted(net.balance.items()) if b > 0]
    demands = [(v, -b) for v, b in sorted(net.balance.items()) if b < 0]
    s = max(net.nodes) + 1
    t = s + 1
    edges = list(net.edges)
    edges += [Edge(s, v, b, 0.0, AUXILIARY) for v, b in supplies]
    edges += [Edge(v, t, b, 0.0, AUXILIARY) for v, b in demands]
    z = math.fsum(b for _, b in supplies)
    return FlowNetwork(edges, {s: z, t: -z}, net.nodes + (s, t), net.cost_bound)


def raised(fn, *args):
    """The exception fn(*args) raises, as (type, message)."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestDerivedNetworks:
    """with_edge_cost and transform validate only what they change, and
    build what the full constructor builds from the same parts."""

    def test_transform_matches_constructor(self):
        count = 0
        for net in golden_networks():
            inst = transform(net)
            assert same_network(inst.base, reference_transform(net))
            assert same_network(inst.base, constructed(inst.base))
            count += 1
        assert count == 3 * 4 * 2 * (4 + 3)

    def test_with_edge_cost_matches_constructor(self):
        rng = random.Random(7)
        count = 0
        for net in golden_networks():
            for base in (net, transform(net).base):
                for _ in range(2):
                    e = rng.randrange(base.m)
                    old = base.edges[e]
                    if old.kind == AUXILIARY:
                        cost = 0.0
                    else:
                        cost = rng.choice(
                            (0.0, base.cost_bound, rng.uniform(0.0, base.cost_bound))
                        )
                    edges = list(base.edges)
                    edges[e] = Edge(old.tail, old.head, old.capacity, cost, old.kind)
                    got = base.with_edge_cost(e, cost)
                    assert same_network(got, constructed(base, edges))
                    assert got.edges[e].cost == cost and base.edges[e] == old
                    count += 1
        assert count == 2 * 2 * 3 * 4 * 2 * (4 + 3)

    @pytest.mark.parametrize(
        "cost", [math.nan, math.inf, -math.inf, -0.5, 1.5, 0.25]
    )
    def test_with_edge_cost_rejects_as_constructor(self, cost):
        net = transform(single_edge_network())
        base = net.base
        for e in range(base.m):
            edges = list(base.edges)
            old = edges[e]
            edges[e] = Edge(old.tail, old.head, old.capacity, cost, old.kind)
            if old.kind == ORIGINAL and 0.0 <= cost <= base.cost_bound:
                assert same_network(base.with_edge_cost(e, cost), constructed(base, edges))
                continue
            want = raised(constructed, base, edges)
            assert want[0] is InvariantError
            assert raised(base.with_edge_cost, e, cost) == want

    def test_transform_rejects_size_as_constructor(self):
        # n * cost_bound fits, (n + 2) * cost_bound does not
        cost_bound = sys.float_info.max / 3
        net = FlowNetwork([Edge(0, 1, 1.0, 0.5)], {0: 1.0, 1: -1.0}, cost_bound=cost_bound)
        want = raised(reference_transform, net)
        assert want == (InvariantError, f"4 nodes times cost bound {cost_bound} overflows")
        assert raised(transform, net) == want


BAD_NETWORKS = {
    # name: (edges, balance, (exception type, message) at the first bad edge)
    "self-loop": (
        [Edge(0, 1, 1.0, 0.1), Edge(2, 2, 1.0, 0.0)], None,
        (InvariantError, "edge 1: self-loop at node 2")),
    "nan capacity": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, math.nan, 0.1)], None,
        (InvariantError, "edge 1: capacity must be finite and >= 0")),
    "negative capacity": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, -0.5, 0.1)], None,
        (InvariantError, "edge 1: capacity must be finite and >= 0")),
    "infinite cost": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, math.inf)], None,
        (InvariantError, "edge 1: cost must be finite")),
    "cost above bound": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 1.5)], None,
        (InvariantError, "edge 1: cost 1.5 outside [0, 1.0]")),
    "negative cost": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, -0.0001)], None,
        (InvariantError, "edge 1: cost -0.0001 outside [0, 1.0]")),
    "auxiliary cost": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 0.5, AUXILIARY)], None,
        (InvariantError, "edge 1: auxiliary edges must cost 0")),
    "unknown kind": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 0.5, "extra")], None,
        (InvariantError, "edge 1: unknown kind 'extra'")),
    "unhashable kind": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 0.1, ["original"])], None,
        (InvariantError, "edge 1: unknown kind ['original']")),
    "duplicate": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 0.1), Edge(0, 1, 2.0, 0.2)], None,
        (InvariantError, "edge 2: duplicate edge (0, 1)")),
    "antiparallel": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 0.1), Edge(2, 1, 2.0, 0.2)], None,
        (InvariantError, "edge 2: antiparallel pair (2, 1) forms a 2-cycle")),
    "huge capacity": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 10**400, 0.1)], None,
        (OverflowError, "int too large to convert to float")),
    "huge cost": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, 10**400)], None,
        (OverflowError, "int too large to convert to float")),
    "text capacity": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, "1", 0.1)], None,
        (TypeError, "must be real number, not str")),
    "not an edge": (
        [Edge(0, 1, 1.0, 0.1), (1, 2, 1.0, 0.1)], None,
        (AttributeError, "'tuple' object has no attribute 'tail'")),
    # the first bad edge names the error, whatever comes after it
    "self-loop before huge capacity": (
        [Edge(0, 0, 1.0, 0.1), Edge(1, 2, 10**400, 0.1)], None,
        (InvariantError, "edge 0: self-loop at node 0")),
    "self-loop before an edge without a kind": (
        [Edge(0, 0, 1.0, 0.1), SimpleNamespace(tail=1, head=2, capacity=1.0, cost=0.1)],
        None, (InvariantError, "edge 0: self-loop at node 0")),
    "edge without a head": (
        [Edge(0, 0, 1.0, 0.1), SimpleNamespace(tail=1, capacity=1.0, cost=0.1)], None,
        (AttributeError, "'types.SimpleNamespace' object has no attribute 'head'")),
    "nan cost before duplicate": (
        [Edge(0, 1, 1.0, 0.1), Edge(1, 2, 1.0, math.nan), Edge(0, 1, 1.0, 0.2)], None,
        (InvariantError, "edge 1: cost must be finite")),
    # node ids are checked before the edges, and the edges before balances
    "node ids before edges": (
        [Edge(0, 1, 1.0, 0.1), Edge(0.5, 0.5, 1.0, 0.1)], None,
        (InvariantError, "node ids must be ints")),
    "edges before balances": (
        [Edge(0, 1, 1.0, 2.0)], {0: 1.0, 1: 2.0},
        (InvariantError, "edge 0: cost 2.0 outside [0, 1.0]")),
    "unbalanced": (
        [Edge(0, 1, 1.0, 0.5)], {0: 1.0, 1: 2.0},
        (BalanceMismatch, "balances sum to 3.0, expected 0")),
}


class TestValidationFidelity:
    """Each bad input raises the exception and message that the per-edge
    checks give for its first bad edge, as recorded before FlowNetwork
    checked its edges in bulk."""

    @pytest.mark.parametrize("name", sorted(BAD_NETWORKS))
    def test_bad_network(self, name):
        edges, balance, want = BAD_NETWORKS[name]
        balance = {0: 0.0, 1: 0.0, 2: 0.0} if balance is None else balance
        assert raised(FlowNetwork, edges, balance) == want

    @pytest.mark.parametrize(
        "edges",
        [
            [Edge(0, 1, 1.0, 0.0), Edge(1, 2, 2.0, 1.0)],
            [Edge(0, 1, 1, 0), Edge(1, 2, 2, 1)],
            [Edge(0, 1, Fraction(1, 3), Fraction(2, 3)), Edge(1, 2, 0.0, -0.0)],
            [Edge(0, 1, 1.0, 0.5), Edge(1, 2, 1.0, 0.0, AUXILIARY)],
        ],
    )
    def test_good_network_keeps_its_edges(self, edges):
        net = FlowNetwork(edges, {0: 0.0, 1: 0.0, 2: 0.0})
        assert repr(net.edges) == repr(tuple(edges))


class TestTransform:
    def test_single_supply_demand(self):
        net = single_edge_network(demand=3.0)
        inst = transform(net)
        assert (inst.source, inst.sink) == (2, 3)
        assert inst.z == 3.0
        base = inst.base
        assert base.m == 3
        aux = base.edges[1:]
        assert aux[0] == Edge(2, 0, 3.0, 0.0, AUXILIARY)
        assert aux[1] == Edge(1, 3, 3.0, 0.0, AUXILIARY)
        assert base.balance[2] == 3.0 and base.balance[3] == -3.0
        assert base.balance[0] == 0.0 and base.balance[1] == 0.0

    def test_zero_balance_network(self):
        net = FlowNetwork([Edge(0, 1, 1.0, 0.1)], {0: 0.0, 1: 0.0})
        inst = transform(net)
        assert inst.z == 0.0
        assert inst.base.m == 1  # no auxiliary edges at all

    def test_multiple_supplies(self):
        net = FlowNetwork(
            [Edge(0, 2, 4.0, 0.1), Edge(1, 2, 4.0, 0.2)],
            {0: 2.0, 1: 1.0, 2: -3.0},
        )
        inst = transform(net)
        assert inst.z == 3.0
        base = inst.base
        # aux edges in sorted node order after the originals
        assert base.edges[2] == Edge(3, 0, 2.0, 0.0, AUXILIARY)
        assert base.edges[3] == Edge(3, 1, 1.0, 0.0, AUXILIARY)
        assert base.edges[4] == Edge(2, 4, 3.0, 0.0, AUXILIARY)
        assert base.m == 5

    def test_original_indices_preserved(self):
        net = FlowNetwork(
            [Edge(0, 2, 4.0, 0.1), Edge(1, 2, 4.0, 0.2)],
            {0: 2.0, 1: 1.0, 2: -3.0},
        )
        inst = transform(net)
        for e in range(net.m):
            assert inst.base.edges[e].tail == net.edges[e].tail
            assert inst.base.edges[e].head == net.edges[e].head
            assert inst.base.is_original(e)

    def test_transform_rejects_retransform(self):
        inst = transform(single_edge_network())
        with pytest.raises(InvariantError, match="auxiliary"):
            transform(inst.base)

    def test_as_transformed_validation(self):
        net = single_edge_network()
        inst = as_transformed(net, 0, 1)
        assert inst.z == 3.0
        with pytest.raises(InvariantError):
            as_transformed(net, 1, 0)  # b(source) != z

    def test_nan_target_rejected(self):
        # every balance comparison with NaN is false, so only the sign
        # check can refuse it
        with pytest.raises(InvariantError, match="nonnegative"):
            TransformedNetwork(single_edge_network(), 0, 1, math.nan)

    def test_interior_balance_rejected(self):
        # interior imbalances cancel, so only the interior check can fire
        net = FlowNetwork(
            [Edge(0, 1, 2.0, 0.1), Edge(1, 2, 2.0, 0.1), Edge(3, 2, 2.0, 0.1)],
            {0: 2.0, 1: 1.0, 3: -1.0, 2: -2.0},
        )
        with pytest.raises(InvariantError, match="interior"):
            as_transformed(net, 0, 2)


class TestFlowAndResidual:
    def test_zero_flow_residual(self):
        inst = transform(single_edge_network())
        f = (0.0,) * inst.m
        cap = [e.capacity for e in inst.base.edges]
        s, t = inst.source, inst.sink
        # forward arcs present with their costs, backward absent
        assert residual_arcs(inst.base, f) == [
            (0, 0, 1, 0.5),
            (2, s, 0, 0.0),
            (4, 1, t, 0.0),
        ]
        # all empty; only the original edge's arc is good
        assert empty_arcs(f, cap, (0, 2, 4)) == (0, 2, 4)
        assert inst.base.is_original(0) and not inst.base.is_original(1)

    def test_saturated_and_interior(self):
        inst = transform(single_edge_network(cap=5.0, demand=3.0))
        values = (3.0, 3.0, 3.0)
        flow = Flow(values, check_feasible(inst, values))
        cap = [e.capacity for e in inst.base.edges]
        s, t = inst.source, inst.sink
        # original edge interior: both arcs present, the backward one
        # with negated cost; aux edges saturated: only backward arcs
        assert residual_arcs(inst.base, flow.values) == [
            (0, 0, 1, 0.5),
            (1, 1, 0, -0.5),
            (3, 0, s, 0.0),
            (5, t, 1, 0.0),
        ]
        # neither arc of the interior edge is empty; the aux ones are
        assert empty_arcs(flow.values, cap, (0, 1, 3, 5)) == (3, 5)

    def test_arcs_enumeration(self):
        inst = transform(single_edge_network())
        values = (3.0, 3.0, 3.0)
        flow = Flow(values, check_feasible(inst, values))
        arcs = [a for a, *_ in residual_arcs(inst.base, flow.values)]
        assert arcs == [0, 1, 3, 5]  # aux edges saturated at cap 3

    def test_check_feasible_bounds(self):
        inst = transform(single_edge_network())
        with pytest.raises(InfeasibleFlow, match="outside"):
            check_feasible(inst, (6.0, 3.0, 3.0))
        with pytest.raises(InfeasibleFlow, match="conservation"):
            check_feasible(inst, (1.0, 3.0, 3.0))
        with pytest.raises(InfeasibleFlow, match="expected"):
            check_feasible(inst, (1.0,))

    def test_flow_value_reported(self):
        inst = transform(single_edge_network())
        assert check_feasible(inst, (2.0, 2.0, 2.0)) == 2.0
        assert check_feasible(inst, (0.0, 0.0, 0.0)) == 0.0


class TestPushAndEmptyArcs:
    def test_push_returns_saturated_arcs(self):
        f = [0.0, 2.0, 0.5]
        cap = [1.0, 2.0, 3.0]
        # forward arc 0 saturates, backward arc 3 and forward arc 4 do not
        assert push(f, cap, (0, 3, 4), 1.0) == (0,)
        assert f == [1.0, 1.0, 1.5]
        assert push(f, cap, (3,), 1.0) == (3,)
        assert f == [1.0, 0.0, 1.5]

    def test_push_assigns_capacity_where_a_sum_rounds(self):
        f = [0.2]
        cap = [0.9]
        amount = cap[0] - f[0]
        assert f[0] + amount != cap[0]  # accumulating would miss cap
        assert push(f, cap, (0,), amount) == (0,)
        assert f[0] == cap[0]

    def test_push_lists_an_arc_whose_sum_rounds_onto_capacity(self):
        f = [1.423]
        cap = [2.5]
        amount = math.nextafter(cap[0] - f[0], 0.0)
        assert cap[0] - f[0] != amount and f[0] + amount == cap[0]
        assert push(f, cap, (0,), amount) == (0,)
        assert f[0] == cap[0]

    def test_solver_lists_every_arc_it_zeroes(self):
        # step 4 fills edge 12 by a sum that rounds onto its capacity
        trace = run_ssp(
            random_instance(24, n=6, m=11, capacities="real"),
            retain_flows=True,
            record_distances=False,
        )
        step = trace.steps[3]
        post = trace.intermediate_flows[4].values
        cap = [e.capacity for e in trace.instance.base.edges]
        assert step.path_arcs == (24, 16, 18, 8, 28)
        assert post[12] == cap[12] and post[14] == cap[14]
        assert trace_csv_rows(trace)[4].split(",")[4] == "2"
        f = list(trace.intermediate_flows[3].values)
        assert push(f, cap, step.path_arcs, step.amount) == (24, 28)

    def test_empty_arcs(self):
        f = [0.0, 2.0, 0.5]
        cap = [1.0, 2.0, 3.0]
        # forward over an idle edge, backward over a full one
        assert empty_arcs(f, cap, (0, 3, 4, 5)) == (0, 3)
        assert empty_arcs(f, cap, ()) == ()


class TestAgainstLP:
    def test_max_flow_matches_lp_oracle(self):
        # SSP to z = inf is a max flow; linprog is an independent oracle
        for seed in range(50):
            inst = random_instance(seed, n=6, m=10)
            got = run_ssp(inst, z=math.inf, record_distances=False).final_flow.value
            want = lp_feasible_value(inst.base)
            assert got == pytest.approx(want, abs=1e-7), seed

    def test_uniform_pool_feasibility(self):
        for seed in range(20):
            inst = uniform_instance(seed, n=5, m=8)
            got = run_ssp(inst, z=math.inf, record_distances=False).final_flow.value
            want = lp_feasible_value(inst.base)
            assert got == pytest.approx(want, abs=1e-7), seed
