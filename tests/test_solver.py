import copy
import itertools
import math
import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sspflow import (
    AuxiliaryArc,
    Edge,
    FlowNetwork,
    InternalInvariantError,
    IterationCapExceeded,
    LowerBoundParams,
    Outcome,
    adversarial_spec,
    as_transformed,
    build_hard_instance,
    check_lemmas,
    classify,
    cost_function,
    cost_function_from_steps,
    exact_check,
    perturbed_integer,
    random_topology,
    reconstruct,
    reference_solve,
    replay_flows,
    run_ssp,
    sample_costs,
    transform,
)
from sspflow.solver import (
    COSTFN_CSV_HEADER,
    REDUCED_COST_SLACK,
    TRACE_CSV_HEADER,
    _Engine,
    _check_reduced_cost,
    cost_function_csv_rows,
    trace_csv_rows,
)

from sspflow import _native, solver
from sspflow.network import (
    Flow,
    TransformedNetwork,
    check_feasible,
    empty_arcs,
    good_arcs,
    push,
    residual_arcs,
)

from conftest import (
    midway_length,
    random_instance,
    single_edge_network,
    tie_bad_step_network,
    two_path_network,
    uniform_instance,
)


@pytest.fixture
def python_loops(monkeypatch):
    """Runs the solver on its Python loops: the loader finds no kernel."""
    monkeypatch.setattr(_native, "load", lambda: None)


def path_nodes(inst, arcs):
    """Nodes of the path arcs trace from the source over the raw edges
    (arc 2e runs along edge e, arc 2e + 1 against it), checking that
    each arc leaves the node the previous one entered."""
    nodes = [inst.source]
    for a in arcs:
        edge = inst.base.edges[a >> 1]
        tail, head = (edge.head, edge.tail) if a & 1 else (edge.tail, edge.head)
        assert tail == nodes[-1]
        nodes.append(head)
    return tuple(nodes)


class TestBasicSolves:
    def test_single_edge(self, single_edge):
        inst = transform(single_edge)
        trace = run_ssp(inst)
        assert trace.outcome is Outcome.REACHED_Z
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert step.amount == 3.0
        assert step.length == 0.5
        assert path_nodes(inst, step.path_arcs) == (inst.source, 0, 1, inst.sink)
        assert trace.final_flow.values == (3.0, 3.0, 3.0)
        assert trace.final_flow.value == 3.0

    def test_two_paths_in_cost_order(self, two_paths):
        inst = transform(two_paths)
        trace = run_ssp(inst)
        assert trace.outcome is Outcome.REACHED_Z
        assert [s.amount for s in trace.steps] == [2.0, 3.0]
        lengths = [s.length for s in trace.steps]
        assert lengths[0] == pytest.approx(0.3)
        assert lengths[1] == pytest.approx(0.7)
        assert lengths[0] < lengths[1]

    def test_partial_target(self, single_edge):
        inst = transform(single_edge)
        trace = run_ssp(inst, z=1.5)
        assert trace.outcome is Outcome.REACHED_Z
        assert len(trace.steps) == 1
        assert trace.steps[0].amount == 1.5
        assert trace.final_flow.value == 1.5

    def test_zero_target(self, single_edge):
        inst = transform(single_edge)
        trace = run_ssp(inst, z=0.0)
        assert trace.outcome is Outcome.REACHED_Z
        assert trace.steps == ()
        assert trace.final_flow.value == 0.0

    def test_target_above_max_flow(self, single_edge):
        inst = transform(single_edge)
        trace = run_ssp(inst, z=100.0)
        assert trace.outcome is Outcome.MAX_FLOW_BELOW_Z
        assert trace.final_flow.value == 3.0  # aux capacity is the cut

    def test_max_flow_value(self, two_paths):
        inst = transform(two_paths)
        trace = run_ssp(inst, z=math.inf, record_distances=False)
        assert trace.final_flow.value == 5.0

    def test_negative_target_rejected(self, single_edge):
        with pytest.raises(ValueError):
            run_ssp(transform(single_edge), z=-1.0)

    def test_nan_target_rejected(self):
        # a NaN amount would leave NaN residuals that never reach 0; the
        # cap turns a missed check into a failure instead of a hang
        with pytest.raises(ValueError, match="nonnegative"):
            run_ssp(random_instance(0), z=math.nan, iteration_cap=5)

    def test_nan_stop_above_length_rejected(self, profile_network):
        with pytest.raises(ValueError, match="NaN"):
            run_ssp(
                transform(profile_network), stop_above_length=math.nan, iteration_cap=5
            )

    def test_iteration_cap(self, profile_network):
        inst = transform(profile_network)
        with pytest.raises(IterationCapExceeded):
            run_ssp(inst, iteration_cap=2)

    def test_stop_above_length(self, profile_network):
        inst = transform(profile_network)
        trace = run_ssp(inst, stop_above_length=7.5)
        assert trace.outcome is Outcome.STOPPED_ABOVE_LENGTH
        # paths of lengths 4, 6, 7 run; 8 exceeds the threshold
        assert [s.length for s in trace.steps] == [4.0, 6.0, 7.0]


class TestExactSaturation:
    def test_saturated_edges_hit_capacity_exactly(self):
        # costs and caps chosen so float arithmetic could drift; the
        # solver must assign saturated values, not accumulate them
        net = FlowNetwork(
            [
                Edge(0, 1, 0.1 + 0.2, 0.5),
                Edge(0, 2, 1.0, 0.6),
                Edge(1, 3, 5.0, 0.1),
                Edge(2, 3, 5.0, 0.1),
            ],
            {0: 0.1 + 0.2 + 1.0, 3: -(0.1 + 0.2 + 1.0)},
        )
        inst = transform(net)
        trace = run_ssp(inst)
        assert trace.outcome is Outcome.REACHED_Z
        f = trace.final_flow.values
        assert f[0] == net.edges[0].capacity  # bitwise equal, not approx
        assert f[1] == 1.0

    def test_final_value_assigned_exactly(self, single_edge):
        inst = transform(single_edge)
        trace = run_ssp(inst, z=3.0)
        assert trace.final_flow.value == 3.0


class TestStepRecords:
    def test_saturated_and_good_arcs(self, two_paths):
        inst = transform(two_paths)
        trace = run_ssp(inst)
        s1 = trace.steps[0]
        # the two route edges saturate; aux edges (cap 5) do not
        cap = [e.capacity for e in inst.base.edges]
        f = [0.0] * inst.m
        assert empty_arcs(f, cap, s1.path_arcs) == s1.path_arcs
        assert {a >> 1 for a in push(f, cap, s1.path_arcs, s1.amount)} == {0, 1}
        # the trace CSV derives both: two saturated arcs, a good step
        assert trace_csv_rows(trace)[1].endswith(",2,1")

    def test_distances_recorded(self, two_paths):
        inst = transform(two_paths)
        trace = run_ssp(inst, record_distances=True)
        assert trace.initial_distances_from_s[inst.source] == 0.0
        assert trace.initial_distances_from_s[inst.sink] == pytest.approx(0.3)
        assert trace.initial_distances_to_t[inst.sink] == 0.0
        assert trace.initial_distances_to_t[inst.source] == pytest.approx(0.3)
        # post-augmentation distances attach to each step
        assert trace.steps[0].distances_from_s[inst.sink] == pytest.approx(0.7)
        # after the last step t is unreachable (all aux capacity used)
        assert trace.steps[-1].distances_from_s[inst.sink] == math.inf

    def test_distances_omitted_when_disabled(self, two_paths):
        trace = run_ssp(transform(two_paths), record_distances=False)
        assert trace.steps[0].distances_from_s is None
        assert trace.initial_distances_from_s is None

    def test_intermediate_flows(self, two_paths):
        inst = transform(two_paths)
        trace = run_ssp(inst, retain_flows=True)
        flows = trace.intermediate_flows
        assert len(flows) == len(trace.steps) + 1  # includes the zero flow
        assert flows[0].value == 0.0
        assert flows[-1].values == trace.final_flow.values

    def test_path_arcs_consistent_with_nodes(self, two_paths):
        inst = transform(two_paths)
        trace = run_ssp(inst)
        for step in trace.steps:
            assert path_nodes(inst, step.path_arcs)[-1] == inst.sink


class TestRecordDistancesModes:
    """Recording distances attaches them to steps built without them;
    it must change nothing else."""

    INSTANCES = [uniform_instance(seed) for seed in range(25)] + [
        random_instance(seed, n=6, m=11, capacities="real") for seed in range(25)
    ]

    @staticmethod
    def assert_modes_agree(inst):
        on = run_ssp(inst, record_distances=True)
        off = run_ssp(inst, record_distances=False)
        assert all(
            step.distances_from_s is not None and step.distances_to_t is not None
            for step in on.steps
        )
        blanked = tuple(
            replace(step, distances_from_s=None, distances_to_t=None)
            for step in on.steps
        )
        assert blanked == off.steps
        assert on.outcome == off.outcome
        assert on.final_flow == off.final_flow

    def test_same_steps_with_and_without_distances(self):
        for inst in self.INSTANCES:
            self.assert_modes_agree(inst)

    # Without distances the forward search stops at the sink, so the
    # modes run different potentials: large ones, exact ties and the
    # instance families the CLI solves must still give the same steps.

    @pytest.mark.parametrize("side, edges, phi", [(8, 16, 256.0), (4, 4, 8192.0)])
    def test_same_steps_on_hard_instances(self, side, edges, phi):
        built = build_hard_instance(LowerBoundParams(side, edges, phi), seed=0)
        self.assert_modes_agree(built.instance)

    @pytest.mark.parametrize("model", ["smoothed", "perturbed"])
    @pytest.mark.parametrize("shape", ["erdos", "layered"])
    def test_same_steps_on_experiment_instances(self, model, shape):
        for seed in range(4):
            topo = random_topology(30, 150, shape, seed)
            if model == "perturbed":
                net, _scale = perturbed_integer(topo, 16, seed)
            else:
                net = sample_costs(topo, adversarial_spec(topo, 16.0), seed)
            self.assert_modes_agree(transform(net))

    def test_same_steps_on_tie_grids(self):
        for shape in GRID_GOLDEN:
            self.assert_modes_agree(grid_instance(*shape))

    def test_indices_count_from_one(self):
        for inst in self.INSTANCES:
            for trace in (
                run_ssp(inst, record_distances=True),
                run_ssp(inst, record_distances=False),
                reference_solve(inst),
            ):
                assert [step.index for step in trace.steps] == list(
                    range(1, len(trace.steps) + 1)
                )

    def test_early_stop_keeps_last_distances(self):
        stopped = 0
        for inst in self.INSTANCES:
            trace = run_ssp(inst, record_distances=False)
            lengths = sorted({step.length for step in trace.steps})
            if len(lengths) < 2:
                continue
            trace = run_ssp(inst, stop_above_length=lengths[0])
            assert trace.outcome == Outcome.STOPPED_ABOVE_LENGTH
            assert trace.steps[-1].distances_from_s is not None
            assert trace.steps[-1].distances_to_t is not None
            stopped += 1
        assert stopped > 25

    def test_no_search_after_reaching_z(self, monkeypatch):
        # searches are counted on the Python loops: with the kernel, a
        # sink-stop solve runs in one call, which must give the same trace
        modes = ((False, 0), (True, 1))
        kernel = [[run_ssp(inst, record_distances=record) for record, _ in modes]
                  for inst in self.INSTANCES]
        calls = []
        search = _Engine.dijkstra_forward

        def counted(self, *args):
            calls.append(None)
            return search(self, *args)

        monkeypatch.setattr(_native, "load", lambda: None)
        monkeypatch.setattr(_Engine, "dijkstra_forward", counted)
        reached = 0
        for inst, traces in zip(self.INSTANCES, kernel):
            for (record, extra), want in zip(modes, traces):
                calls.clear()
                trace = run_ssp(inst, record_distances=record)
                assert trace == want
                if trace.outcome is not Outcome.REACHED_Z:
                    continue
                # with distances on, the last search records the last
                # step's distances
                assert len(calls) == len(trace.steps) + extra
                reached += 1
        assert reached > 20


class TestPotentialUpdate:
    def test_reduced_costs_nonnegative_after_sink_stop(self):
        steps = cut_short = 0
        for seed in range(100):
            capacities = "real" if seed % 2 else "int"
            inst = random_instance(seed, n=10, m=30, capacities=capacities)
            eng = _Engine(inst)
            while eng.value < inst.z:
                # a full search on a shallow copy, which reassigns only
                # the copy's pi, finds the nodes a sink stop leaves
                # unsettled: those farther than the sink
                dist, _ = copy.copy(eng).dijkstra_forward(False)
                cut_short += any(d > dist[eng.arrays.t] for d in dist)
                stopped, arcs = eng.dijkstra_forward(True)
                assert stopped is None
                if arcs is None:
                    break
                eng.augment(arcs, eng.path_length(arcs), inst.z)
                pi = dict(zip(eng.arrays.nodes, eng.pi))
                for a, u, v, c in residual_arcs(inst.base, eng.f):
                    rc = (c + pi[u]) - pi[v]
                    assert rc >= -REDUCED_COST_SLACK, (seed, len(eng.steps), a)
                steps += 1
        # most searches stop with nodes left unsettled
        assert steps > 300 and cut_short > steps // 2


class TestDeterminism:
    def test_identical_traces(self):
        a = run_ssp(random_instance(11), retain_flows=True)
        b = run_ssp(random_instance(11), retain_flows=True)
        assert len(a.steps) == len(b.steps)
        for x, y in zip(a.steps, b.steps):
            assert x.path_arcs == y.path_arcs
            assert x.length == y.length
            assert x.amount == y.amount
        assert a.final_flow == b.final_flow

    def test_csv_stable(self):
        a = trace_csv_rows(run_ssp(random_instance(12)))
        b = trace_csv_rows(run_ssp(random_instance(12)))
        assert a == b


def profile_at(cf, x):
    """y(x) read off the breakpoints, linear in between."""
    xs, ys = zip(*cf.breakpoints)
    assert 0.0 <= x <= xs[-1], x
    return float(np.interp(x, xs, ys))


class TestCostFunction:
    def test_profile_fixture(self, profile_network):
        inst = transform(profile_network)
        cf = cost_function(inst)
        xs = [p[0] for p in cf.breakpoints]
        ys = [p[1] for p in cf.breakpoints]
        assert xs == [0.0, 2.0, 3.0, 5.0, 7.0, 10.0, 12.0]
        assert ys == [0.0, 8.0, 14.0, 28.0, 44.0, 71.0, 95.0]
        assert list(cf.slopes) == [4.0, 6.0, 7.0, 8.0, 9.0, 12.0]
        assert cf.is_convex()
        assert cf.breakpoints[-1][0] == 12.0

    def test_value_at(self, profile_network):
        cf = cost_function(transform(profile_network))
        assert profile_at(cf, 0.0) == 0.0
        assert profile_at(cf, 2.0) == 8.0
        assert profile_at(cf, 2.5) == 11.0
        assert profile_at(cf, 12.0) == 95.0
        assert cf.breakpoints[-1][0] < 12.5  # the profile ends at the max flow

    def test_equal_slopes_merge(self):
        cf = cost_function_from_steps([(2.0, 1.0), (2.0, 3.0), (5.0, 1.0)])
        assert cf.breakpoints == ((0.0, 0.0), (4.0, 8.0), (5.0, 13.0))
        assert cf.slopes == (2.0, 5.0)
        assert cf.is_convex()

    def test_random_profiles_convex(self):
        for seed in range(15):
            cf = cost_function(uniform_instance(seed))
            assert cf.is_convex(), seed

    def test_profile_matches_partial_solves(self, profile_network):
        # y(x) from the profile equals the cost of a fresh solve to z=x
        inst = transform(profile_network)
        cf = cost_function(inst)
        for x in (1.0, 3.0, 6.5, 11.0):
            trace = run_ssp(inst, z=x)
            cost = math.fsum(
                f * e.cost
                for f, e in zip(trace.final_flow.values, inst.base.edges)
            )
            assert cost == pytest.approx(profile_at(cf, x), abs=1e-9)


class TestCsv:
    def test_trace_csv_golden(self):
        # dyadic costs so every float prints exactly
        net = FlowNetwork(
            [Edge(0, 1, 2.0, 0.125), Edge(1, 2, 4.0, 0.25), Edge(0, 2, 4.0, 0.5)],
            {0: 4.0, 2: -4.0},
        )
        trace = run_ssp(transform(net))
        assert trace_csv_rows(trace) == [
            TRACE_CSV_HEADER,
            "1,0.375,2.0,2.0,1,1",
            "2,0.5,2.0,4.0,2,1",
        ]

    def test_trace_csv_bad_step(self):
        trace = run_ssp(transform(tie_bad_step_network()))
        assert trace_csv_rows(trace) == [
            TRACE_CSV_HEADER,
            "1,0.5,1.0,1.0,1,1",
            "2,0.75,1.0,2.0,1,1",
            "3,1.0,1.0,3.0,1,1",
            "4,1.0,1.0,4.0,4,0",
        ]
        assert classify(trace) == (4,)

    def test_trace_csv_int_capacities(self, monkeypatch):
        # int capacities are not floats, so the replay runs network.push,
        # once per row, and a saturated forward arc takes its int capacity
        net = two_path_network()
        edges = [Edge(e.tail, e.head, int(e.capacity), e.cost) for e in net.edges]
        trace = run_ssp(transform(FlowNetwork(edges, dict(net.balance))))
        pushes = []
        monkeypatch.setattr(solver, "push", lambda *args: pushes.append(args) or push(*args))
        assert trace_csv_rows(trace) == [
            TRACE_CSV_HEADER,
            "1,0.30000000000000004,2.0,2.0,2,1",
            "2,0.7,3.0,5.0,4,1",
        ]
        assert len(pushes) == 2
        assert repr(replay_flows(replace(trace, intermediate_flows=None))) == (
            "(Flow(values=(0.0, 0.0, 0.0, 0.0, 0.0, 0.0), value=0.0), "
            "Flow(values=(2, 2, 0.0, 0.0, 2.0, 2.0), value=2.0), "
            "Flow(values=(2, 2, 3, 3, 5.0, 5.0), value=5.0))"
        )
        assert classify(trace) == ()
        assert len(pushes) == 6

    def test_costfn_csv_shape(self, profile_network):
        rows = cost_function_csv_rows(cost_function(transform(profile_network)))
        assert rows[0] == COSTFN_CSV_HEADER
        assert rows[1] == "0.0,0.0,4.0"
        assert rows[-1] == "12.0,95.0,"  # terminal breakpoint has no slope


def grid_instance(rows, cols, cost):
    """rows x cols grid, edges right and down, every edge cap 1 at one cost.

    Node r*cols + c; supply 2 at the top-left corner, demand 2 at the
    bottom-right one. All monotone corner-to-corner paths tie exactly in
    (length, hops), so only the arc-sequence tie-break picks among them.
    """
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append(Edge(v, v + 1, 1.0, cost))
            if r + 1 < rows:
                edges.append(Edge(v, v + cols, 1.0, cost))
    return transform(FlowNetwork(edges, {0: 2.0, rows * cols - 1: -2.0}))


# path_arcs of each step: the lexicographically smallest arc sequence
# among the tied shortest paths
GRID_GOLDEN = {
    (4, 4, 1.0): (
        (48, 0, 4, 8, 12, 26, 40, 50),
        (48, 2, 14, 18, 24, 38, 46, 50),
    ),
    (5, 3, 0.5): (
        (44, 0, 4, 8, 18, 28, 38, 46),
        (44, 2, 10, 16, 26, 36, 42, 46),
    ),
    (3, 6, 0.0): (
        (54, 0, 4, 8, 12, 16, 20, 42, 56),
        (54, 2, 22, 26, 30, 34, 40, 52, 56),
    ),
    (6, 6, 1.0): (
        (120, 0, 4, 8, 12, 16, 20, 42, 64, 86, 108, 122),
        (120, 2, 22, 26, 30, 34, 40, 62, 84, 106, 118, 122),
    ),
}


def scaled_costs(inst, factor):
    """The instance with every cost and the cost bound multiplied by factor."""
    net = inst.base
    edges = [Edge(e.tail, e.head, e.capacity, e.cost * factor, e.kind) for e in net.edges]
    scaled = FlowNetwork(edges, dict(net.balance), net.nodes, net.cost_bound * factor)
    return as_transformed(scaled, inst.source, inst.sink)


def scaled_capacities(inst, factor):
    """The instance with every capacity and balance multiplied by factor."""
    net = inst.base
    edges = [Edge(e.tail, e.head, e.capacity * factor, e.cost, e.kind) for e in net.edges]
    balance = {v: b * factor for v, b in net.balance.items()}
    scaled = FlowNetwork(edges, balance, net.nodes, net.cost_bound)
    return as_transformed(scaled, inst.source, inst.sink)


def csv_columns(trace, *names):
    """The named columns of the trace CSV, row by row."""
    rows = [row.split(",") for row in trace_csv_rows(trace)]
    picked = [rows[0].index(name) for name in names]
    return [[row[i] for i in picked] for row in rows[1:]]


def relabelled(inst, seed):
    """The instance with node ids permuted (and spread out), edge order kept."""
    net = inst.base
    new_ids = [7 * v + 3 for v in net.nodes]
    random.Random(seed).shuffle(new_ids)
    ids = dict(zip(net.nodes, new_ids))
    edges = [Edge(ids[e.tail], ids[e.head], e.capacity, e.cost, e.kind) for e in net.edges]
    balance = {ids[v]: b for v, b in net.balance.items()}
    moved = FlowNetwork(edges, balance, new_ids, net.cost_bound)
    return as_transformed(moved, ids[inst.source], ids[inst.sink])


def fewer_hops_instance():
    """Two routes of length exactly 1 from node 0 to node 4: 0-1-2-4 over
    three arcs, settled first, and 0-3-4 over two, which must win."""
    edges = [
        Edge(0, 1, 1.0, 0.0),
        Edge(1, 2, 1.0, 0.0),
        Edge(2, 4, 1.0, 1.0),
        Edge(0, 3, 1.0, 0.5),
        Edge(3, 4, 1.0, 0.5),
    ]
    return as_transformed(FlowNetwork(edges, {0: 1.0, 4: -1.0}), 0, 4)


class TestTieBreaks:
    @pytest.mark.parametrize("shape", sorted(GRID_GOLDEN))
    def test_grid_golden(self, shape):
        inst = grid_instance(*shape)
        for record in (True, False):
            trace = run_ssp(inst, record_distances=record)
            assert trace.outcome is Outcome.REACHED_Z
            assert tuple(s.path_arcs for s in trace.steps) == GRID_GOLDEN[shape]
        ref = reference_solve(inst)
        assert tuple(s.path_arcs for s in ref.steps) == GRID_GOLDEN[shape]

    @pytest.mark.parametrize("shape", sorted(GRID_GOLDEN))
    def test_grid_relabelled(self, shape):
        inst = grid_instance(*shape)
        for seed in range(5):
            trace = run_ssp(relabelled(inst, seed))
            assert tuple(s.path_arcs for s in trace.steps) == GRID_GOLDEN[shape]

    @pytest.mark.parametrize("shape", sorted(GRID_GOLDEN))
    def test_grid_exact_check(self, shape):
        # the ties are exact in rational arithmetic too, and the exact
        # replay settles them by the same arc-sequence rule
        inst = grid_instance(*shape)
        for moved in [inst] + [relabelled(inst, seed) for seed in range(5)]:
            assert exact_check(run_ssp(moved)).passed

    def test_fewer_hops_wins_an_exact_tie(self):
        inst = fewer_hops_instance()
        for record in (True, False):
            trace = run_ssp(inst, record_distances=record)
            assert [s.path_arcs for s in trace.steps] == [(6, 8)]
        assert [s.path_arcs for s in reference_solve(inst).steps] == [(6, 8)]

    def test_tie_on_71_arc_paths(self):
        inst = grid_instance(3, 70, 1.0)
        trace = run_ssp(inst)
        ref = reference_solve(inst)
        assert len(trace.steps[0].path_arcs) > 64
        assert [s.path_arcs for s in trace.steps] == [s.path_arcs for s in ref.steps]
        assert exact_check(trace).passed

    def test_deep_tie_compares_without_recursion_error(self):
        # two zero-cost chains of 1500 arcs tie exactly at the sink; the
        # comparison must not recurse once per arc
        length = 1500
        sink = 2 * length + 1
        edges = []
        for first in (1, length + 1):
            chain = [0, *range(first, first + length), sink]
            edges += [Edge(u, v, 1.0, 0.0) for u, v in zip(chain, chain[1:])]
        inst = transform(FlowNetwork(edges, {0: 2.0, sink: -2.0}))
        trace = run_ssp(inst, record_distances=False)
        aux = 2 * len(edges)
        assert [s.path_arcs for s in trace.steps] == [
            (aux, *range(0, 2 * (length + 1), 2), aux + 2),
            (aux, *range(2 * (length + 1), 4 * (length + 1), 2), aux + 2),
        ]


class TestMetamorphic:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_power_of_two_cost_scaling(self, k):
        # multiplying by 2**k is exact in binary floating point, so every
        # comparison the solver makes comes out the same
        factor = 2.0**k
        for seed in range(200):
            inst = random_instance(seed, n=8, m=20)
            a = run_ssp(inst, record_distances=False)
            b = run_ssp(scaled_costs(inst, factor), record_distances=False)
            assert b.outcome is a.outcome, seed
            assert [s.path_arcs for s in b.steps] == [s.path_arcs for s in a.steps], seed
            assert [s.amount for s in b.steps] == [s.amount for s in a.steps], seed
            assert [s.length for s in b.steps] == [
                factor * s.length for s in a.steps
            ], seed
            columns = ("amount", "value_after", "n_saturated", "good_arc")
            assert csv_columns(b, *columns) == csv_columns(a, *columns), seed

    @pytest.mark.parametrize("k", [-3, 5])
    def test_power_of_two_capacity_scaling(self, k):
        # capacities, balances, amounts, flows and residuals all scale by
        # 2**k exactly, so every saturation test comes out the same
        factor = 2.0**k
        for seed in range(40):
            inst = random_instance(seed, n=8, m=20, capacities="real" if seed % 2 else "int")
            a = run_ssp(inst, record_distances=False)
            b = run_ssp(scaled_capacities(inst, factor), record_distances=False)
            assert b.outcome is a.outcome, seed
            assert [s.path_arcs for s in b.steps] == [s.path_arcs for s in a.steps], seed
            assert [s.length for s in b.steps] == [s.length for s in a.steps], seed
            assert [(s.amount, s.flow_value_after) for s in b.steps] == [
                (factor * s.amount, factor * s.flow_value_after) for s in a.steps
            ], seed
            assert b.final_flow.values == tuple(factor * x for x in a.final_flow.values)
            columns = ("n_saturated", "good_arc")
            assert csv_columns(b, *columns) == csv_columns(a, *columns), seed

    def test_node_relabelling(self):
        # tie-breaks and adjacency order depend on edge indices only
        for seed in range(200):
            inst = random_instance(seed, n=8, m=20)
            a = run_ssp(inst, record_distances=False)
            b = run_ssp(relabelled(inst, seed), record_distances=False)
            assert b.outcome is a.outcome, seed
            assert [s.path_arcs for s in b.steps] == [s.path_arcs for s in a.steps], seed


class TestReducedCostTolerance:
    def test_rounding_at_large_potentials_tolerated(self):
        # the reduced cost that stopped phi = 2^13 solves, next to
        # potentials of that size
        _check_reduced_cost(-1.0040821507573128e-09, 136, 8191.5, 2.0e6, 2.0e6)

    def test_negative_reduced_cost_at_small_magnitudes_raises(self):
        with pytest.raises(InternalInvariantError, match="arc 7"):
            _check_reduced_cost(-1e-6, 7, 0.5, 3.0, 3.5)

    def test_engine_checks_below_slack_and_clamps(self, monkeypatch):
        # both searches hand the reduced-cost check the same terms; a
        # check that returns lets the search clamp the cost to 0.0
        calls = []
        monkeypatch.setattr(
            "sspflow.solver._check_reduced_cost", lambda *terms: calls.append(terms)
        )
        eng = _Engine(transform(single_edge_network()))
        a, v, c = eng.arrays.out_adj[eng.arrays.s][0]
        eng.pi[v] = c + 5.0
        assert first_round(eng, False)[0] is Outcome.STOPPED_ABOVE_LENGTH  # a path
        assert calls == [(-5.0, a, c, 0.0, c + 5.0)]
        # pi[v] rose by min(dist[v], bound), which is the clamped 0.0
        # (-5.0 would lower it)
        assert eng.pi[v] == c + 5.0
        calls.clear()
        eng = _Engine(transform(single_edge_network()))
        b, u, c = eng.arrays.out_adj[eng.arrays.t][0]  # the reverse search reads it backward
        a, c = b ^ 1, -c
        eng.pi[eng.arrays.t] = c + 5.0
        _, (_, to_t), _ = first_round(eng, True)
        assert calls[0] == (-5.0, a, c, 0.0, c + 5.0)
        # u's reduced distance is the clamped 0.0: (0.0 - pi[u]) + pi[t]
        assert to_t[eng.arrays.nodes[u]] == c + 5.0

    def test_engine_raises_past_tolerance(self):
        eng = _Engine(transform(single_edge_network()))
        a, v, c = eng.arrays.out_adj[eng.arrays.s][0]
        eng.pi[v] = c + 5.0
        with pytest.raises(InternalInvariantError, match=f"-5.0 on arc {a} below"):
            first_round(eng, False)
        eng = _Engine(transform(single_edge_network()))
        b, u, c = eng.arrays.out_adj[eng.arrays.t][0]
        a, c = b ^ 1, -c
        eng.pi[eng.arrays.t] = c + 5.0
        with pytest.raises(InternalInvariantError, match=f"-5.0 on arc {a} below"):
            first_round(eng, True)


def first_round(eng, record_distances):
    """The first round of searches of a solve from eng's state, which
    stops before its first push: in one kernel call when eng has the
    kernel, else on the Python loops. Returns what the solve returns."""
    run = eng.solve if eng.native is not None else eng.step_loop
    return run(math.inf, None, record_distances, False, -math.inf)


# The classes above solve on the compiled kernel when it loads (a direct
# call of an engine search runs the Python loop). Their copies below run
# on the Python loops, so the goldens, the tie chains and the tolerance
# rule hold for both backends.


@pytest.mark.usefixtures("python_loops")
class TestRecordDistancesModesPythonLoops(TestRecordDistancesModes):
    pass


@pytest.mark.usefixtures("python_loops")
class TestTieBreaksPythonLoops(TestTieBreaks):
    pass


@pytest.mark.usefixtures("python_loops")
class TestMetamorphicPythonLoops(TestMetamorphic):
    pass


@pytest.mark.usefixtures("python_loops")
class TestReducedCostTolerancePythonLoops(TestReducedCostTolerance):
    pass


def full_trace(inst, **kwargs):
    """Everything run_ssp returns, floats by repr, and the trace CSV, or
    the exception raised."""
    try:
        trace = run_ssp(inst, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    value = check_feasible(inst, trace.final_flow.values)
    assert value == pytest.approx(trace.final_flow.value, rel=1e-12, abs=1e-12)

    def dists(d):
        return None if d is None else repr(sorted(d.items()))

    return (
        [
            (s.path_arcs, repr(s.length), repr(s.amount), repr(s.flow_value_after),
             dists(s.distances_from_s), dists(s.distances_to_t))
            for s in trace.steps
        ],
        dists(trace.initial_distances_from_s),
        dists(trace.initial_distances_to_t),
        trace.outcome,
        repr(trace.final_flow),
        repr(trace.intermediate_flows),
        trace_csv_rows(trace),
    )


def engine_trail(inst, record_distances):
    """repr of pi and f where a solve toward inst.z capped at k = 0, 1,
    2, ... stops: after search k + 1 and push k, on the Python loops in
    run_ssp's order; then pi, f and the value where the solve ends, or
    the error raised and f then."""
    eng = _Engine(inst)
    eng.native = None
    trail = []
    try:
        while record_distances or eng.value != inst.z:
            if record_distances:
                eng.dijkstra_reverse()
            _, arcs = eng.dijkstra_forward(not record_distances)
            if arcs is None or (record_distances and eng.value == inst.z):
                break
            trail.append((repr(eng.pi), repr(eng.f)))
            eng.augment(arcs, eng.path_length(arcs), inst.z)
    except InternalInvariantError as exc:
        return [*trail, (str(exc), repr(eng.f))]
    return [*trail, (repr(eng.pi), repr(eng.f), repr(eng.value))]


def kernel_trail(inst, record_distances):
    """engine_trail from one-call solves capped at k = 0, 1, 2, ..., up
    to the first that ends below its cap."""
    trail = []
    for k in itertools.count():
        eng = _Engine(inst)
        try:
            eng.solve(inst.z, k, record_distances, False, None)
        except IterationCapExceeded:
            trail.append((repr(eng.pi), repr(eng.f)))
            continue
        except InternalInvariantError as exc:
            return [*trail, (str(exc), repr(eng.f))]
        return [*trail, (repr(eng.pi), repr(eng.f), repr(eng.value))]


def rounding_target_instance():
    """Two routes from node 0 to node 3 toward z, the cheaper one of
    capacity v: v plus the headroom z - v, rounded, is not z, so only the
    headroom rule makes the second push reach z."""
    v, z = 18.200587475816974, 14643.173156205366
    assert v + (z - v) != z
    edges = [Edge(0, 1, v, 0.1), Edge(1, 3, v, 0.2), Edge(0, 2, 2e4, 0.3), Edge(2, 3, 2e4, 0.4)]
    return as_transformed(FlowNetwork(edges, {0: z, 3: -z}), 0, 3)


def lockstep_instances():
    yield rounding_target_instance()
    yield from (
        random_instance(seed, n=8, m=20, capacities="real" if seed % 2 else "int")
        for seed in range(40)
    )
    yield build_hard_instance(LowerBoundParams(8, 16, 64.0), seed=0).instance
    yield fewer_hops_instance()
    yield relabelled(grid_instance(4, 4, 1.0), 0)
    topo = random_topology(30, 150, "erdos", 0)
    yield transform(sample_costs(topo, adversarial_spec(topo, 16.0), 0))
    yield transform(perturbed_integer(topo, 16, 0)[0])


def engine_outcome(inst, **kwargs):
    """full_trace of one run_ssp call, with repr of its engine's final f
    and pi, or, when the reduced-cost check raised, the error alone."""
    engines = []

    class Recorded(_Engine):
        def __init__(self, instance):
            super().__init__(instance)
            engines.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_Engine", Recorded)
        got = full_trace(inst, **kwargs)
    if got[0] is InternalInvariantError:
        return got
    (eng,) = engines
    return got, repr(eng.f), repr(eng.pi)


BACKENDS = ("solve", "python")


def backend_context(patch, backend):
    """Runs run_ssp as one kernel call where it takes one ("solve") or on
    the Python loops."""
    if backend == "python":
        patch.setattr(_native, "load", lambda: None)


@pytest.mark.skipif(_native.load() is None, reason="the compiled search kernel is unavailable")
def test_backends_agree_in_lockstep(monkeypatch):
    # the kernel repeats the Python loops float operation for float, so
    # every step, distance, flow, potential and CSV row is bit-identical
    # whether a solve runs in one kernel call or on the Python loops, in
    # every mode and toward every kind of target, and a solve that raises
    # raises the same error
    kernel = _native.load()
    solve = kernel.solve
    for inst in lockstep_instances():
        assert _Engine(inst).native is not None
        sink_stop = {"record_distances": False}
        mid = midway_length(inst)
        modes = (
            {"record_distances": True},
            {"record_distances": True, "retain_flows": True},
            {"stop_above_length": mid},
            {**sink_stop, "stop_above_length": mid},
            sink_stop,
            {**sink_stop, "retain_flows": True},
            {**sink_stop, "iteration_cap": 3},
            {**sink_stop, "iteration_cap": 0},
            {**sink_stop, "iteration_cap": 2.5},  # compared as it is
            # int, float, numpy float, a Fraction that no float holds
            # and a max flow
            *({**sink_stop, "z": z} for z in (
                max(1, math.floor(inst.z / 2)), 0.6 * inst.z, np.float64(0.6 * inst.z),
                Fraction(1, 3), math.inf,
            )),
        )
        runs = {}
        for backend in BACKENDS:
            pushes, calls = [], []
            with monkeypatch.context() as patch:
                backend_context(patch, backend)
                patch.setattr(solver, "push", lambda *args: pushes.append(args) or push(*args))
                patch.setattr(kernel, "solve", lambda *args: calls.append(args) or solve(*args))
                runs[backend] = [engine_outcome(inst, **mode) for mode in modes]
            # the compiled push serves every step of a kernel solve, in the
            # solve and in its CSV; one call serves each solve under an int
            # cap or none toward a float-held target: all but the float
            # cap and the Fraction
            assert bool(pushes) is (backend == "python")
            assert len(calls) == (len(modes) - 2 if backend == "solve" else 0)
        assert runs["solve"] == runs["python"]
        # pi and f where each capped solve stops, bit for bit, and a float
        # stays a float (repr tells 1 from 1.0)
        for record_distances in (False, True):
            want = engine_trail(inst, record_distances)
            assert kernel_trail(inst, record_distances) == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_unreached_distances_are_math_inf(monkeypatch, backend):
    # every unreached node's recorded distance is the one math.inf
    # object, not a fresh float per node, on either backend
    if backend == "solve" and _native.load() is None:
        pytest.skip("the compiled search kernel is unavailable")
    backend_context(monkeypatch, backend)
    unreached = 0
    for inst in lockstep_instances():
        trace = run_ssp(inst)
        recorded = [(trace.initial_distances_from_s, trace.initial_distances_to_t)]
        recorded += [(s.distances_from_s, s.distances_to_t) for s in trace.steps]
        for dists in recorded:
            for d in (*dists[0].values(), *dists[1].values()):
                if d == math.inf:
                    assert d is math.inf
                    unreached += 1
    assert unreached > 1000


def solve_from(inst, pi, backend, mode, iteration_cap=60):
    """repr of what a solve toward inst.z from the potentials pi returns,
    of its steps, f and pi, on the kernel's one call (_Engine.solve) or
    on the Python loops (_Engine.step_loop); or the error it raises and
    repr of f then: both backends push in place, so f tells the step.
    mode gives record_distances, retain_flows and stop_above_length."""
    eng = _Engine(inst)
    if backend == "python":
        eng.native = None
    eng.pi = list(pi)
    run = eng.solve if backend == "solve" else eng.step_loop
    try:
        got = run(inst.z, iteration_cap, *mode)
    except (InternalInvariantError, IterationCapExceeded) as exc:
        return type(exc), str(exc), repr(eng.f)
    return repr(got), repr(eng.steps), repr(eng.f), repr(eng.pi)


@pytest.mark.skipif(_native.load() is None, reason="the compiled search kernel is unavailable")
def test_one_call_raises_as_the_step_loop(monkeypatch):
    # from arbitrary potentials, which no solve reaches: random ones on
    # every node, or one node's raised, so that some solves push before
    # the reduced-cost check raises. It raises inside the kernel's one
    # call with the error and message that the per-step loop raises,
    # after the same pushes, in every mode: the reverse search of a
    # record-mode step names arc b ^ 1 at cost -c, as dijkstra_reverse
    # does, and the checks see the same terms in the same order
    checks = []
    monkeypatch.setattr(
        solver, "_check_reduced_cost",
        lambda *terms: checks.append(terms) or _check_reduced_cost(*terms),
    )
    reverse, in_reverse = _Engine.dijkstra_reverse, []

    def reverse_raises(self):
        try:
            return reverse(self)
        except InternalInvariantError:
            in_reverse.append(None)
            raise

    monkeypatch.setattr(_Engine, "dijkstra_reverse", reverse_raises)
    rng = random.Random(0)
    raised = later = 0
    for seed in range(30):
        inst = random_instance(seed, n=8, m=20, capacities="real" if seed % 2 else "int")
        zero = repr([0.0] * inst.m)
        mid = midway_length(inst)
        modes = ((False, False, None), (True, True, None), (False, False, mid),
                 (True, False, mid))
        for trial in range(20):
            if trial % 2:
                pi = [rng.randrange(-2, 3) * 0.25 for _ in inst._arrays.nodes]
            else:
                pi = [0.0] * len(inst._arrays.nodes)
                pi[rng.randrange(len(pi))] = rng.choice([0.1, 1.0])
            for mode in modes:
                got = []
                for backend in BACKENDS:
                    checks.clear()
                    got.append((solve_from(inst, pi, backend, mode), checks[:]))
                assert got[0] == got[1]
                (outcome, _), _ = got
                if outcome[0] is InternalInvariantError:
                    assert outcome[1].startswith("reduced cost -")
                    raised += 1
                    later += outcome[2] != zero
    assert raised > 2000 and later > 50
    assert len(in_reverse) > 600  # of them in a record-mode reverse search


def replay_oracle(trace):
    """The flows f_0 .. f_N and the bad steps, by network.push and
    network.good_arcs over each step in turn, in the trace's numbers."""
    net = trace.instance.base
    cap = [e.capacity for e in net.edges]
    f = [0.0] * net.m
    flows = [Flow(tuple(f), 0.0)]
    bad = []
    for step in trace.steps:
        if not good_arcs(net, f, cap, step.path_arcs):
            bad.append(step.index)
        push(f, cap, step.path_arcs, step.amount)
        flows.append(Flow(tuple(f), step.flow_value_after))
    return repr(tuple(flows)), tuple(bad)


@pytest.mark.parametrize("native", [True, False], ids=["kernel", "python"])
def test_replay_flows_and_classify_match_the_step_loop(monkeypatch, native):
    # replay_flows and classify read one replay walk: with the kernel it
    # serves every step, and either way the flows and the bad steps are
    # those of pushing each step in turn
    if native and _native.load() is None:
        pytest.skip("the compiled search kernel is unavailable")
    if not native:
        monkeypatch.setattr(_native, "load", lambda: None)
    pushes = []
    monkeypatch.setattr(solver, "push", lambda *args: pushes.append(args) or push(*args))
    for inst in lockstep_instances():
        kept = run_ssp(inst, retain_flows=True, record_distances=False)
        trace = replace(kept, intermediate_flows=None)
        flows, bad = replay_oracle(trace)
        assert repr(kept.intermediate_flows) == flows
        assert replay_flows(kept) is kept.intermediate_flows
        assert repr(replay_flows(trace)) == flows
        assert classify(trace) == classify(kept) == bad
    assert bool(pushes) is not native


def test_replay_of_other_amounts_runs_network_push(monkeypatch):
    # the replay's kernel rule reads the recorded amounts too: a Fraction
    # amount keeps its own exact comparisons, over float capacities
    kept = run_ssp(random_instance(0, capacities="real"), record_distances=False)
    trace = replace(kept, steps=tuple(replace(s, amount=Fraction(s.amount)) for s in kept.steps))
    pushes = []
    monkeypatch.setattr(solver, "push", lambda *args: pushes.append(args) or push(*args))
    flows, bad = replay_oracle(trace)
    assert repr(replay_flows(trace)) == flows
    assert classify(trace) == bad
    assert len(pushes) == 2 * len(trace.steps) > 0


@pytest.mark.parametrize("native", [True, False], ids=["kernel", "python"])
def test_replay_rejects_an_amount_above_the_bottleneck(monkeypatch, native):
    # the replay pushes each step with its recorded amount as the limit;
    # a residual below it can only come from a malformed trace
    if native and _native.load() is None:
        pytest.skip("the compiled search kernel is unavailable")
    if not native:
        monkeypatch.setattr(_native, "load", lambda: None)
    for inst in (random_instance(0, capacities="real"), random_instance(1)):
        trace = run_ssp(inst, record_distances=False)
        s = trace.steps[1]  # a residual, not the target, bounds it
        assert s.flow_value_after < inst.z
        steps = list(trace.steps)
        steps[1] = replace(s, amount=math.nextafter(s.amount, math.inf))
        bad = replace(trace, steps=tuple(steps))
        for read in (trace_csv_rows, replay_flows, classify):
            with pytest.raises(InternalInvariantError, match="^step 2: recorded amount"):
                read(bad)


class _Float(float):
    pass


def test_non_float_targets_are_held_as_floats():
    # a numpy scalar or a float subclass as z reaches z as a float, so no
    # numpy repr lands in the trace CSV; an int or a Fraction keeps its type
    inst = random_instance(1, capacities="real")
    for solve_for in (run_ssp, reference_solve):
        for z in (np.float64(0.6 * inst.z), np.float32(0.5), _Float(0.6 * inst.z)):
            trace = solve_for(inst, z=z)
            assert trace.final_flow.value == z and type(trace.final_flow.value) is float
            assert type(trace.steps[-1].flow_value_after) is float
            for row in trace_csv_rows(trace)[1:]:
                assert all(math.isfinite(float(cell)) for cell in row.split(","))
        for z in (1, Fraction(1, 2)):
            trace = solve_for(inst, z=z)
            assert trace.final_flow.value == z and type(trace.final_flow.value) is type(z)


def test_other_numbers_are_one_csv_cell_each():
    # a target that the solve keeps as its own object reaches the binding
    # row, and a Fraction amount its own row; each is written by str, as
    # one cell, while floats keep their repr
    inst = random_instance(1, capacities="real")
    for z in (Fraction(1, 2), np.int64(1), Decimal("0.1")):
        trace = run_ssp(inst, z=z)
        assert trace.final_flow.value == z and type(trace.final_flow.value) is type(z)
        rows = [row.split(",") for row in trace_csv_rows(trace)]
        assert all(len(row) == 6 for row in rows)
        assert rows[-1][3] == str(z)
        assert all(cell == repr(float(cell)) for row in rows[1:] for cell in row[1:3])
    kept = run_ssp(inst, record_distances=False)
    trace = replace(kept, steps=tuple(replace(s, amount=Fraction(s.amount)) for s in kept.steps))
    rows = [row.split(",") for row in trace_csv_rows(trace)]
    assert all(len(row) == 6 for row in rows)
    assert [row[2] for row in rows[1:]] == [str(s.amount) for s in trace.steps]


def test_solves_and_replays_share_the_instance_arrays(monkeypatch):
    # every solve and replay of an instance reads one build of its arrays,
    # and none of them writes to it
    for inst in lockstep_instances():
        first = full_trace(inst)
        arrays = inst._arrays
        trace = run_ssp(inst)
        run_ssp(inst, record_distances=False)
        reference_solve(inst)
        exact_check(trace)
        trace_csv_rows(trace)
        check_lemmas(trace)  # its certificate builds _columns from the arrays
        assert inst._arrays is arrays
        assert repr(arrays) == repr(type(inst)._arrays.func(inst))
        assert full_trace(inst) == first
        # the arrays are built, yet the kernel is still chosen per solve
        with monkeypatch.context() as patch:
            patch.setattr(_native, "load", lambda: None)
            assert _Engine(inst).native is None


def test_derived_instances_patch_the_parent_arrays():
    # an instance with one edge cost replaced builds its arrays from its
    # parent's: they equal a fresh build, and only the lists and rows that
    # the cost reaches are copies
    fresh = TransformedNetwork._arrays.func
    derived_count = 0
    for inst in lockstep_instances():
        arrays = inst._arrays
        before = repr(arrays)
        net = inst.base
        for e in range(inst.m):
            if not net.is_original(e):
                continue
            for cost in (0.0, net.cost_bound, net.cost_bound / 2):
                derived = inst._with_edge_cost(e, cost)
                assert derived == TransformedNetwork(
                    net.with_edge_cost(e, cost), inst.source, inst.sink, inst.z
                )
                got = derived._arrays
                assert repr(got) == repr(fresh(derived))
                for name in ("nodes", "tail", "head", "cap", "original"):
                    assert getattr(got, name) is getattr(arrays, name)
                for name in ("cost", "signed_cost", "out_adj"):
                    assert getattr(got, name) is not getattr(arrays, name)
                ends = {arrays.tail[e], arrays.head[e]}
                assert [r is not p for r, p in zip(got.out_adj, arrays.out_adj)] == [
                    u in ends for u in range(len(arrays.nodes))
                ]
                derived_count += 1
        assert inst._arrays is arrays and repr(arrays) == before
    assert derived_count > 3000


def test_solving_derived_instances_leaves_the_parent_alone():
    # the derived instance solves as a fresh one does, and neither its
    # solves nor reconstruct's write to the arrays it shares
    rejected = 0
    for inst in lockstep_instances():
        before = repr(inst._arrays)
        net = inst.base
        original = [e for e in range(inst.m) if net.is_original(e)]
        for e in original[:3]:
            derived = inst._with_edge_cost(e, net.cost_bound)
            rebuilt = TransformedNetwork(derived.base, inst.source, inst.sink, inst.z)
            for mode in ({"record_distances": True}, {"record_distances": False}):
                assert full_trace(derived, **mode) == full_trace(rebuilt, **mode)
            reconstruct(inst, 2 * e, math.inf)
            reconstruct(inst, 2 * e + 1, 0.5)
        assert repr(inst._arrays) == before
        auxiliary = [e for e in range(inst.m) if not net.is_original(e)]
        for e in auxiliary[:1]:
            with pytest.raises(AuxiliaryArc):
                reconstruct(inst, 2 * e, 1.0)
        rejected += bool(auxiliary)
    assert rejected > 40


@pytest.mark.parametrize("e, cost", [(-1, 0.5), (None, 0.5), (0, math.nan), (0, -0.5),
                                     (0, 2.0), ("aux", 0.5)])
def test_derived_instances_reject_as_with_edge_cost(e, cost):
    inst = transform(FlowNetwork(
        [Edge(0, 1, 2.0, 0.25), Edge(1, 2, 2.0, 0.5)], {0: 1.0, 2: -1.0}
    ))
    e = {None: inst.m, "aux": inst.m - 1}.get(e, e)

    def raised(fn):
        with pytest.raises(Exception) as info:
            fn(e, cost)
        return type(info.value), str(info.value)

    assert raised(inst._with_edge_cost) == raised(inst.base.with_edge_cost)
