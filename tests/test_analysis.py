import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from sspflow import analysis
from sspflow import (
    AuxiliaryArc,
    Edge,
    FlowNetwork,
    InfeasibleFlow,
    LowerBoundParams,
    Outcome,
    SmoothedCostSpec,
    adversarial_spec,
    bipartite_topology,
    build_hard_instance,
    check_feasible,
    check_lemmas,
    check_reconstruction,
    classify,
    exact_check,
    harvest_reconstruction_cases,
    reconstruct,
    random_topology,
    reference_solve,
    replay_flows,
    residual_arcs,
    run_ssp,
    sample_costs,
    transform,
    verify_optimality,
)

from sspflow.analysis import _float_column
from sspflow.network import Flow, as_transformed
from sspflow.solver import _Engine, trace_csv_rows

from conftest import (
    profile_fixture_network,
    random_instance,
    tie_bad_step_network,
    uniform_instance,
)


def slack_network():
    """Demand below capacity so suboptimal feasible flows exist.

    Route 0->1->3 costs 0.3 cap 2; route 0->2->3 costs 0.7 cap 3;
    demand 2. Optimal flow uses only the cheap route.
    """
    return FlowNetwork(
        [
            Edge(0, 1, 2.0, 0.1),
            Edge(1, 3, 2.0, 0.2),
            Edge(0, 2, 3.0, 0.3),
            Edge(2, 3, 3.0, 0.4),
        ],
        {0: 2.0, 3: -2.0},
    )


class TestOptimality:
    def test_solver_output_is_optimal(self):
        inst = transform(slack_network())
        trace = run_ssp(inst)
        assert verify_optimality(inst, trace.final_flow)

    def test_suboptimal_flow_detected(self):
        inst = transform(slack_network())
        # push everything along the expensive route: the residual cycle
        # (forward cheap, backward expensive) has cost 0.3 - 0.7 < 0
        values = (0.0, 0.0, 2.0, 2.0, 2.0, 2.0)
        bad = Flow(values, check_feasible(inst, values))
        assert not verify_optimality(inst, bad)

    def test_random_pool_optimal(self):
        for seed in range(20):
            inst = uniform_instance(seed)
            trace = run_ssp(inst)
            assert verify_optimality(inst, trace.final_flow), seed


def recorded_distances(trace):
    """d_0 .. d_N, the distances from the source recorded on each flow."""
    return [trace.initial_distances_from_s] + [
        step.distances_from_s for step in trace.steps
    ]


def with_capacity(inst, e, capacity):
    """inst with edge e's capacity replaced."""
    net = inst.base
    edges = list(net.edges)
    edges[e] = dataclasses.replace(edges[e], capacity=capacity)
    return as_transformed(
        FlowNetwork(edges, net.balance, net.nodes, net.cost_bound), inst.source, inst.sink
    )


def scaled_up(inst, scale=2.0**60):
    """inst with every cost, capacity and balance and the cost bound
    times scale, a power of two, so the copy is exact and its numbers lie
    far past 2^53."""
    net = inst.base
    edges = [
        dataclasses.replace(e, capacity=e.capacity * scale, cost=e.cost * scale)
        for e in net.edges
    ]
    balance = {v: b * scale for v, b in net.balance.items()}
    return as_transformed(
        FlowNetwork(edges, balance, net.nodes, net.cost_bound * scale),
        inst.source, inst.sink,
    )


def certificate_instances():
    """180 small instances, a third of the first 150 with real
    capacities; the last 30 hold floats past 2^53: one capacity of 2^53
    or 1e18, or every cost and capacity times 2^60."""
    return (
        [uniform_instance(seed) for seed in range(50)]
        + [random_instance(seed, n=10, m=30) for seed in range(50)]
        + [
            random_instance(seed, n=8, m=20, capacities="real")
            for seed in range(50)
        ]
        + [with_capacity(uniform_instance(seed), 0, 2.0**53) for seed in range(10)]
        + [with_capacity(random_instance(seed, n=10, m=30), 1, 1e18) for seed in range(10)]
        + [scaled_up(random_instance(seed, capacities="real")) for seed in range(10)]
    )


@pytest.fixture
def full_bellman_ford(monkeypatch):
    """Counts verify_optimality's full Bellman-Ford runs: only they
    build the residual arc list."""
    calls = []

    def counted(net, f):
        calls.append(f)
        return residual_arcs(net, f)

    monkeypatch.setattr(analysis, "residual_arcs", counted)
    return calls


def circulation_network():
    """slack_network plus a 3-cycle 4 -> 5 -> 6 -> 4 that no source
    path reaches, and its optimal flow with 1 unit around the cycle:
    the cycle's backward arcs form a residual cycle of cost -0.3 among
    nodes that carry no distance label."""
    net = FlowNetwork(
        list(slack_network().edges)
        + [Edge(4, 5, 2.0, 0.1), Edge(5, 6, 2.0, 0.1), Edge(6, 4, 2.0, 0.1)],
        {0: 2.0, 3: -2.0},
    )
    inst = transform(net)
    trace = run_ssp(inst)
    values = list(trace.final_flow.values)
    for e in (4, 5, 6):
        assert values[e] == 0.0
        values[e] = 1.0
    return inst, trace, Flow(tuple(values), trace.final_flow.value)


class TestCertificate:
    """verify_optimality with recorded distances: the certificate's
    verdict is the full Bellman-Ford's, and a certificate that does not
    hold sends it to the full Bellman-Ford."""

    def test_same_verdict_as_full_bellman_ford(self, full_bellman_ford):
        flows_checked = with_unlabelled = 0
        for inst in certificate_instances():
            trace = run_ssp(inst)
            for flow, dist in zip(replay_flows(trace), recorded_distances(trace)):
                full = verify_optimality(inst, flow)
                assert verify_optimality(inst, flow, dist) == full
                flows_checked += 1
                with_unlabelled += math.inf in dist.values()
        assert flows_checked > 600 and with_unlabelled > 150
        # every recorded distance vector certified its flow: the only
        # full runs are the dist-free reference calls
        assert len(full_bellman_ford) == flows_checked

    def test_certificate_holds_on_worst_case_family(self):
        # labels reach the thousands here, so float noise on an arc
        # exceeds the absolute slack; the relative test absorbs it
        inst = build_hard_instance(LowerBoundParams(8, 16, 256.0), 0).instance
        trace = run_ssp(inst)
        pairs = list(zip(replay_flows(trace), recorded_distances(trace)))
        assert len(pairs) == 1025
        for route in (dense_route, loop_route):
            rejected = sum(route(inst, flow.values, dist) is None for flow, dist in pairs)
            assert rejected == 0, route.__name__

    def test_doctored_flow_same_verdict(self):
        inst = transform(slack_network())
        values = (0.0, 0.0, 2.0, 2.0, 2.0, 2.0)
        bad = Flow(values, check_feasible(inst, values))
        optimal = run_ssp(inst)
        for dist in (
            optimal.initial_distances_from_s,
            optimal.steps[-1].distances_from_s,
            dict.fromkeys(inst.base.nodes, 0.0),
            dict.fromkeys(inst.base.nodes, math.inf),
        ):
            assert verify_optimality(inst, bad, dist) is False
        assert verify_optimality(inst, bad) is False

    def pick_labelled_node(self, trace):
        """A flow, its distances and a labelled node other than the
        source; the node's incoming tree arc is tight."""
        flows = replay_flows(trace)
        dists = recorded_distances(trace)
        src = trace.instance.source
        for flow, dist in zip(flows, dists):
            for v, d in dist.items():
                if v != src and d < math.inf:
                    return flow, dict(dist), v
        raise AssertionError("no labelled node")

    def test_nudged_distance_falls_back(self, full_bellman_ford):
        for seed in range(10):
            inst = uniform_instance(seed)
            flow, dist, v = self.pick_labelled_node(run_ssp(inst))
            assert verify_optimality(inst, flow, dist)
            assert not full_bellman_ford
            dist[v] += 0.5
            assert verify_optimality(inst, flow, dist)
            assert len(full_bellman_ford) == 1, seed
            full_bellman_ford.clear()

    def test_reachable_node_set_to_inf_falls_back(self, full_bellman_ford):
        for seed in range(10):
            inst = uniform_instance(seed)
            flow, dist, v = self.pick_labelled_node(run_ssp(inst))
            dist[v] = math.inf
            assert verify_optimality(inst, flow, dist)
            assert len(full_bellman_ford) == 1, seed
            full_bellman_ford.clear()

    def test_label_neither_finite_nor_inf_falls_back(self, full_bellman_ford):
        inst = uniform_instance(0)
        flow, dist, v = self.pick_labelled_node(run_ssp(inst))
        for bad in (math.nan, -math.inf):
            assert verify_optimality(inst, flow, {**dist, v: bad})
        del dist[v]
        assert verify_optimality(inst, flow, dist)
        assert len(full_bellman_ford) == 3

    def test_negative_cycle_among_labelled_nodes(self, full_bellman_ford):
        inst, _, flow = circulation_network()
        # every node labelled, the cycle's too: the certificate cannot
        # hold on a negative cycle, whatever the labels
        for dist in (
            dict.fromkeys(inst.base.nodes, 0.0),
            {v: 0.1 * v for v in inst.base.nodes},
        ):
            assert verify_optimality(inst, flow, dist) is False
        assert len(full_bellman_ford) == 2

    def test_negative_cycle_among_unlabelled_nodes(self, full_bellman_ford):
        inst, trace, flow = circulation_network()
        dist = trace.steps[-1].distances_from_s
        assert [dist[v] for v in (4, 5, 6)] == [math.inf] * 3
        assert verify_optimality(inst, trace.final_flow, dist) is True
        # the cycle is Bellman-Ford's among the unlabelled nodes, with
        # no fall back to the full run
        assert verify_optimality(inst, flow, dist) is False
        assert not full_bellman_ford
        assert verify_optimality(inst, flow) is False

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_flow_rejected(self, delta):
        inst = uniform_instance(0)
        trace = run_ssp(inst)
        values = trace.final_flow.values
        values = values[:-1] if delta < 0 else values + (0.0,)
        wrong = Flow(values, trace.final_flow.value)
        for dist in (None, trace.steps[-1].distances_from_s):
            with pytest.raises(InfeasibleFlow, match="edge values"):
                verify_optimality(inst, wrong, dist)

    def test_check_lemmas_passes_recorded_distances(self, monkeypatch):
        seen = []

        def spy(instance, flow, dist=None):
            seen.append(dist)
            return True

        monkeypatch.setattr(analysis, "verify_optimality", spy)
        inst = uniform_instance(3)
        trace = run_ssp(inst)
        check_lemmas(trace)
        assert len(seen) == len(trace.steps) + 1
        assert all(a is b for a, b in zip(seen, recorded_distances(trace)))
        seen.clear()
        check_lemmas(run_ssp(inst, record_distances=False))
        check_lemmas(reference_solve(inst))
        assert seen and all(d is None for d in seen)


def loop_route(inst, values, dist):
    """The certificate pass as an exact Python loop: the oracle."""
    return analysis._unlabelled_arcs(inst.base, values, dist)


def dense_route(inst, values, dist):
    """The certificate pass verify_optimality runs."""
    return analysis._free_arcs(inst, values, dist)


@pytest.fixture
def dense_calls(monkeypatch):
    """Counts the certificate passes that ran over float64 columns."""
    calls = []
    dense = analysis._dense_unlabelled_arcs

    def counted(*args):
        calls.append(args)
        return dense(*args)

    monkeypatch.setattr(analysis, "_dense_unlabelled_arcs", counted)
    return calls


def distance_variants(trace, dist):
    """dist, and mutations of it that the certificate must judge as the
    loop does: a labelled node nudged either way or set to inf, -inf or
    NaN, or missing; every node unlabelled."""
    yield dist
    src = trace.instance.source
    labelled = [v for v, d in dist.items() if v != src and d < math.inf]
    for v in labelled[:2]:
        for value in (dist[v] + 0.5, dist[v] - 0.5, dist[v] + 1e-13,
                      math.inf, -math.inf, math.nan):
            yield {**dist, v: value}
        yield {w: d for w, d in dist.items() if w != v}
    yield dict.fromkeys(dist, math.inf)


class TestDenseCertificate:
    """verify_optimality's certificate pass over per-instance float64
    columns returns what the exact loop returns, None or the same list,
    and keeps the loop for numbers float64 does not hold exactly."""

    def test_same_answer_as_loop(self, dense_calls):
        answers = []
        well_formed = 0
        for inst in certificate_instances():
            trace = run_ssp(inst)
            for flow, dist in zip(replay_flows(trace), recorded_distances(trace)):
                for d in distance_variants(trace, dist):
                    want = loop_route(inst, flow.values, d)
                    assert repr(dense_route(inst, flow.values, d)) == repr(want)
                    answers.append(want)
                    well_formed += all(
                        d.get(v, math.nan) == math.inf or math.isfinite(d.get(v, math.nan))
                        for v in inst.base.nodes
                    )
        # every outcome occurs; a missing, NaN or -inf label goes to the
        # loop, which rejects it at once, and the columns take the rest
        assert sum(a is None for a in answers) > 1000
        assert sum(a == [] for a in answers) > 500
        assert sum(bool(a) for a in answers) > 500
        assert len(dense_calls) == well_formed > 5000

    def test_exact_numbers_keep_the_loop(self, dense_calls):
        inst = uniform_instance(4)
        trace = run_ssp(inst)
        flow, dist = trace.final_flow, trace.steps[-1].distances_from_s
        assert inst._columns is not None
        cases = [
            # Fractions: exact comparisons, and exact sums with a label
            (tuple(map(Fraction, flow.values)), dist),
            (flow.values, {v: Fraction(d) if d < math.inf else d for v, d in dist.items()}),
            # ints past 2^53, which float64 rounds, as labels and flows
            (flow.values, {**dist, inst.source: 2**53 + 1}),
            (flow.values, dict.fromkeys(dist, 2**53 + 1)),
            ((2**53 + 1,) + flow.values[1:], dist),
            ((-(2**62 + 1),) + flow.values[1:], dist),
            ((2**64,) + flow.values[1:], dist),
        ]
        for values, d in cases:
            assert repr(dense_route(inst, values, d)) == repr(loop_route(inst, values, d))
        # an all-int flow is no float flow, so it takes the loop too
        ints = tuple(int(x) for x in flow.values)
        assert ints == flow.values and any(ints)
        assert repr(dense_route(inst, ints, dist)) == repr(loop_route(inst, ints, dist))
        assert not dense_calls

    @pytest.mark.parametrize("capacity", [2.0**53, 1e18])
    def test_huge_float_capacity_keeps_the_columns(self, dense_calls, monkeypatch, capacity):
        # a float of any size is held exactly by float64, so one huge
        # capacity (a stand-in for an uncapacitated edge) keeps every
        # flow's certificate on the columns
        inst = with_capacity(uniform_instance(2), 0, capacity)
        assert inst._columns is not None
        trace = run_ssp(inst)
        report = check_lemmas(trace)
        assert len(dense_calls) == len(trace.steps) + 1
        monkeypatch.setattr(analysis, "_free_arcs", loop_route)
        assert check_lemmas(trace) == report
        assert report.all_passed

    def test_fraction_flow_below_capacity_by_less_than_rounding(self, dense_calls):
        # 1 - 10^-30 rounds to the capacity 1.0: only exact comparison
        # sees the forward arc present, and its free arc between
        # unlabelled nodes
        net = FlowNetwork([Edge(0, 1, 1.0, 0.5), Edge(2, 3, 1.0, 0.5)], {0: 1.0, 1: -1.0})
        inst = transform(net)
        nearly = Fraction(1) - Fraction(1, 10**30)
        values = (0.0, nearly, 0.0, 0.0)
        dist = {4: 0.0, 0: 0.0, 1: 0.5, 5: 0.5, 2: math.inf, 3: math.inf}
        want = loop_route(inst, values, dist)
        assert [a for a, *_ in want] == [2, 3]
        assert repr(dense_route(inst, values, dist)) == repr(want)
        assert not dense_calls
        rounded = analysis._dense_unlabelled_arcs(
            inst.base, inst._columns, np.array(values, dtype=float),
            np.array([dist[v] for v in inst.base.nodes]),
        )
        assert [a for a, *_ in rounded] == [3]

    def test_instances_without_columns(self, dense_calls):
        # Fraction costs (exact_check's copy) and an int capacity of
        # 2^53 + 1 take the loop for every flow
        fractional = transform(FlowNetwork(
            [Edge(0, 1, 2.0, Fraction(1, 3)), Edge(1, 2, 2.0, 0.5)], {0: 1.0, 2: -1.0}
        ))
        wide = transform(FlowNetwork(
            [Edge(0, 1, 2**53 + 1, 0.5), Edge(1, 2, 3, 0.25)], {0: 1.0, 2: -1.0}
        ))
        for inst in (fractional, wide):
            assert inst._columns is None
            trace = run_ssp(inst)
            for flow, dist in zip(replay_flows(trace), recorded_distances(trace)):
                assert verify_optimality(inst, flow, dist)
                for d in distance_variants(trace, dist):
                    assert repr(dense_route(inst, flow.values, d)) == repr(
                        loop_route(inst, flow.values, d)
                    )
        assert not dense_calls


def column_oracle(inst, flow):
    """What _flow_columns must yield for flow: a fresh _float_column of a
    tuple of m values, or None."""
    values = flow.values
    if inst._columns is None or type(values) is not tuple or len(values) != inst.m:
        return None
    return _float_column(values)


def assert_streamed(trace, flows):
    """Every streamed column equals the fresh conversion of its flow, and
    is an array of its own."""
    prev = None
    for flow, x in zip(flows, analysis._flow_columns(trace, flows), strict=True):
        want = column_oracle(trace.instance, flow)
        if want is None:
            assert x is None
        else:
            assert x.dtype == np.float64 and np.array_equal(x, want, equal_nan=True)
            assert prev is None or not np.shares_memory(x, prev)
        prev = x


class TestStreamedColumns:
    """check_lemmas hands verify_optimality each flow as a float64 column,
    patched from the previous flow's on the step's path edges."""

    def test_solver_traces(self, monkeypatch):
        conversions = []

        def counted(values):
            conversions.append(values)
            return _float_column(values)

        monkeypatch.setattr(analysis, "_float_column", counted)
        flows_seen = 0
        for inst in certificate_instances():
            for kept in (run_ssp(inst, retain_flows=True), run_ssp(inst)):
                flows = replay_flows(kept)
                conversions.clear()
                assert_streamed(kept, flows)
                # only f_0 is converted afresh
                assert [c for c in conversions if c is not None] == [flows[0].values]
                flows_seen += len(flows)
        assert flows_seen > 1000

    def test_no_columns(self):
        inst = transform(FlowNetwork(
            [Edge(0, 1, 2.0, Fraction(1, 3)), Edge(1, 2, 2.0, 0.5)], {0: 1.0, 2: -1.0}
        ))
        trace = run_ssp(inst, retain_flows=True)
        assert list(analysis._flow_columns(trace, replay_flows(trace))) == [None] * 2

    @staticmethod
    def altered_traces(trace):
        """trace with one retained flow j + 1 changed: off step j + 1's
        path (a Fraction entry, a changed float, the next flow swapped
        in), on it (a Fraction, an int, a float past 2^52, NaN), a list
        or a wrong length."""
        flows = trace.intermediate_flows
        for j, step in enumerate(trace.steps[:-1]):
            on = {a >> 1 for a in step.path_arcs}
            off = min(set(range(trace.instance.m)) - on)
            e = min(on)
            values = flows[j + 1].values

            def altered(k, value):
                return Flow(values[:k] + (value,) + values[k + 1:], flows[j + 1].value)

            for flow in (
                altered(off, Fraction(1, 3)),
                altered(off, values[off] + 0.25),
                flows[j + 2],
                altered(e, Fraction(1, 3)),
                altered(e, Fraction(values[e])),
                altered(e, 1),
                altered(e, 2.0**53),
                altered(e, math.nan),
                Flow(list(values), flows[j + 1].value),
                Flow(values[:-1], flows[j + 1].value),
            ):
                yield dataclasses.replace(
                    trace, intermediate_flows=flows[:j + 1] + (flow,) + flows[j + 2:]
                )

    def test_altered_traces(self, monkeypatch):
        # the stream converts an altered flow afresh, and the certificate
        # gives the verdict it gives the flows as they are
        count = 0
        for seed in range(10):
            for inst in (uniform_instance(seed), random_instance(seed, n=10, m=30),
                         random_instance(seed, capacities="real")):
                kept = run_ssp(inst, retain_flows=True)
                for trace in self.altered_traces(kept):
                    flows = trace.intermediate_flows
                    assert_streamed(trace, flows)
                    try:
                        streamed = analysis._check_no_negative_cycle(trace, flows)
                    except InfeasibleFlow as exc:
                        streamed = str(exc)
                    with monkeypatch.context() as patch:
                        patch.setattr(analysis, "_flow_columns",
                                      lambda trace, flows: [None] * len(flows))
                        try:
                            want = analysis._check_no_negative_cycle(trace, flows)
                        except InfeasibleFlow as exc:
                            want = str(exc)
                    assert streamed == want
                    count += 1
        assert count > 500


class TestReferenceSolve:
    def test_agrees_with_production_solver(self):
        for seed in range(25):
            inst = uniform_instance(seed, n=6, m=10)
            b = reference_solve(inst)
            for record in (True, False):
                a = run_ssp(inst, record_distances=record)
                assert a.outcome == b.outcome, seed
                assert len(a.steps) == len(b.steps), seed
                for x, y in zip(a.steps, b.steps):
                    for name in (
                        "path_arcs",
                        "flow_value_after",
                        "amount",
                        "length",
                    ):
                        assert getattr(x, name) == getattr(y, name), (
                            seed, record, x.index, name
                        )
                assert trace_csv_rows(a) == trace_csv_rows(b), (seed, record)
                assert a.final_flow == b.final_flow, seed

    def test_intermediate_flows_unique(self):
        # a fresh solve to any step boundary value reproduces the
        # intermediate flow exactly, independently of the engine
        for seed in (2, 5, 9):
            inst = uniform_instance(seed, n=6, m=10)
            trace = run_ssp(inst, retain_flows=True)
            if len(trace.steps) < 2:
                continue
            mid = trace.steps[len(trace.steps) // 2]
            fresh = run_ssp(inst, z=mid.flow_value_after)
            assert fresh.final_flow.values == (
                trace.intermediate_flows[mid.index].values
            )
            ref = reference_solve(inst, z=mid.flow_value_after)
            assert ref.final_flow.values == fresh.final_flow.values


class TestStepBookkeeping:
    """Each step's length, path, amount and value, and its trace CSV
    columns n_saturated and good_arc, recomputed from the replayed flows
    and the raw edges alone. reference_solve shares this bookkeeping
    with the solver, so agreement between the two cannot catch a fault
    in it."""

    def check_trace(self, inst, trace, z):
        edges = inst.base.edges

        def res(f, a):
            e = a >> 1
            return f[e] if a & 1 else edges[e].capacity - f[e]

        flows = replay_flows(trace)
        rows = trace_csv_rows(trace)[1:]
        for j, step in enumerate(trace.steps):
            pre, post = flows[j].values, flows[j + 1].values
            before = flows[j].value
            arcs = step.path_arcs
            want = min([z - before] + [res(pre, a) for a in arcs])
            assert step.amount == want, step.index
            assert step.amount > 0.0, step.index
            assert step.length == math.fsum(
                -edges[a >> 1].cost if a & 1 else edges[a >> 1].cost
                for a in arcs
            ), step.index
            nodes = [inst.source]
            for a in arcs:
                edge = edges[a >> 1]
                tail, head = (edge.head, edge.tail) if a & 1 else (edge.tail, edge.head)
                assert tail == nodes[-1], step.index
                nodes.append(head)
            assert nodes[-1] == inst.sink, step.index
            value = z if z - before == step.amount else before + step.amount
            assert step.flow_value_after == value == flows[j + 1].value
            saturated = [a for a in arcs if res(post, a) == 0.0]
            good = [
                a for a in arcs
                if res(pre, a ^ 1) == 0.0 and inst.base.is_original(a >> 1)
            ]
            n_saturated, good_arc = rows[j].split(",")[4:]
            assert int(n_saturated) == len(saturated), step.index
            assert int(good_arc) == bool(good), step.index
        assert trace.final_flow == flows[-1]

    def test_steps_match_raw_recomputation(self):
        instances = [uniform_instance(seed) for seed in range(50)] + [
            random_instance(seed, n=6, m=11, capacities="real")
            for seed in range(50)
        ]
        partial_reached = 0
        for inst in instances:
            # at 0.6 z the remaining demand is the last step's bottleneck
            for z in (inst.z, 0.6 * inst.z):
                for trace in (run_ssp(inst, z=z), reference_solve(inst, z=z)):
                    self.check_trace(inst, trace, z)
                    if z != inst.z and trace.final_flow.value == z:
                        partial_reached += 1
        assert partial_reached > 50


class TestReplayAndClassify:
    def test_replay_matches_retained(self):
        instances = [uniform_instance(seed) for seed in range(20)] + [
            random_instance(seed, capacities="real") for seed in range(20)
        ]
        for inst in instances:
            trace = run_ssp(inst, retain_flows=True)
            # without retained flows, replay pushes the recorded paths
            replayed = replay_flows(
                dataclasses.replace(trace, intermediate_flows=None)
            )
            assert len(replayed) == len(trace.intermediate_flows)
            for a, b in zip(replayed, trace.intermediate_flows):
                assert a.values == b.values
                assert a.value == b.value

    def test_classification_consistent(self):
        for seed in range(10):
            inst = uniform_instance(seed)
            trace = run_ssp(inst)
            bad = classify(trace)
            rows = [row.split(",") for row in trace_csv_rows(trace)[1:]]
            assert bad == tuple(int(r[0]) for r in rows if r[5] == "0")
            assert len(bad) <= inst.n


class TestLemmaSuite:
    def test_all_checks_pass_on_solved_pool(self):
        for seed in range(15):
            inst = uniform_instance(seed, n=6, m=10)
            report = check_lemmas(run_ssp(inst, retain_flows=True))
            assert report.all_passed, (seed, report.as_text())

    def test_report_structure(self):
        report = check_lemmas(run_ssp(uniform_instance(1)))
        ids = [c.check_id for c in report.checks]
        assert ids == [
            "distance_monotonicity",
            "path_length_increase",
            "cost_function_shape",
            "empty_arc_on_path",
            "bad_flow_bound",
            "no_negative_cycle",
            "reverse_path_optimal",
            "no_backward_aux_augmentation",
        ]
        rows = report.as_csv_rows()
        assert rows[0] == "lemma_id,pass,first_violation_step"
        assert len(rows) == 9

    def test_doctored_length_fails(self):
        inst = uniform_instance(3)
        trace = run_ssp(inst, retain_flows=True)
        assert len(trace.steps) >= 2
        last = trace.steps[-1]
        doctored = dataclasses.replace(
            trace,
            steps=trace.steps[:-1]
            + (dataclasses.replace(last, length=-1.0),),
        )
        report = check_lemmas(doctored)
        assert not report.all_passed
        failed = {c.check_id for c in report.checks if not c.passed}
        assert "path_length_increase" in failed
        assert "cost_function_shape" in failed

    def test_bad_step_bound_fails_above_node_count(self, monkeypatch):
        inst = uniform_instance(3)
        trace = run_ssp(inst, retain_flows=True)
        n = trace.instance.n
        monkeypatch.setattr(
            analysis, "classify", lambda trace: tuple(range(1, n + 2))
        )
        by_id = {c.check_id: c for c in check_lemmas(trace).checks}
        check = by_id["bad_flow_bound"]
        assert not check.passed and check.first_violation_step is None
        assert check.detail == f"{n + 1} bad steps exceed the node-count bound {n}"

    def test_expensive_check_skipped_on_large_instance(self):
        inst = uniform_instance(0, n=14, m=20)
        report = check_lemmas(run_ssp(inst, retain_flows=True))
        by_id = {c.check_id: c for c in report.checks}
        assert by_id["reverse_path_optimal"].skipped
        # skipped counts as not-failed
        assert report.all_passed

    def test_distance_monotonicity_scales_with_distances(self):
        # costs near 1e8 round a distance that holds in exact arithmetic
        # down by more than 1e-9; a drop of 1e-6 relative still fails
        topo = random_topology(6, 14, "bipartite", 0)
        inst = transform(sample_costs(topo, SmoothedCostSpec(1e8, "phi"), 0))
        trace = run_ssp(inst, retain_flows=True)
        check = check_lemmas(trace).checks[0]
        assert check.check_id == "distance_monotonicity" and check.passed
        prev = trace.initial_distances_to_t
        v = max((d, v) for v, d in prev.items() if d < math.inf)[1]
        assert prev[v] > 1e7
        lowered = {**trace.steps[0].distances_to_t, v: prev[v] * (1 - 1e-6)}
        doctored = dataclasses.replace(trace, steps=(
            dataclasses.replace(trace.steps[0], distances_to_t=lowered),
            *trace.steps[1:],
        ))
        check = check_lemmas(doctored).checks[0]
        assert not check.passed and check.first_violation_step == 1
        assert check.detail.startswith(f"node {v} distance dropped")

    @staticmethod
    def _failures(trace):
        return {
            c.check_id: (c.first_violation_step, c.detail)
            for c in check_lemmas(trace).checks if not c.passed
        }

    def test_node_becoming_reachable_fails(self):
        trace = run_ssp(uniform_instance(3), retain_flows=True)
        d0 = trace.initial_distances_from_s
        assert d0[0] < math.inf and trace.steps[0].distances_from_s[0] < math.inf
        doctored = dataclasses.replace(trace, initial_distances_from_s={**d0, 0: math.inf})
        assert self._failures(doctored) == {
            "distance_monotonicity": (1, "node 0 became reachable (from_s)"),
        }

    def test_zero_amount_breakpoint_fails(self):
        trace = run_ssp(uniform_instance(3), retain_flows=True)
        assert len(trace.steps) == 2
        last = dataclasses.replace(trace.steps[-1], amount=0.0)
        doctored = dataclasses.replace(trace, steps=(*trace.steps[:-1], last))
        assert self._failures(doctored) == {
            "cost_function_shape": (None, "breakpoint 2 not advancing"),
        }

    def test_discontinuity_fails(self):
        # x0 + 0.75 ulp(x0) rounds to x0 + ulp(x0): x advances a whole ulp
        # while y rises by 0.75 ulp at slope 1e12, far past the slack
        trace = run_ssp(uniform_instance(3), retain_flows=True)
        x0 = trace.steps[0].flow_value_after
        last = dataclasses.replace(
            trace.steps[-1], length=1e12, amount=0.75 * math.ulp(x0)
        )
        doctored = dataclasses.replace(trace, steps=(*trace.steps[:-1], last))
        failed = self._failures(doctored)
        assert failed["cost_function_shape"] == (None, "discontinuity at breakpoint 2")

    def test_empty_arc_fails_after_exact_tie(self):
        # an exact tie in length, which the paper's noise rules out: the
        # optimal solve's step 4 has no empty arc. Pinned as it stands; a
        # SKIP for exact ties would change this test.
        trace = run_ssp(transform(tie_bad_step_network()), retain_flows=True)
        assert self._failures(trace) == {
            "empty_arc_on_path": (4, "no empty arc on path"),
        }

    def test_reversed_path_absent_fails(self):
        # the flow after the last step is taken as the one before it
        trace = run_ssp(uniform_instance(3), retain_flows=True)
        flows = trace.intermediate_flows
        doctored = dataclasses.replace(trace, intermediate_flows=(*flows[:-1], flows[-2]))
        assert self._failures(doctored) == {
            "reverse_path_optimal": (2, "reversed path not present"),
        }

    def test_backward_auxiliary_arc_fails(self):
        # step 2's path also runs back along its first, auxiliary, arc;
        # step 1 left 2.0 on that edge, enough for step 2's 1.0
        trace = run_ssp(transform(profile_fixture_network()), retain_flows=True)
        second = trace.steps[1]
        back = second.path_arcs[0] ^ 1
        assert not trace.instance.base.is_original(back >> 1)
        doctored = dataclasses.replace(trace, steps=(
            trace.steps[0],
            dataclasses.replace(second, path_arcs=(*second.path_arcs, back)),
            *trace.steps[2:],
        ))
        assert self._failures(doctored) == {
            "no_backward_aux_augmentation": (2, f"backward auxiliary arc {back} on path"),
        }

    def test_distance_fields_optional(self):
        # lemma suite works from a distance-free trace: the distance
        # check reports skipped instead of failing
        trace = run_ssp(uniform_instance(2), record_distances=False)
        report = check_lemmas(trace)
        by_id = {c.check_id: c for c in report.checks}
        assert by_id["distance_monotonicity"].skipped
        assert report.all_passed


class TestReconstruction:
    def test_threshold_below_everything_gives_zero_flow(self):
        inst = transform(slack_network())
        flow = reconstruct(inst, 0, -1.0)
        assert flow.values == (0.0,) * inst.m
        assert flow.value == 0.0

    def test_huge_threshold_gives_modified_optimum(self):
        inst = transform(slack_network())
        got = reconstruct(inst, 0, 1e9)
        # oracle: solve the instance with the cost override applied
        modified = transform(
            slack_network().with_edge_cost(0, slack_network().cost_bound)
        )
        want = run_ssp(modified)
        assert got.values == want.final_flow.values

    def test_aux_arc_rejected(self):
        inst = transform(slack_network())
        aux_e = next(
            e for e in range(inst.m) if not inst.base.is_original(e)
        )
        with pytest.raises(AuxiliaryArc):
            reconstruct(inst, 2 * aux_e, 1.0)

    def test_harvested_cases_recover_exactly(self):
        total = 0
        for seed in range(8):
            inst = random_instance(seed, n=6, m=10, phi=5.0)
            trace = run_ssp(inst, retain_flows=True)
            cases = harvest_reconstruction_cases(trace)
            results = check_reconstruction(inst, cases)
            total += len(results)
            for case, ok in results:
                assert ok, (seed, case.arc, case.threshold, case.step_index)
        assert total >= 40  # the pool must actually exercise the claim

    def test_harvest_thresholds_inside_window(self):
        # the second instance's one path is 2^24 + 0.5 long, where a
        # float's half ulp exceeds 1e-9
        big = FlowNetwork(
            [Edge(1, 2, 1.0, 2.0**24), Edge(2, 3, 1.0, 0.5)],
            {1: 1.0, 3: -1.0}, cost_bound=2.0**24,
        )
        for inst in (random_instance(1, n=6, m=10), transform(big)):
            trace = run_ssp(inst, retain_flows=True)
            lengths = [s.length for s in trace.steps]
            cases = harvest_reconstruction_cases(trace)
            assert cases
            for case in cases:
                hi = lengths[case.step_index - 1]
                lo = lengths[case.step_index - 2] if case.step_index >= 2 else 0.0
                assert lo <= case.threshold < hi


def demo_instance():
    """The instance demos/lemma_audit.py audits in detail."""
    topo = bipartite_topology(4, 13)
    return transform(sample_costs(topo, adversarial_spec(topo, 10.0), 21))


def two_route_network(cost_a, cost_b):
    """Routes 0->1->3 (edges 0, 1) and 0->2->3 (edges 2, 3) of unit
    capacity, each edge's cost from its route's pair, demand 2."""
    (a0, a1), (b0, b1) = cost_a, cost_b
    return FlowNetwork(
        [
            Edge(0, 1, 1.0, a0),
            Edge(1, 3, 1.0, a1),
            Edge(0, 2, 1.0, b0),
            Edge(2, 3, 1.0, b1),
        ],
        {0: 2.0, 3: -2.0},
    )


class TestExactCheck:
    """exact_check: each recorded path is the exact shortest one, with
    exact ties settled by the (hops, arc sequence) rule."""

    def test_distinct_paths(self):
        trace = run_ssp(transform(slack_network()))
        assert exact_check(trace) == analysis.LemmaCheck("exact_shortest_path", True)

    def test_exact_tie_takes_lexicographic_choice(self):
        # 0.2 + 0.2 on both routes: an exact tie, so the lower arc
        # sequence goes first
        trace = run_ssp(transform(two_route_network((0.2, 0.2), (0.2, 0.2))))
        first, second = trace.steps
        assert first.length == second.length
        assert exact_check(trace).passed
        swapped = dataclasses.replace(
            trace,
            steps=(
                dataclasses.replace(first, path_arcs=second.path_arcs),
                dataclasses.replace(second, path_arcs=first.path_arcs),
            ),
        )
        check = exact_check(swapped)
        assert (check.passed, check.first_violation_step) == (False, 1)

    def test_float_tie_that_is_not_exact(self):
        # 1 + 2**-53 rounds to 1.0, so the float solve sees a tie and
        # takes the lower arc sequence; exactly, that route is longer
        inst = transform(two_route_network((1.0, 2.0**-53), (1.0, 0.0)))
        trace = run_ssp(inst)
        assert trace.steps[0].length == trace.steps[1].length == 1.0
        check = exact_check(trace)
        assert (check.passed, check.first_violation_step) == (False, 1)
        assert str(trace.steps[1].path_arcs) in check.detail

    @pytest.mark.parametrize("tiny", [1e-300, 5e-324])
    def test_tiny_costs_stay_exact(self, tiny):
        # 1 + tiny rounds to 1.0: the float solve takes the lower arc
        # sequence, exactly the longer route when tiny is on it; the
        # replay's ints run to about 1,100 bits (5e-324 is 2^-1074)
        for route_a, route_b, passed in (
            ((1.0, tiny), (1.0, 0.0), False),
            ((1.0, 0.0), (1.0, tiny), True),
            ((tiny, tiny), (2 * tiny, 0.0), True),
        ):
            trace = run_ssp(transform(two_route_network(route_a, route_b)))
            check = exact_check(trace)
            assert (check.passed, check.first_violation_step) == (
                (True, None) if passed else (False, 1)
            ), (route_a, route_b)

    def test_random_pool(self):
        for seed in range(100):
            for capacities in ("int", "real"):
                inst = random_instance(seed, capacities=capacities)
                trace = run_ssp(inst, record_distances=False)
                assert exact_check(trace).passed, (seed, capacities)

    def test_demo_instance_and_mutated_trace(self):
        trace = run_ssp(demo_instance(), retain_flows=True)
        assert exact_check(trace).passed
        steps = list(trace.steps)
        steps[1] = dataclasses.replace(steps[1], path_arcs=steps[2].path_arcs)
        mutated = dataclasses.replace(
            trace, steps=tuple(steps), intermediate_flows=None
        )
        check = exact_check(mutated)
        assert (check.passed, check.first_violation_step) == (False, 2)

    @pytest.mark.parametrize(
        "solve_with, outcome",
        [
            (
                lambda inst: run_ssp(inst, z=0.6 * inst.z, record_distances=False),
                Outcome.REACHED_Z,
            ),
            (
                lambda inst: run_ssp(inst, z=math.inf, record_distances=False),
                Outcome.MAX_FLOW_BELOW_Z,
            ),
            (
                lambda inst: run_ssp(
                    inst, stop_above_length=midway_length(inst), record_distances=False
                ),
                Outcome.STOPPED_ABOVE_LENGTH,
            ),
            (reference_solve, Outcome.REACHED_Z),
        ],
        ids=["partial_target", "max_flow", "stop_above_length", "reference_solve"],
    )
    def test_other_targets_and_solvers(self, solve_with, outcome):
        # the replay pushes toward math.inf whatever the trace's target:
        # a target that binds cuts only the last step's amount
        outcomes = set()
        for seed in range(30):
            inst = random_instance(seed, capacities="real")
            trace = solve_with(inst)
            outcomes.add(trace.outcome)
            assert exact_check(trace).passed, seed
        assert outcome in outcomes

    @pytest.mark.parametrize(
        "side, edges, phi",
        [(4, 4, 64.0), (4, 4, 256.0), (4, 4, 1024.0), (4, 4, 4096.0),
         (8, 16, 64.0), (8, 16, 256.0)],
    )
    def test_worst_case_family(self, side, edges, phi):
        inst = build_hard_instance(LowerBoundParams(side, edges, phi), 0).instance
        assert exact_check(run_ssp(inst, record_distances=False)).passed

    def test_engine_keeps_the_number_type(self):
        # 0.0 + Fraction(1) is a float, and the kernel would read an int
        # as a double: one float seed anywhere, or an int past 2^53
        # rounded, would turn the replay inexact without failing it
        inst = demo_instance()
        edges = [dataclasses.replace(e, cost=Fraction(e.cost)) for e in inst.base.edges]
        fractions = dataclasses.replace(inst, base=dataclasses.replace(inst.base, edges=edges))
        for exact, number in ((fractions, Fraction), (analysis._int_costs(inst), int)):
            for stop_at_sink in (True, False):
                eng = _Engine(exact)
                assert eng.native is None
                for _ in range(4):
                    dist, arcs = eng.dijkstra_forward(stop_at_sink)
                    # a sink-stop search returns no distances; its labels
                    # show their type in the raised pi
                    assert (dist is None) is stop_at_sink
                    labels = [
                        d for d in (*(dist or ()), *eng.dijkstra_reverse()) if d != math.inf
                    ]
                    assert len(labels) > (0 if stop_at_sink else exact.n)
                    for x in (*labels, *eng.pi):
                        assert type(x) is number, (stop_at_sink, x)
                    eng.augment(arcs, eng.path_length(arcs), inst.z)
                assert all(type(p) is number for p in eng.pi)


def midway_length(inst):
    """The length of the middle step of a full solve (math.inf if none)."""
    steps = run_ssp(inst, record_distances=False).steps
    return steps[len(steps) // 2].length if steps else math.inf


class TestOutcomes:
    def test_infeasible_pool_still_checks(self):
        # instances whose demand exceeds the max flow still produce
        # traces that satisfy every structural check
        found = 0
        for seed in range(30):
            inst = uniform_instance(seed, n=5, m=7)
            trace = run_ssp(inst, retain_flows=True)
            if trace.outcome is Outcome.MAX_FLOW_BELOW_Z:
                found += 1
                assert check_lemmas(trace).all_passed, seed
        assert found >= 1
