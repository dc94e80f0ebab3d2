"""Shared fixtures and instance builders."""

import dataclasses
import math

import pytest

from sspflow import lowerbound
from sspflow import (
    Edge,
    FlowNetwork,
    SmoothedCostSpec,
    adversarial_spec,
    random_topology,
    run_ssp,
    sample_costs,
    transform,
)


def single_edge_network(cap=5.0, cost=0.5, demand=3.0):
    return FlowNetwork(
        nodes=(0, 1),
        edges=(Edge(0, 1, cap, cost),),
        balance={0: demand, 1: -demand},
        cost_bound=1.0,
    )


def two_path_network():
    """Two node-disjoint 2-hop routes of different lengths.

    0 -> 1 -> 3 costs 0.1 + 0.2 = 0.3, cap 2
    0 -> 2 -> 3 costs 0.3 + 0.4 = 0.7, cap 3
    demand 5, so both routes saturate in cost order.
    """
    return FlowNetwork(
        nodes=(0, 1, 2, 3),
        edges=(
            Edge(0, 1, 2.0, 0.1),
            Edge(1, 3, 2.0, 0.2),
            Edge(0, 2, 3.0, 0.3),
            Edge(2, 3, 3.0, 0.4),
        ),
        balance={0: 5.0, 3: -5.0},
        cost_bound=1.0,
    )


def profile_fixture_network():
    """Hand-built network whose value-vs-cost profile is known exactly.

    Six parallel routes s->v_i->t with integer-ish costs and caps chosen
    so successive path lengths are 4, 6, 7, 8, 9, 12 with capacities
    2, 1, 2, 2, 3, 2.
    """
    lengths = [4.0, 6.0, 7.0, 8.0, 9.0, 12.0]
    caps = [2.0, 1.0, 2.0, 2.0, 3.0, 2.0]
    edges = []
    for i, (ell, cap) in enumerate(zip(lengths, caps)):
        mid = 1 + i
        edges.append(Edge(0, mid, cap, ell / 2))
        edges.append(Edge(mid, 7, cap, ell / 2))
    total = sum(caps)
    return FlowNetwork(
        nodes=tuple(range(8)),
        edges=tuple(edges),
        balance={0: total, 7: -total},
        cost_bound=8.0,
    )


def tie_bad_step_network():
    """Six nodes, four steps, found by random search: step 4 ties step 3
    at length 1.0 and its path has no empty arc, so it is bad and zeroes
    four arcs."""
    edges = [
        (2, 3, 2.0, 0.75), (1, 3, 1.0, 1.0), (1, 4, 1.0, 0.0),
        (4, 2, 3.0, 0.75), (5, 0, 2.0, 0.5), (5, 1, 3.0, 0.75),
        (3, 4, 1.0, 0.0), (3, 0, 2.0, 0.75), (0, 1, 1.0, 0.25),
        (1, 2, 2.0, 1.0),
    ]
    balance = {0: -1.0, 1: -3.0, 2: 0.0, 3: 2.0, 4: 0.0, 5: 2.0}
    return FlowNetwork([Edge(*e) for e in edges], balance)


def random_instance(seed, n=6, m=12, phi=10.0, shape="erdos", capacities="int"):
    topo = random_topology(n, m, shape, seed, capacities=capacities)
    spec = adversarial_spec(topo, phi)
    return transform(sample_costs(topo, spec, seed))


def uniform_instance(seed, n=6, m=12, shape="erdos", capacities="int"):
    topo = random_topology(n, m, shape, seed, capacities=capacities)
    return transform(sample_costs(topo, SmoothedCostSpec(1.0), seed))


@pytest.fixture
def single_edge():
    return single_edge_network()


@pytest.fixture
def two_paths():
    return two_path_network()


@pytest.fixture
def profile_network():
    return profile_fixture_network()


@pytest.fixture
def forced_tie(monkeypatch):
    """lowerbound.run_ssp gives step 3 the exact length of step 2."""
    def tied(instance, **kwargs):
        trace = run_ssp(instance, **kwargs)
        steps = list(trace.steps)
        steps[2] = dataclasses.replace(steps[2], length=steps[1].length)
        return dataclasses.replace(trace, steps=tuple(steps))

    monkeypatch.setattr(lowerbound, "run_ssp", tied)


def lp_feasible_value(network):
    """Max value of a feasible b-flow prefix via linprog, as an oracle.

    Maximizes t over flows satisfying capacity bounds and conservation
    scaled by t in [0, 1]: finds whether the full balance vector is
    feasible (t == 1) and the best fraction otherwise.
    """
    from scipy.optimize import linprog

    nodes = list(network.nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    m = network.m
    # variables: f_e for each edge, then t
    a_eq = [[0.0] * (m + 1) for _ in nodes]
    for e, edge in enumerate(network.edges):
        a_eq[idx[edge.tail]][e] += 1.0
        a_eq[idx[edge.head]][e] -= 1.0
    for v in nodes:
        a_eq[idx[v]][m] = -network.balance.get(v, 0.0)
    b_eq = [0.0] * len(nodes)
    bounds = [(0.0, edge.capacity) for edge in network.edges] + [(0.0, 1.0)]
    c = [0.0] * m + [-1.0]
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.x[m] * math.fsum(b for b in network.balance.values() if b > 0)
