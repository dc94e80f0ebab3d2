import logging
import math
import operator
import random
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

from sspflow import (
    Edge,
    FlowNetwork,
    InternalInvariantError,
    TransformedNetwork,
    random_topology,
    run_ssp,
    transform,
)
from sspflow import _native, solver
from sspflow.network import empty_arcs, push, residual_arcs
from sspflow.solver import (
    REDUCED_COST_SLACK,
    Outcome,
    _Engine,
    _check_reduced_cost,
    _path_less,
    trace_csv_rows,
)

from conftest import midway_length, random_instance, two_path_network

TOOLCHAIN = (
    shutil.which(_native._CC) is not None
    and Path(sysconfig.get_paths()["include"], "Python.h").is_file()
)


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_kernel_loads_when_the_toolchain_is_present():
    # a broken C build must fail here, not fall back to the Python loops
    # and pass everything else
    kernel = _native.load()
    assert kernel is not None
    assert Path(kernel.__file__).parent == _native._CACHE_DIR
    assert _Engine(random_instance(0)).native is kernel


def test_missing_compiler_warns_once_and_falls_back(monkeypatch, caplog, tmp_path):
    inst = random_instance(3, n=8, m=20)
    want = run_ssp(inst)
    monkeypatch.setattr(_native, "_CC", str(tmp_path / "no-such-gcc"))
    monkeypatch.setattr(_native, "_CACHE_DIR", tmp_path)
    _native.load.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger=_native.__name__):
            assert _Engine(inst).native is None
            got = run_ssp(inst)
            again = run_ssp(inst)
    finally:
        _native.load.cache_clear()
    warnings = [r for r in caplog.records if r.name == _native.__name__]
    assert len(warnings) == 1
    assert "no-such-gcc" in warnings[0].getMessage()
    assert got == want and again == want
    assert list(tmp_path.iterdir()) == []  # no temporary build left behind


class _Float(float):
    pass


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
@pytest.mark.parametrize("cap_type", [float, int, bool, _Float, np.float64])
@pytest.mark.parametrize("cost_type", [float, int, _Float, Fraction])
def test_kernel_exactly_for_float_and_int_types(cost_type, cap_type):
    # the kernel is chosen exactly for all-float instances: an int, a
    # bool or a float subclass takes the Python loops, as a Fraction does,
    # and the certificate's columns follow the same rule
    net = two_path_network()
    edges = [
        Edge(e.tail, e.head, cap_type(e.capacity), cost_type(round(e.cost)), e.kind)
        for e in net.edges
    ]
    inst = transform(FlowNetwork(edges, {0: 1.0, 3: -1.0}, net.nodes, net.cost_bound))
    native = {cost_type, cap_type} <= {float}
    assert inst._arrays.floats is native
    assert (_Engine(inst).native is not None) is native
    assert (inst._columns is not None) is native


def test_derived_instance_with_an_int_cost_takes_the_python_loops():
    # a derived instance's flag is its parent's and its new cost's
    inst = transform(two_path_network())
    assert inst._arrays.floats
    with_int = inst._with_edge_cost(2, 0)
    with_float = inst._with_edge_cost(2, 0.0)
    assert with_int._arrays.floats is False and with_float._arrays.floats
    assert _Engine(with_int).native is None and with_int._columns is None
    assert with_int._with_edge_cost(2, 0.3)._arrays.floats is False
    got, want = run_ssp(with_int), run_ssp(with_float)
    assert [s.path_arcs for s in got.steps] == [s.path_arcs for s in want.steps]
    assert got.final_flow == want.final_flow


@pytest.mark.parametrize("number", [Fraction, np.float64, int])
def test_costs_of_other_types_take_the_python_loops(number):
    # the kernel computes in C doubles, so it takes floats only
    net = two_path_network()
    if number is int:  # costs 1, 2, 3, 4 keep the float costs' order
        edges = [Edge(e.tail, e.head, int(e.capacity), round(10 * e.cost)) for e in net.edges]
        cost_bound = 10.0
    else:
        edges = [Edge(e.tail, e.head, e.capacity, number(e.cost)) for e in net.edges]
        cost_bound = net.cost_bound
    other = transform(FlowNetwork(edges, dict(net.balance), net.nodes, cost_bound))
    assert _Engine(other).native is None
    want = run_ssp(transform(net))
    got = run_ssp(other)
    assert [s.path_arcs for s in got.steps] == [s.path_arcs for s in want.steps]
    assert got.final_flow == want.final_flow
    if number is int:
        # both routes saturate, and each original edge's flow is its int
        # capacity, assigned as such by network.push
        assert [type(x) for x in got.final_flow.values[:4]] == [int] * 4


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_a_new_build_deletes_older_ones(monkeypatch, tmp_path):
    # builds of an older source pile up in the cache otherwise; those of
    # another interpreter may still be in use
    stale = tmp_path / f"_search.0123456789ab{EXTENSION_SUFFIXES[0]}"
    foreign = tmp_path / "_search.0123456789ab.cpython-0-other.so"
    stale.touch()
    foreign.touch()
    monkeypatch.setattr(_native, "_CACHE_DIR", tmp_path)
    target = _native._build()
    assert sorted(tmp_path.iterdir()) == sorted([target, foreign])
    assert _native._build() == target and target.is_file()


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_kernel_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        [_native._CC, *_native._FLAGS, "-Wall", "-Wextra", "-Werror",
         f"-I{sysconfig.get_paths()['include']}",
         str(_native._SOURCE), "-o", str(tmp_path / "_search.so")],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def two_edges():
    """out_adj, f, cap and signed costs of a full edge 0 from node 0 to 1
    and an idle edge 1 from node 1 to 2, both of cost 0."""
    out_adj = (((0, 1, 0.0),), ((1, 0, -0.0), (2, 2, 0.0)), ((3, 1, -0.0),))
    return out_adj, [2.0, 0.0], [2.0, 3.0], [0.0, -0.0, 0.0, -0.0]


def kernel_calls():
    """The kernel entry point and arguments of each call that the bad-input
    cases change: the one push step as _Engine.augment calls it, with the
    headroom as its limit, and as the trace replay does, with a recorded
    amount, and a whole solve as _Engine.solve calls it. "forward" and
    "reverse", named for the search each case was written for, are one
    record-mode solve capped at 0: exactly one reverse and one full
    forward search, and no push."""
    out_adj, f, cap, cost = two_edges()
    pi = [0.0] * 3
    check = _check_reduced_cost
    # from node 1 to node 2 toward z = 5.0 from value 0.0: its first
    # searches read every f and cap item, and an uncapped solve pushes 3.0
    record = ("solve", (out_adj, f, cap, pi, cost, 1, 2, check, 1e-9, 5.0, 0.0, 0,
                        (0, 1, 2), False, math.inf))
    return {
        "forward": record,
        "reverse": record,
        "augment": ("push_step", (f, cap, b"\1\1", (1, 2), 5.0)),
        "replay": ("push_step", (f, cap, b"\1\1", (1, 2), 1.0)),
        "solve": ("solve", (out_adj, f, cap, pi, cost, 1, 2, check, 1e-9, 5.0, 0.0,
                            sys.maxsize, None, False, math.inf)),
    }


def call_rejects(error, name, changes):
    """Make the call kernel_calls()[name], its arguments changed at the
    given positions; it must raise error and write nothing: every list
    keeps the very items it held."""
    entry, args = kernel_calls()[name]
    args = list(args)
    for i, x in changes.items():
        args[i] = x
    before = repr(args)
    items = [list(x) if isinstance(x, list) else None for x in args]
    with pytest.raises(error):
        getattr(_native.load(), entry)(*args)
    assert repr(args) == before
    for got, want in zip(args, items):
        assert want is None or all(map(operator.is_, got, want))


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_the_kernel_has_one_push_step():
    # a solve that steps from Python and the trace replay push through the
    # same entry point; a one-call solve runs the searches and the push
    # inside
    names = {name for name in vars(_native.load()) if not name.startswith("__")}
    assert names == {"push_step", "solve"}


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_solve_entry_point_runs_the_per_step_calls():
    # the call that the bad-input cases change: one push of 3.0 saturates
    # edge 1, after which the sink is unreached; a cap of 0 stops it
    # before that push. Recorded, each search's distances by node id,
    # unreached nodes at math.inf itself, the reached ones from s at the
    # raised potentials' own floats, and f before and after the push
    kernel = _native.load()
    _, args = kernel_calls()["solve"]
    pi = [0.0] * 3
    assert repr(kernel.solve(*args)) == repr(([(2,)], [3.0], [0.0], pi, 0, None, None))
    assert args[1] == [2.0, 3.0] and args[3] == pi  # the pi passed in stays
    _, args = kernel_calls()["solve"]
    paths, amounts, lengths, _, end, *_ = kernel.solve(*args[:11], 0, *args[12:])
    assert (paths, amounts, lengths, end) == ([], [], [], 2) and args[1] == [2.0, 0.0]
    _, args = kernel_calls()["solve"]
    # a threshold equal to the path's length 0.0 is not below it
    paths, amounts, lengths, raised, end, dists, flows = kernel.solve(
        *args[:12], (7, 8, 9), True, 0.0
    )
    assert (paths, amounts, lengths, end) == ([(2,)], [3.0], [0.0], 0)
    inf = math.inf
    assert dists == [({7: 0.0, 8: 0.0, 9: 0.0}, {7: inf, 8: 0.0, 9: 0.0}),
                     ({7: 0.0, 8: 0.0, 9: inf}, {7: inf, 8: inf, 9: 0.0})]
    assert flows == [(2.0, 0.0), (2.0, 3.0)]
    assert dists[1][0][9] is inf and dists[1][1][8] is inf
    assert all(dists[1][0][v] is raised[i] for i, v in enumerate((7, 8)))
    # a length above the threshold ends the solve before the push
    _, args = kernel_calls()["solve"]
    assert kernel.solve(*args[:14], -math.inf)[4:] == (1, None, None)
    assert args[1] == [2.0, 0.0]


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_a_raising_stop_leaves_the_earlier_pushes():
    # the length stop is compared before each push, and an error raised
    # while a step records its distances propagates: either way f then
    # holds the pushes of the steps before it, and the pi passed in stays
    kernel = _native.load()
    inst = random_instance(1, n=8, m=20, capacities="real")
    trace = run_ssp(inst, record_distances=False, retain_flows=True)
    want = trace.intermediate_flows
    lengths = [s.length for s in trace.steps]
    assert len(want) == 5 and lengths == sorted(set(lengths))
    for k, flow in enumerate(want[:-1]):
        for record in (False, True):
            eng = _Engine(inst)
            arrays = eng.arrays
            hashes = []

            class Node(int):
                # a node id whose hash raises once step k records its
                # distances: two dicts of n ids per step
                def __hash__(self):
                    hashes.append(self)
                    if len(hashes) > 2 * inst.n * k:
                        raise KeyError(k)
                    return int.__hash__(self)

            args = (arrays.out_adj, eng.f, arrays.cap, eng.pi, arrays.signed_cost, arrays.s,
                    arrays.t, _check_reduced_cost, 1e-9, inst.z, 0.0, sys.maxsize)
            if record:
                with pytest.raises(KeyError):
                    kernel.solve(*args, tuple(map(Node, arrays.nodes)), False, math.inf)
            else:  # a threshold just below step k's length stops before its push
                got = kernel.solve(*args, None, False, math.nextafter(lengths[k], -math.inf))
                assert got[2] == lengths[:k] and got[4] == 1
            assert repr(eng.f) == repr(list(flow.values)) and eng.pi == [0.0] * inst.n


BAD_PUSH_CALLS = [
    # an arc past the edges, below zero, or past the mask or cap
    (IndexError, "augment", {3: (1, 4)}),
    (IndexError, "augment", {3: (-1,)}),
    (IndexError, "augment", {3: (1 << 70,)}),
    (IndexError, "augment", {1: [2.0]}),
    (IndexError, "replay", {3: (2,), 2: b"\1"}),
    (IndexError, "replay", {3: (1, 5)}),
    # arcs that are not a tuple of ints, lists that are not lists, a
    # mask that is not bytes
    (TypeError, "augment", {3: [1, 2]}),
    (TypeError, "augment", {3: (1, 2.0)}),
    (TypeError, "replay", {3: (np.int64(1),)}),
    (TypeError, "augment", {0: (2.0, 0.0)}),
    (TypeError, "augment", {1: None}),
    (TypeError, "replay", {1: np.array([2.0, 3.0])}),
    (TypeError, "replay", {2: "\1\1"}),
    (TypeError, "replay", {2: [1, 1]}),
    # a number that is not an exact float, on the path's last edge or as
    # the limit: an int, a float subclass, numpy's float64. No caller
    # passes one (network._floats decides), so this is memory safety
    (TypeError, "augment", {0: [2.0, 0]}),
    (TypeError, "augment", {1: [2.0, np.float64(3.0)]}),
    (TypeError, "augment", {4: 5}),
    (TypeError, "replay", {0: [2, 0.0]}),
    (TypeError, "replay", {1: [np.float64(2.0), 3.0]}),
    (TypeError, "replay", {4: 1}),
    (TypeError, "augment", {0: [2.0, _Float(0.0)]}),
    (TypeError, "augment", {4: np.float64(5.0)}),
    (TypeError, "replay", {1: [2.0, _Float(3.0)]}),
    (TypeError, "replay", {4: np.float64(1.0)}),
]


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
@pytest.mark.parametrize("error, name, changes", BAD_PUSH_CALLS)
def test_push_entry_points_reject_bad_input(error, name, changes):
    call_rejects(error, name, changes)


BAD_SEARCH_CALLS = [
    # f or cap not a list
    (TypeError, "forward", {1: (2.0, 0.0)}),
    (TypeError, "forward", {2: None}),
    (TypeError, "reverse", {1: None}),
    (TypeError, "reverse", {2: np.array([2.0, 3.0])}),
    # f or cap too short for edge 1
    (IndexError, "forward", {1: [2.0]}),
    (IndexError, "forward", {2: [2.0]}),
    (IndexError, "reverse", {1: [2.0]}),
    (IndexError, "reverse", {2: [2.0]}),
    # an item that is not a number
    (TypeError, "forward", {1: [2.0, "0"]}),
    (TypeError, "forward", {2: [2.0, None]}),
    (TypeError, "reverse", {1: [2.0, None]}),
    (TypeError, "reverse", {2: [2.0, "3"]}),
    # an int item, which a double would round past 2^53
    (TypeError, "forward", {1: [2.0, 0]}),
    (TypeError, "reverse", {2: [2.0, 3]}),
    (TypeError, "forward", {3: [0.0, 0, 0.0]}),
    # a float subclass item, numpy's float64 included, in f, cap, pi or
    # the signed costs
    (TypeError, "forward", {1: [2.0, np.float64(0.0)]}),
    (TypeError, "reverse", {2: [_Float(2.0), 3.0]}),
    (TypeError, "forward", {3: [0.0, np.float64(0.0), 0.0]}),
    (TypeError, "reverse", {3: [0.0, _Float(0.0), 0.0]}),
    (TypeError, "forward", {4: [0.0, np.float64(-0.0), 0.0, -0.0]}),
    # an adjacency or a row that is a list, not a tuple
    (TypeError, "forward", {0: list(two_edges()[0])}),
    (TypeError, "reverse", {0: (((0, 1, 0.0),), [(1, 0, -0.0), (2, 2, 0.0)],
                                ((3, 1, -0.0),))}),
]


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
@pytest.mark.parametrize("error, name, changes", BAD_SEARCH_CALLS)
def test_search_entry_points_reject_bad_input(error, name, changes):
    call_rejects(error, name, changes)


BAD_SOLVE_CALLS = [
    # f or cap not a list, the adjacency not a tuple
    (TypeError, "solve", {1: (2.0, 0.0)}),
    (TypeError, "solve", {2: None}),
    (TypeError, "solve", {1: np.array([2.0, 0.0])}),
    (TypeError, "solve", {0: list(two_edges()[0])}),
    # an int or a float subclass item in f, cap or pi, or as a signed cost
    (TypeError, "solve", {1: [2.0, 0]}),
    (TypeError, "solve", {2: [2.0, 3]}),
    (TypeError, "solve", {1: [2.0, np.float64(0.0)]}),
    (TypeError, "solve", {2: [2.0, _Float(3.0)]}),
    (TypeError, "solve", {3: [0.0, _Float(0.0), 0.0]}),
    (TypeError, "solve", {4: [0.0, -0.0, np.float64(0.0), -0.0]}),
    # a row that is a list, not a tuple
    (TypeError, "solve", {0: (((0, 1, 0.0),), [(1, 0, -0.0), (2, 2, 0.0)],
                              ((3, 1, -0.0),))}),
    # an arc past the edges, f or cap too short, a node past the nodes,
    # a source or a sink out of range
    (IndexError, "solve", {0: (((0, 1, 0.0),), ((1, 0, -0.0), (4, 2, 0.0)),
                               ((3, 1, -0.0),))}),
    (IndexError, "solve", {1: [2.0]}),
    (IndexError, "solve", {2: [2.0]}),
    (IndexError, "solve", {3: [0.0]}),
    (IndexError, "solve", {5: 3}),
    (IndexError, "solve", {6: -1}),
    # a target, a value or a cap of the wrong type
    (TypeError, "solve", {9: "5"}),
    (TypeError, "solve", {10: None}),
    (TypeError, "solve", {11: 1.5}),
    # fewer node ids than nodes, node ids in a list, a length threshold
    # that is no number (a stop callable) or NaN
    (TypeError, "solve", {12: (0, 1)}),
    (TypeError, "solve", {12: [0, 1, 2]}),
    (TypeError, "solve", {14: lambda arcs: 1}),
    (ValueError, "solve", {14: math.nan}),
    # signed costs too few for edge 1, not a list, or with an int item
    (IndexError, "solve", {4: [0.0, -0.0]}),
    (TypeError, "solve", {4: (0.0, -0.0, 0.0, -0.0)}),
    (TypeError, "solve", {4: [0.0, -0.0, 0, -0.0]}),
]


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
@pytest.mark.parametrize("error, name, changes", BAD_SOLVE_CALLS)
def test_solve_entry_point_rejects_bad_input(error, name, changes):
    call_rejects(error, name, changes)


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_a_check_that_empties_f_fails_the_push():
    # the reduced-cost check is Python code, called here on arc 2 of
    # reduced cost -5.0; the push reads the lists' sizes after it
    _, args = kernel_calls()["solve"]
    args = list(args)
    f = args[1]
    args[3] = [0.0, 0.0, 5.0]
    args[7] = lambda *terms: f.clear()
    with pytest.raises(IndexError, match="arc index out of range"):
        _native.load().solve(*args)
    assert f == []


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_numpy_target_runs_on_the_kernel(monkeypatch):
    # the headroom float(z) - value is a float, so a numpy float64 target
    # gives the float target's steps, in floats, and the kernel serves
    # every push of the solve and of its replay
    pushes = []
    monkeypatch.setattr(solver, "push", lambda *args: pushes.append(args) or push(*args))
    binding = 0
    for seed in range(20):
        inst = random_instance(seed, capacities="real")
        z = 0.6 * inst.z
        want = run_ssp(inst, z=z)
        got = run_ssp(inst, z=np.float64(z))
        assert _Engine(inst).native is not None
        assert [(s.path_arcs, repr(s.length), repr(s.amount)) for s in got.steps] == [
            (s.path_arcs, repr(s.length), repr(s.amount)) for s in want.steps
        ]
        assert got.final_flow == want.final_flow and got.outcome is want.outcome
        assert all(type(x) is float for x in got.final_flow.values)
        assert len(trace_csv_rows(got)) == len(got.steps) + 1
        binding += got.final_flow.value == z
    assert not pushes
    assert binding > 10  # the target cuts the last step's amount


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_replay_repeats_network_push():
    # the kernel's push step and its Python mirror, in lockstep, against
    # network.push. f, cap and limits from a small set, or a residual on
    # the path or the float below it, so that a push often meets a
    # residual exactly or rounds onto a capacity (0.7 + 0.3 == 1.0, while
    # 1.0 - 0.7 != 0.3); limits above the residuals are the solve's case
    kernel = _native.load()
    rng = random.Random(0)
    values = [0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5, 1.423, 1.077]
    cut = 0
    for _ in range(2000):
        cap = [rng.choice(values[1:]) for _ in range(5)]
        f = [rng.choice([0.0, c, *values]) for c in cap]
        arcs = tuple(2 * e + rng.randrange(2) for e in rng.sample(range(5), 3))
        residuals = [f[a >> 1] if a & 1 else cap[a >> 1] - f[a >> 1] for a in arcs]
        limit = rng.choice([*values, *residuals, *(math.nextafter(r, 0.0) for r in residuals)])
        original = bytes(rng.randrange(2) for _ in range(5))
        amount = limit
        for r in residuals:  # the first one on a tie
            if r < amount:
                amount = r
        cut += amount < limit
        good = any(original[a >> 1] for a in empty_arcs(f, cap, arcs))
        mine, mirror = list(f), list(f)
        got = kernel.push_step(mine, cap, original, arcs, limit)
        assert repr(got) == repr(solver._push_step(mirror, cap, original, arcs, limit))
        assert repr(got) == repr((amount, len(push(f, cap, arcs, amount)), good))
        assert repr(mine) == repr(mirror) == repr(f)
    assert 1000 < cut < 1800  # the limit binds on the rest


def _search_outcome(inst, f, pi, record):
    """What one round of searches makes of the state (f, pi): repr of the
    sink's path, of the distances a record-mode solve records and of pi
    after it, or the text of the InternalInvariantError it raises. On the
    kernel, a solve capped at 0 (record mode: one reverse and one full
    forward search; else one search to the sink), and for the path a
    sink-stop solve capped at 1 toward the least float, which its one
    push reaches, so that no search follows it; the sink's label is final
    once it is settled, so a full search finds the same path. On the
    Python searches, in run_ssp's order. Each runs on its own copy of the
    state."""
    outcomes = []
    for native in (True, False):
        eng = _Engine(inst)
        arrays = eng.arrays
        eng.f, eng.pi = list(f), list(pi)
        try:
            if native:
                def solve(f, pi, *args):
                    return eng.native.solve(
                        arrays.out_adj, f, arrays.cap, pi, arrays.signed_cost, arrays.s,
                        arrays.t, _check_reduced_cost, REDUCED_COST_SLACK, *args, False,
                        math.inf,
                    )

                _, _, _, eng.pi, end, dists, _ = solve(
                    eng.f, eng.pi, inst.z, 0.0, 0, arrays.nodes if record else None
                )
                paths, *_ = solve(list(f), list(pi), math.ulp(0.0), 0.0, 1, None)
                assert end == (2 if paths else 0)
                got = (paths or [None])[0], dists
            else:
                to_t = eng.actual_distances_to_sink(eng.dijkstra_reverse()) if record else None
                dist, arcs = eng.dijkstra_forward(not record)
                got = arcs, [(eng.actual_distances(dist), to_t)] if record else None
            outcomes.append((repr(got), repr(eng.pi)))
        except InternalInvariantError as exc:
            outcomes.append(str(exc))
    return outcomes


def _feasible_potentials(inst, f):
    """Bellman-Ford distances from a virtual root over the arcs present
    under f, by dense node index; None when they form a negative cycle."""
    index = {v: i for i, v in enumerate(inst._arrays.nodes)}
    arcs = [(index[u], index[v], c) for _, u, v, c in residual_arcs(inst.base, f)]
    pi = [0.0] * len(index)
    for _ in range(len(index)):
        changed = False
        for u, v, c in arcs:
            if pi[u] + c < pi[v]:
                pi[v] = pi[u] + c
                changed = True
        if not changed:
            return pi
    return None


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_searches_agree_on_arbitrary_states(monkeypatch):
    # both searches of both backends, through the kernel's solve capped
    # at 0, from states that no solve reaches: flows at 0, at the
    # capacity or in between, and costs on a coarse grid, so that labels
    # tie in (dist, hops). Feasible potentials give the same distances,
    # paths and raised pi; random ones raise the same reduced-cost error
    ties = []
    monkeypatch.setattr(
        solver, "_path_less", lambda *args: ties.append(args) or _path_less(*args)
    )
    rng = random.Random(0)
    feasible = raised = 0
    for seed in range(40):
        inst = random_instance(seed, n=8, m=20, capacities="real" if seed % 2 else "int")
        net, step = inst.base, (0.25, 0.5, 1.0)[seed % 3]
        for e, edge in enumerate(net.edges):
            if net.is_original(e):
                net = net.with_edge_cost(e, edge.cost // step * step)
        inst = TransformedNetwork(net, inst.source, inst.sink, inst.z)
        assert _Engine(inst).native is not None
        for _ in range(20):
            f = [rng.choice([0.0, e.capacity, e.capacity / 2]) for e in net.edges]
            pi = _feasible_potentials(inst, f)
            if pi is not None:
                for record in (False, True):
                    native, python = _search_outcome(inst, f, pi, record)
                    assert native == python and not isinstance(native, str)
                    feasible += 1
            pi = [rng.randrange(-8, 9) * step for _ in inst._arrays.nodes]
            for record in (False, True):
                native, python = _search_outcome(inst, f, pi, record)
                assert native == python
                raised += isinstance(native, str)
    assert feasible > 500 and raised > 1300
    assert len(ties) > 1000  # ties in (dist, hops), settled by arc sequence


def mixed_magnitude_instance(seed, n=12, m=40):
    """Real capacities and costs of three magnitudes, 2^40, 1 and 1e-12
    times a uniform draw, so that the lengths of paths with backward arcs
    cancel their large costs and keep the small ones."""
    topo = random_topology(n, m, "erdos", seed, capacities="real")
    rng = random.Random(seed)
    scales = (2.0**40, 1.0, 1e-12)
    edges = [Edge(u, v, cap, rng.choice(scales) * rng.random()) for u, v, cap in topo.edges]
    return transform(FlowNetwork(edges, dict(topo.balance), topo.nodes, 2.0**40))


def half_even_instance():
    """One path of costs 2^53, 1 and 2^-30: 2^53 + 1 is a tie that the
    2^-30 breaks upward, so math.fsum gives 2^53 + 2 where a sum from the
    left gives 2^53."""
    edges = [Edge(0, 1, 1.0, 2.0**53), Edge(1, 2, 1.0, 1.0), Edge(2, 3, 1.0, 2.0**-30)]
    return transform(FlowNetwork(edges, {0: 1.0, 3: -1.0}, cost_bound=2.0**53))


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_kernel_lengths_are_math_fsum(monkeypatch):
    # each step's length is math.fsum over the path's signed costs, bit for
    # bit, whether the kernel sums it or step_loop's path_length does
    kernel = _native.load()
    solve, calls = kernel.solve, []
    monkeypatch.setattr(kernel, "solve", lambda *args: calls.append(args) or solve(*args))
    instances = [half_even_instance(), *map(mixed_magnitude_instance, range(20))]
    steps = backward = rounded = 0
    for inst in instances:
        cost = inst._arrays.signed_cost
        for native in (True, False):
            with monkeypatch.context() as patch:
                if not native:
                    patch.setattr(_native, "load", lambda: None)
                calls.clear()
                for record in (False, True):
                    for s in run_ssp(inst, record_distances=record).steps:
                        want = math.fsum(cost[a] for a in s.path_arcs)
                        assert repr(s.length) == repr(want)
                        steps += 1
                        backward += any(a & 1 for a in s.path_arcs)
                        rounded += sum(cost[a] for a in s.path_arcs) != want
                assert len(calls) == (2 if native else 0)
    assert run_ssp(instances[0]).steps[0].length == 2.0**53 + 2
    assert steps > 700 and backward > 100 and rounded > 60


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
def test_kernel_length_stop_is_strict(monkeypatch):
    # a stop at threshold x takes exactly the steps of the full solve whose
    # length is not above x: at a step's own length, at +-inf and at
    # midway_length, on the kernel as on the Python loops. A threshold
    # that no float holds steps from Python and compares exactly
    kernel = _native.load()
    solve, calls = kernel.solve, []
    monkeypatch.setattr(kernel, "solve", lambda *args: calls.append(args) or solve(*args))

    def outcome(inst, **kwargs):
        trace = run_ssp(inst, **kwargs)
        return (trace.outcome, [(s.path_arcs, repr(s.length), repr(s.amount))
                                for s in trace.steps], repr(trace.final_flow))

    stopped = 0
    for inst in [*(random_instance(seed, capacities="real") for seed in range(10)),
                 *map(mixed_magnitude_instance, range(5))]:
        full = run_ssp(inst, record_distances=False)
        lengths = [s.length for s in full.steps]
        for above in (*sorted(set(lengths)), math.inf, -math.inf, midway_length(inst)):
            taken = sum(length <= above for length in lengths)
            for record in (False, True):
                got = []
                for native in (True, False):
                    with monkeypatch.context() as patch:
                        if not native:
                            patch.setattr(_native, "load", lambda: None)
                        calls.clear()
                        got.append(outcome(inst, stop_above_length=above,
                                           record_distances=record))
                        assert len(calls) == native
                assert got[0] == got[1]
                cut = taken < len(lengths)
                want = Outcome.STOPPED_ABOVE_LENGTH if cut else full.outcome
                assert got[0][0] is want and len(got[0][1]) == taken
                stopped += cut
        # just above the middle length, and past the floats either way
        mid = Fraction(lengths[len(lengths) // 2]) + Fraction(1, 10**40)
        for above, want in ((mid, lengths[len(lengths) // 2]), (10**400, math.inf),
                            (-10**400, -math.inf)):
            calls.clear()
            assert outcome(inst, stop_above_length=above) == outcome(
                inst, stop_above_length=want)
            assert len(calls) == 1
    assert stopped > 150
