import logging
import math
import operator
import random
import shutil
import subprocess
import sysconfig
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np
import pytest

from sspflow import Edge, FlowNetwork, run_ssp, transform
from sspflow import _native, solver
from sspflow.network import empty_arcs, push
from sspflow.solver import _Engine, _check_reduced_cost, trace_csv_rows

from conftest import random_instance, two_path_network

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
        [_native._CC, *_native._FLAGS, "-Wall", "-Werror",
         f"-I{sysconfig.get_paths()['include']}",
         str(_native._SOURCE), "-o", str(tmp_path / "_search.so")],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def two_edges():
    """out_adj, f and cap of a full edge 0 from node 0 to 1 and an idle
    edge 1 from node 1 to 2, both of cost 0."""
    out_adj = [[(0, 1, 0.0)], [(1, 0, -0.0), (2, 2, 0.0)], [(3, 1, -0.0)]]
    return out_adj, [2.0, 0.0], [2.0, 3.0]


def kernel_calls():
    """The kernel entry point and arguments of each call that the bad-input
    cases change: the two searches, and the one push step as
    _Engine.augment calls it, with the headroom as its limit, and as the
    trace replay does, with a recorded amount."""
    out_adj, f, cap = two_edges()
    pi = [0.0] * 3
    return {
        # both searches read every f and cap item: forward from node 1,
        # reverse into node 2
        "forward": ("forward", (out_adj, f, cap, pi, 1, 2, False, _check_reduced_cost, 1e-9)),
        "reverse": ("reverse", (out_adj, f, cap, pi, 2, _check_reduced_cost, 1e-9)),
        "augment": ("push_step", (f, cap, b"\1\1", (1, 2), 5.0)),
        "replay": ("push_step", (f, cap, b"\1\1", (1, 2), 1.0)),
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
    # the solve and the trace replay push through the same entry point
    names = {name for name in vars(_native.load()) if not name.startswith("__")}
    assert names == {"forward", "reverse", "push_step"}


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
    # a cost
    (TypeError, "forward", {1: [2.0, np.float64(0.0)]}),
    (TypeError, "reverse", {2: [_Float(2.0), 3.0]}),
    (TypeError, "forward", {3: [0.0, np.float64(0.0), 0.0]}),
    (TypeError, "reverse", {3: [0.0, _Float(0.0), 0.0]}),
    (TypeError, "forward", {0: [[(0, 1, 0.0)], [(1, 0, np.float64(-0.0)), (2, 2, 0.0)],
                                [(3, 1, -0.0)]]}),
]


@pytest.mark.skipif(not TOOLCHAIN, reason="no gcc or no Python.h")
@pytest.mark.parametrize("error, name, changes", BAD_SEARCH_CALLS)
def test_search_entry_points_reject_bad_input(error, name, changes):
    call_rejects(error, name, changes)


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
