"""Flow network core: networks, the single source/sink transform, residual arcs.

Conventions used throughout the package:

* Node ids are plain ints; they need not be contiguous.
* Edges are directed, identified by a stable integer index (position in
  the edge tuple). Antiparallel edge pairs and duplicate (tail, head)
  pairs are rejected, so an edge is also identified by its endpoints.
* Costs are float64 in [0, cost_bound]; cost_bound records the cost
  convention (1.0 for unit-range instances, the density bound for
  wider ranges). Auxiliary edges always cost 0.
* Residual arcs are encoded as ints: arc 2*e is the forward arc of
  edge e, arc 2*e+1 the backward arc. Forward is present iff f_e < u_e,
  backward iff f_e > 0. An arc is *empty* when it is present and its
  reverse is absent; an empty arc over a non-auxiliary edge is a
  *good* arc.

FlowNetwork validates every edge and balance it is built from. Derived
networks validate only what they change: with_edge_cost checks the new
cost, and transform the auxiliary edges, the balances {s: z, t: -z} and
the grown node count's path-length bound, each with the constructor's
own checks and messages; the rest was validated when the network it
derives from was built.

Comparisons on flow values are strict float comparisons, no epsilons:
augmentation assigns saturated values exactly, so f == 0 and f == u
stay meaningful predicates. residual_arcs (the arcs present under a
flow), push (exact saturation), empty_arcs (the empty arcs of a path)
and good_arcs (those of them on original edges) are the package's one
implementation of these rules. The solver's flat-array engine and its
compiled kernel (_search.c) inline the first as cap - f > 0 (forward)
and f > 0 (backward) over the same flow and capacity lists. Its one
push step, which serves every solve and trace replay, tests good arcs
by empty_arcs and the original-edge mask, and the kernel repeats that
test and push operation for operation. One rule, _floats, decides
where numbers leave Python arithmetic, for the kernel and the
certificate's float64 columns alike; every other number keeps its own
arithmetic in the Python loops, where push stays the kernel's oracle.

TransformedNetwork._arrays holds an instance's edges as dense-index
lists (_Arrays), built once per instance: the engine, the kernel, the
trace replay, the lemma checks' capacities and the certificate's numpy
columns (_columns) all read them, and none writes to them; its floats
flag answers _floats for the costs and capacities. An instance that
_with_edge_cost derives from another patches the other's lists where
the one cost changes them and shares the rest.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import BalanceMismatch, InfeasibleFlow, InvariantError

ORIGINAL = "original"
AUXILIARY = "aux"

# Relative tolerance for zero-sum balance checks, scaled by the total
# balance magnitude (at least 1). File input gets the same check:
# dimacs parses balances as floats.
_BALANCE_RTOL = 1e-9


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    capacity: float
    cost: float
    kind: str = ORIGINAL


@dataclass(frozen=True, slots=True)
class FlowNetwork:
    """Immutable directed network with capacities, costs and node balances.

    edges and nodes may be any iterables. Nodes are the sorted union of
    nodes, edge endpoints and balance keys; nodes missing from balance
    get balance 0.0.
    """

    edges: tuple[Edge, ...]
    balance: Mapping[int, float] = field(hash=False)
    nodes: tuple[int, ...] | None = None
    cost_bound: float = 1.0

    def __post_init__(self):
        edges = tuple(self.edges)
        cost_bound = self.cost_bound
        node_set = set(self.nodes) if self.nodes is not None else set()
        for e in edges:
            node_set.add(e.tail)
            node_set.add(e.head)
        node_set.update(self.balance)
        if not node_set:
            raise InvariantError("network has no nodes")
        if not all(isinstance(v, int) for v in node_set):
            raise InvariantError("node ids must be ints")
        if not (math.isfinite(cost_bound) and cost_bound >= 1.0):
            raise InvariantError(f"cost bound must be finite and >= 1, got {cost_bound}")
        _check_size(len(node_set), cost_bound)

        pairs: set[tuple[int, int]] = set()
        for i, e in enumerate(edges):
            _check_edge(i, e, cost_bound)
            key = (e.tail, e.head)
            if key in pairs:
                raise InvariantError(f"edge {i}: duplicate edge {key}")
            if (e.head, e.tail) in pairs:
                raise InvariantError(
                    f"edge {i}: antiparallel pair {key} forms a 2-cycle"
                )
            pairs.add(key)

        self._assign(
            edges,
            _balances(node_set, self.balance),
            tuple(sorted(node_set)),
            float(cost_bound),
        )

    def _assign(self, edges, balance, nodes, cost_bound) -> None:
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "balance", balance)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "cost_bound", cost_bound)

    @classmethod
    def _derived(cls, edges, balance, nodes, cost_bound) -> "FlowNetwork":
        """A network from parts in the form __post_init__ leaves them (an
        edge tuple, a read-only balance over every node, sorted nodes, a
        float cost bound) that the caller has validated, without
        validating them again."""
        net = object.__new__(cls)
        net._assign(edges, balance, nodes, cost_bound)
        return net

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_original(self, e: int) -> bool:
        return self.edges[e].kind == ORIGINAL

    def with_edge_cost(self, e: int, cost: float) -> "FlowNetwork":
        """Copy of this network with edge e's cost replaced. Only the new
        cost is validated, by the constructor's rules and messages."""
        if not 0 <= e < self.m:
            raise IndexError(f"edge {e} outside 0..{self.m - 1}")
        old = self.edges[e]
        edge = Edge(old.tail, old.head, old.capacity, cost, old.kind)
        _check_edge(e, edge, self.cost_bound)
        edges = self.edges[:e] + (edge,) + self.edges[e + 1:]
        return FlowNetwork._derived(edges, self.balance, self.nodes, self.cost_bound)

    def __repr__(self):
        return f"FlowNetwork(n={self.n}, m={self.m}, cost_bound={self.cost_bound})"


def _check_size(n: int, cost_bound: float) -> None:
    # n * cost_bound bounds every path length, potential and c + pi[u]
    if math.isinf(n * cost_bound):
        raise InvariantError(f"{n} nodes times cost bound {cost_bound} overflows")


def _check_edge(i: int, e: Edge, cost_bound: float) -> None:
    """The constructor's checks on edge i alone (the pair checks aside)."""
    if e.tail == e.head:
        raise InvariantError(f"edge {i}: self-loop at node {e.tail}")
    if not (math.isfinite(e.capacity) and e.capacity >= 0):
        raise InvariantError(f"edge {i}: capacity must be finite and >= 0")
    if not math.isfinite(e.cost):
        raise InvariantError(f"edge {i}: cost must be finite")
    if e.kind == AUXILIARY:
        if e.cost != 0.0:
            raise InvariantError(f"edge {i}: auxiliary edges must cost 0")
    elif e.kind == ORIGINAL:
        if not 0.0 <= e.cost <= cost_bound:
            raise InvariantError(
                f"edge {i}: cost {e.cost} outside [0, {cost_bound}]"
            )
    else:
        raise InvariantError(f"edge {i}: unknown kind {e.kind!r}")


def _balances(nodes: Iterable[int], balance: Mapping[int, float]) -> Mapping[int, float]:
    """Read-only balance of every node, 0.0 where balance names none,
    after the constructor's checks: known nodes, finite values, zero sum."""
    bal = dict.fromkeys(nodes, 0.0)
    for v, b in balance.items():
        if v not in bal:
            raise InvariantError(f"balance given for unknown node {v}")
        if not math.isfinite(b):
            raise InvariantError(f"balance at node {v} must be finite")
        bal[v] = float(b)
    try:
        total = math.fsum(bal.values())
        scale = max(1.0, math.fsum(abs(b) for b in bal.values()))
    except OverflowError:
        raise InvariantError("balance magnitudes sum past float64") from None
    if abs(total) > _BALANCE_RTOL * scale:
        raise BalanceMismatch(f"balances sum to {total}, expected 0")
    return MappingProxyType(bal)


def transform(network: FlowNetwork) -> "TransformedNetwork":
    """Reduce a b-flow instance to a single source/sink max-flow form.

    Adds a master source s with a zero-cost auxiliary edge (s, v) of
    capacity b(v) for every supply node, and a master sink t with a
    zero-cost auxiliary edge (w, t) of capacity -b(w) for every demand
    node. The target value z is the total supply. Original edges keep
    their indices; auxiliary edges follow in sorted node order.
    """
    if any(e.kind == AUXILIARY for e in network.edges):
        raise InvariantError("network already contains auxiliary edges")
    supplies = [(v, b) for v, b in sorted(network.balance.items()) if b > 0]
    demands = [(v, -b) for v, b in sorted(network.balance.items()) if b < 0]
    s = max(network.nodes) + 1
    t = s + 1
    aux = [Edge(s, v, b, 0.0, AUXILIARY) for v, b in supplies]
    aux += [Edge(v, t, b, 0.0, AUXILIARY) for v, b in demands]
    for i, edge in enumerate(aux, start=network.m):
        _check_edge(i, edge, network.cost_bound)
    z = math.fsum(b for _, b in supplies)
    nodes = network.nodes + (s, t)
    _check_size(len(nodes), network.cost_bound)
    base = FlowNetwork._derived(
        network.edges + tuple(aux),
        _balances(nodes, {s: z, t: -z}),
        nodes,
        network.cost_bound,
    )
    return TransformedNetwork(base, s, t, z)


@dataclass(frozen=True)
class TransformedNetwork:
    """Single source/sink instance: all imbalance sits on source and sink."""

    base: FlowNetwork
    source: int
    sink: int
    z: float

    def __post_init__(self):
        net = self.base
        if self.source not in net.balance or self.sink not in net.balance:
            raise InvariantError("source/sink must be nodes of the network")
        if self.source == self.sink:
            raise InvariantError("source and sink must differ")
        if not self.z >= 0:
            raise InvariantError("target value z must be nonnegative")
        scale = max(1.0, abs(self.z))
        if abs(net.balance[self.source] - self.z) > _BALANCE_RTOL * scale:
            raise InvariantError("b(source) must equal z")
        if abs(net.balance[self.sink] + self.z) > _BALANCE_RTOL * scale:
            raise InvariantError("b(sink) must equal -z")
        for v, b in net.balance.items():
            if v not in (self.source, self.sink) and b != 0.0:
                raise InvariantError(f"interior node {v} has nonzero balance {b}")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def m(self) -> int:
        return self.base.m

    @cached_property
    def _arrays(self) -> _Arrays:
        """base's edges in dense-index lists (see _Arrays), built on
        first use."""
        net = self.base
        edges = net.edges
        idx = {v: i for i, v in enumerate(net.nodes)}
        tail = [idx[e.tail] for e in edges]
        head = [idx[e.head] for e in edges]
        cost = [e.cost for e in edges]
        out_adj: list[list[tuple]] = [[] for _ in net.nodes]
        for e, (u, v, c) in enumerate(zip(tail, head, cost)):
            out_adj[u].append((2 * e, v, c))
            out_adj[v].append((2 * e + 1, u, -c))
        cap = [e.capacity for e in edges]
        return _Arrays(
            net.nodes, idx[self.source], idx[self.sink], tail, head, cost, cap,
            bytes([e.kind == ORIGINAL for e in edges]),
            out_adj, [x for c in cost for x in (c, -c)], _floats(cost) and _floats(cap),
        )

    def _with_edge_cost(self, e: int, cost: float) -> "TransformedNetwork":
        """This instance with edge e's cost replaced, validated (and
        rejected) as FlowNetwork.with_edge_cost does; the source, sink, z
        and balances are this instance's, so they are not checked again.
        Its _arrays derive from this instance's: cost, signed_cost, the
        outer out_adj list and the two rows holding arcs 2e and 2e + 1
        are copies with those entries replaced, in place, and every other
        list and row is shared (see _Arrays). Its floats flag is this
        instance's and the new cost's."""
        base = self.base.with_edge_cost(e, cost)
        arrays = self._arrays
        costs = arrays.cost.copy()
        costs[e] = cost
        signed_cost = arrays.signed_cost.copy()
        signed_cost[2 * e] = cost
        signed_cost[2 * e + 1] = -cost
        out_adj = arrays.out_adj.copy()
        u, v = arrays.tail[e], arrays.head[e]
        for row, entry in ((u, (2 * e, v, cost)), (v, (2 * e + 1, u, -cost))):
            arcs = out_adj[row] = out_adj[row].copy()
            # a row lists its arcs in increasing order, once each
            arcs[bisect_left(arcs, entry[0], key=itemgetter(0))] = entry
        # frozen: the fields and the cached _arrays go straight into __dict__
        derived = object.__new__(type(self))
        vars(derived).update(
            base=base, source=self.source, sink=self.sink, z=self.z,
            _arrays=replace(arrays, cost=costs, out_adj=out_adj, signed_cost=signed_cost,
                            floats=arrays.floats and _floats((cost,))),
        )
        return derived

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...] | None:
        """(tail, head, cost, capacity) of _arrays as numpy arrays, tails
        and heads as intp, the rest float64; built on first use. None
        exactly when _arrays.floats is False."""
        arrays = self._arrays
        if not arrays.floats:
            return None
        tail = np.array(arrays.tail, dtype=np.intp)
        head = np.array(arrays.head, dtype=np.intp)
        return tail, head, np.array(arrays.cost), np.array(arrays.cap)


@dataclass(frozen=True, slots=True)
class _Arrays:
    """A TransformedNetwork's edges by dense index, the layout that the
    solver's engine, its compiled kernel, the trace replay and the
    certificate's columns read. Nodes are indices into nodes (base.nodes)
    and edges indices into base.edges; costs and capacities keep their
    own number types.

    Read-only by contract: every solve and replay of the instance shares
    these lists, and neither network.push nor the kernel's push writes
    anything but the flow list it is given. That is what lets an instance
    derived by TransformedNetwork._with_edge_cost share every list and
    out_adj row that the new cost leaves alone with its parent's.
    """

    nodes: tuple[int, ...]
    s: int  # the source's index
    t: int  # the sink's index
    tail: list[int]  # by edge
    head: list[int]
    cost: list
    cap: list
    original: bytes  # 1 at each original edge, 0 at each auxiliary one
    # out_adj[u] lists (arc, the node it enters, signed cost) for every
    # potential residual arc leaving u, in edge order: arc 2e along edge e,
    # 2e + 1 against it
    out_adj: list[list[tuple]]
    signed_cost: list  # by arc: c for 2e, -c for 2e + 1
    floats: bool  # _floats of every cost and capacity


def _floats(numbers: Iterable) -> bool:
    """Whether every number's type is exactly float, which a C double and
    a float64 hold exactly at any size; any other type (int, bool, a
    float subclass such as numpy's float64, Fraction) is not."""
    return set(map(type, numbers)) <= {float}


def as_transformed(network: FlowNetwork, source: int, sink: int) -> TransformedNetwork:
    """Wrap a network that is already in single source/sink form."""
    return TransformedNetwork(network, source, sink, network.balance[source])


@dataclass(frozen=True)
class Flow:
    """Edge flow vector (indexed like network.edges) plus its value |f|."""

    values: tuple[float, ...]
    value: float


def check_feasible(instance: TransformedNetwork, values: tuple[float, ...]) -> float:
    """Validate capacity bounds and conservation; return the flow value."""
    net = instance.base
    if len(values) != net.m:
        raise InfeasibleFlow(f"expected {net.m} edge values, got {len(values)}")
    for e, (f, edge) in enumerate(zip(values, net.edges)):
        if not 0.0 <= f <= edge.capacity:
            raise InfeasibleFlow(
                f"edge {e}: flow {f} outside [0, {edge.capacity}]"
            )
    excess = {v: 0.0 for v in net.nodes}
    throughput = dict(excess)
    for f, edge in zip(values, net.edges):
        excess[edge.tail] -= f
        excess[edge.head] += f
        throughput[edge.tail] += abs(f)
        throughput[edge.head] += abs(f)
    for v in net.nodes:
        if v in (instance.source, instance.sink):
            continue
        if abs(excess[v]) > 1e-9 * max(1.0, throughput[v]):
            raise InfeasibleFlow(f"conservation violated at node {v}: {excess[v]}")
    return -excess[instance.source]


# ---------------------------------------------------------------------------
# Residual arcs

def push(
    f: list[float], cap: Sequence[float], arcs: Iterable[int], amount: float
) -> tuple[int, ...]:
    """Push amount along a path, updating f in place; returns the arcs
    it saturates (zero residual after the push), whose edges are
    assigned 0 or cap exactly when the residual equals the amount."""
    saturated = []
    for a in arcs:
        e = a >> 1
        if a & 1:
            if f[e] == amount:
                saturated.append(a)
                f[e] = 0.0
            else:
                f[e] -= amount
        elif cap[e] - f[e] == amount:
            saturated.append(a)
            f[e] = cap[e]
        else:
            f[e] += amount
            if f[e] == cap[e]:  # the sum rounded onto the capacity
                saturated.append(a)
    return tuple(saturated)


def empty_arcs(
    f: Sequence[float], cap: Sequence[float], arcs: Iterable[int]
) -> tuple[int, ...]:
    """Arcs of a path (so present) whose reverse is absent under f:
    forward over an idle edge, backward over a full one."""
    return tuple(
        a for a in arcs if f[a >> 1] == (cap[a >> 1] if a & 1 else 0.0)
    )


def good_arcs(
    net: FlowNetwork, f: Sequence[float], cap: Sequence[float], arcs: Iterable[int]
) -> tuple[int, ...]:
    """Empty arcs of a path under f (cap listing net's capacities) over
    original edges; the step that takes the path is good when it has one."""
    return tuple(a for a in empty_arcs(f, cap, arcs) if net.is_original(a >> 1))


def residual_arcs(net: FlowNetwork, f: Sequence[float]) -> list[tuple]:
    """(arc, tail, head, signed cost) for every residual arc present
    under flow f, in arc order: forward iff f < cap, backward iff f > 0."""
    arcs = []
    for e, edge in enumerate(net.edges):
        if f[e] < edge.capacity:
            arcs.append((2 * e, edge.tail, edge.head, edge.cost))
        if f[e] > 0.0:
            arcs.append((2 * e + 1, edge.head, edge.tail, -edge.cost))
    return arcs
