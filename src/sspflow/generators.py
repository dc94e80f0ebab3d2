"""Seeded instance generators for the perturbation laboratory.

Topology (nodes, edges, capacities, balances) is chosen adversarially
and deterministically; only edge costs are random. Each edge e draws
its cost uniformly from an interval I_e whose length is at least
1/phi (unit-range convention, intervals inside [0,1]) or at least 1
(phi-range convention, intervals inside [0,phi]). phi = 1 forces the
uniform [0,1] distribution; larger phi lets the adversary concentrate
costs. Costs are keyed per (seed, edge index), so a cost never depends
on the order edges are visited.

The perturbed-integer model draws cost_e = k_e + U(-1, 1) for an
adversarial integer k_e in {1..C}, normalized by C+1 into [0, 1).

The random topologies (erdos, layered) read one keyed stream per seed
with bulk numpy calls; one call of size k gives the values of k scalar
calls. erdos_topology reads endpoints in blocks and may read past the
last pair it accepts, so it draws the rest from a twin stream on the
same key that first skips exactly the endpoint draws used.

The cost models build their networks in list-wide passes: one keyed
draw per model (perturbed_integer's integers and noise share one Philox
pass), one comprehension from the draws to the costs and edges, made
by network._edge, and then FlowNetwork's bulk checks, so that a bad
topology raises what the constructor raises for it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import _rng
from .errors import InfeasibleShape, InvalidInterval, ParseError
from .network import FlowNetwork, _edge

CONVENTIONS = ("unit", "phi")


@dataclass(frozen=True)
class SmoothedCostSpec:
    """Interval family for cost sampling under a density bound phi."""

    phi: float
    convention: str = "unit"
    default_interval: tuple[float, float] | None = None
    intervals: Mapping[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.phi) and self.phi >= 1.0):
            raise InvalidInterval(f"phi must be finite and >= 1, got {self.phi}")
        if self.convention not in CONVENTIONS:
            raise InvalidInterval(f"unknown convention {self.convention!r}")
        if self.default_interval is not None:
            self._validate(self.default_interval, "default interval")
        # Each interval object once (adversarial_spec shares two among all
        # edges); checked keeps the objects alive, so no id is reused.
        checked = {}
        for e, iv in self.intervals.items():
            if id(iv) not in checked:
                self._validate(iv, f"interval for edge {e}")
                checked[id(iv)] = iv

    @property
    def min_length(self) -> float:
        return 1.0 / self.phi if self.convention == "unit" else 1.0

    @property
    def cost_bound(self) -> float:
        """Top of the cost range: 1 (unit convention) or phi."""
        return 1.0 if self.convention == "unit" else self.phi

    def _validate(self, interval: tuple[float, float], what: str) -> None:
        lo, hi = interval
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInterval(f"{what}: endpoints must be finite")
        if lo < 0.0 or hi > self.cost_bound:
            raise InvalidInterval(
                f"{what}: [{lo}, {hi}] outside [0, {self.cost_bound}]"
            )
        # Densities stay below phi exactly when the interval is at least
        # the minimum length; a hair of float slack avoids rejecting
        # intervals computed as range/phi.
        if hi - lo < self.min_length * (1.0 - 1e-12):
            raise InvalidInterval(
                f"{what}: length {hi - lo} below minimum {self.min_length}"
            )

    def interval_for(self, edge_index: int) -> tuple[float, float]:
        if edge_index in self.intervals:
            return self.intervals[edge_index]
        if self.default_interval is not None:
            return self.default_interval
        return (0.0, self.cost_bound)


def parse_cost_spec(text: str) -> SmoothedCostSpec:
    """Parse the line-oriented interval-spec format."""
    phi = None
    convention = "unit"
    default_interval = None
    intervals: dict[int, tuple[float, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "phi" and len(fields) == 2:
                phi = float(fields[1])
            elif fields[0] == "convention" and len(fields) == 2:
                convention = fields[1]
            elif fields[0] == "interval" and len(fields) == 4:
                intervals[int(fields[1])] = (float(fields[2]), float(fields[3]))
            elif fields[0] == "default-interval" and len(fields) == 3:
                default_interval = (float(fields[1]), float(fields[2]))
            else:
                raise ParseError(f"unrecognized spec line {line!r}", lineno)
        except ValueError:
            raise ParseError(f"bad number in {line!r}", lineno) from None
    if phi is None:
        raise ParseError("spec file missing 'phi <value>' line")
    return SmoothedCostSpec(phi, convention, default_interval, intervals)


# ---------------------------------------------------------------------------
# Topologies

@dataclass(frozen=True)
class Topology:
    """Cost-free instance skeleton: everything the adversary fixes."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]  # (tail, head, capacity)
    balance: Mapping[int, float]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)


def _check_capacities(capacities: str) -> None:
    if capacities not in ("int", "real"):
        raise InfeasibleShape(
            f"capacities must be 'int' or 'real', got {capacities!r}"
        )


def _capacities(gen, m: int, capacities: str) -> list[float]:
    """m edge capacities in one draw: integers 1..3, or reals in [0.5, 2.5)."""
    if capacities == "int":
        return gen.integers(1, 4, size=m).astype(float).tolist()
    return (0.5 + 2.0 * gen.random(m)).tolist()


def bipartite_topology(n: int, m: int) -> Topology:
    """Two n-node tiers plus endpoints; the first m (u_i, w_j) slots
    in row-major order, unit capacities, degree-matched fan edges."""
    if n < 1 or not n <= m <= n * n:
        raise InfeasibleShape(f"bipartite needs n <= m <= n^2, got n={n}, m={m}")
    s, t = 0, 2 * n + 1
    u = [1 + i for i in range(n)]
    w = [n + 1 + j for j in range(n)]
    pairs = [(u[k // n], w[k % n]) for k in range(m)]
    outdeg = {v: 0 for v in u}
    indeg = {v: 0 for v in w}
    for a, b in pairs:
        outdeg[a] += 1
        indeg[b] += 1
    edges = [(a, b, 1.0) for a, b in pairs]
    edges += [(s, v, float(outdeg[v])) for v in u]
    edges += [(v, t, float(indeg[v])) for v in w]
    balance = {s: float(m), t: -float(m)}
    return Topology(tuple([s] + u + w + [t]), tuple(edges), balance)


def erdos_topology(
    n: int, m: int, seed: int, capacities: str = "int"
) -> Topology:
    """m directed edges over n nodes, no duplicates or 2-cycles."""
    _check_capacities(capacities)
    if n < 2 or m < 1:
        raise InfeasibleShape(f"need n >= 2 and m >= 1, got n={n}, m={m}")
    if m > n * (n - 1) // 2:
        raise InfeasibleShape(
            f"m={m} exceeds the 2-cycle-free maximum {n * (n - 1) // 2} for n={n}"
        )
    gen = _rng.stream(seed, _rng.TOPOLOGY)
    chosen: list[tuple[int, int]] = []
    taken = set()
    used = 0
    while len(chosen) < m:
        # A drawn pair is new with probability free / n^2, so a block
        # holds about the pairs still needed; those past the last
        # accepted pair go unused.
        free = n * (n - 1) - 2 * len(chosen)
        ends = gen.integers(0, n, size=2 * ((m - len(chosen)) * n * n // free + 8))
        pairs = iter(ends.tolist())
        for a, b in zip(pairs, pairs):
            used += 2
            if a == b or (a, b) in taken or (b, a) in taken:
                continue
            taken.add((a, b))
            chosen.append((a, b))
            if len(chosen) == m:
                break
    # A twin stream on the same key skips exactly the endpoint draws, so
    # the later draws come from where one scalar draw per endpoint left off.
    gen = _rng.stream(seed, _rng.TOPOLOGY)
    gen.integers(0, n, size=used)
    caps = _capacities(gen, m, capacities)
    edges = [(a, b, c) for (a, b), c in zip(chosen, caps)]

    k = max(1, n // 3)
    order = gen.permutation(n).tolist()
    supply_nodes = order[:k]
    demand_nodes = order[k : 2 * k]
    balance = {v: 0.0 for v in range(n)}
    if capacities == "int":
        supplies = gen.integers(1, 4, size=k).astype(float).tolist()
    else:
        supplies = (0.5 + gen.random(k)).tolist()
    total = math.fsum(supplies)
    for v, b in zip(supply_nodes, supplies):
        balance[v] = b
    if capacities == "int":
        # spread the integer total round-robin over demand nodes
        left = int(total)
        base = left // k
        rem = left - base * k
        for j, v in enumerate(demand_nodes):
            balance[v] = -float(base + (1 if j < rem else 0))
    else:
        weights = (gen.random(k) + 0.1).tolist()
        wsum = math.fsum(weights)
        acc = 0.0
        for j, v in enumerate(demand_nodes[:-1]):
            share = total * weights[j] / wsum
            balance[v] = -share
            acc += share
        balance[demand_nodes[-1]] = -(total - acc)
    return Topology(tuple(range(n)), tuple(edges), balance)


def layered_topology(
    n: int, m: int, seed: int, layers: int = 3, capacities: str = "int"
) -> Topology:
    """Nodes in layers, edges only between consecutive layers."""
    _check_capacities(capacities)
    if layers < 2 or n < layers:
        raise InfeasibleShape(f"need at least one node per layer, n={n}, layers={layers}")
    if m < 1:
        raise InfeasibleShape(f"need m >= 1, got m={m}")
    # Node v sits in layer v % layers. Slots are numbered layer pair by
    # layer pair, each block row-major over (tail, head), and a picked
    # slot index is decoded by its block's start and divmod.
    tiers = [range(li, n, layers) for li in range(layers)]
    starts = [0]
    for li in range(layers - 1):
        starts.append(starts[-1] + len(tiers[li]) * len(tiers[li + 1]))
    if m > starts[-1]:
        raise InfeasibleShape(f"m={m} exceeds the {starts[-1]} consecutive-layer slots")
    gen = _rng.stream(seed, _rng.TOPOLOGY)
    picked_idx = sorted(gen.permutation(starts[-1])[:m].tolist())
    caps = _capacities(gen, m, capacities)
    edges = []
    for i, c in zip(picked_idx, caps):
        li = bisect_right(starts, i) - 1
        a, b = divmod(i - starts[li], len(tiers[li + 1]))
        edges.append((tiers[li][a], tiers[li + 1][b], c))

    first, last = tiers[0], tiers[-1]
    out_cap = {v: 0.0 for v in first}
    in_cap = {v: 0.0 for v in last}
    for (a, b, c) in edges:
        if a in out_cap:
            out_cap[a] += c
        if b in in_cap:
            in_cap[b] += c
    total_out = math.fsum(out_cap.values())
    total_in = math.fsum(in_cap.values())
    scale = min(1.0, total_in / total_out) if total_out > 0 else 0.0
    balance = {v: 0.0 for v in range(n)}
    acc = 0.0
    for v in first:
        balance[v] = math.floor(out_cap[v] * scale) if capacities == "int" else out_cap[v] * scale
        acc += balance[v]
    # push the matching demand onto the last tier, capped by in-capacity
    left = acc
    for v in last:
        take = min(left, in_cap[v])
        balance[v] = -take
        left -= take
        if left <= 0:
            break
    if left > 0:
        balance[last[-1]] -= left
    return Topology(tuple(range(n)), tuple(edges), balance)


def random_topology(
    n: int, m: int, shape: str, seed: int, **kwargs
) -> Topology:
    """Dispatch by shape name: bipartite | erdos | layered."""
    if shape == "bipartite":
        return bipartite_topology(n, m, **kwargs)
    if shape == "erdos":
        return erdos_topology(n, m, seed, **kwargs)
    if shape == "layered":
        return layered_topology(n, m, seed, **kwargs)
    raise InfeasibleShape(f"unknown shape {shape!r}")


# ---------------------------------------------------------------------------
# Cost sampling

def sample_costs(
    topology: Topology, spec: SmoothedCostSpec, seed: int
) -> FlowNetwork:
    """Realize a topology into a network by drawing every edge cost."""
    m = topology.m
    stray = sorted(e for e in spec.intervals if not 0 <= e < m)
    if stray:
        raise InvalidInterval(f"interval for edge {stray[0]}: no such edge in 0..{m - 1}")
    draws = _rng.randoms(seed, _rng.COSTS, 0, m)
    edges = [
        _edge(tail, head, cap, lo + (hi - lo) * u)
        for (tail, head, cap), (lo, hi), u
        in zip(topology.edges, map(spec.interval_for, range(m)), draws)
    ]
    return FlowNetwork(
        edges, dict(topology.balance), topology.nodes, spec.cost_bound
    )


def adversarial_spec(topology: Topology, phi: float) -> SmoothedCostSpec:
    """Worst-case-flavored interval choice at density bound phi, unit
    convention.

    Edges touching a supply or demand node get costs concentrated near
    0; all other edges get costs concentrated inside a narrow band, the
    pattern the exponential-family seed network uses.
    """
    width = SmoothedCostSpec(phi).min_length
    endpoints = {v for v, b in topology.balance.items() if b != 0.0}
    band_lo = min(0.7, 1.0 - width)
    near_zero, band = (0.0, width), (band_lo, band_lo + width)
    intervals = {
        e: near_zero if tail in endpoints or head in endpoints else band
        for e, (tail, head, _cap) in enumerate(topology.edges)
    }
    return SmoothedCostSpec(phi, intervals=intervals)


# ---------------------------------------------------------------------------
# Perturbed-integer model

def assign_integer_costs(topology: Topology, c_bound: int, seed: int) -> tuple[int, ...]:
    """Adversarial stand-in: keyed uniform integers in {1..C}, per edge;
    numpy draws them as int64, so C must lie in [1, 2^63 - 1]."""
    _check_integer_bound(c_bound)
    return tuple(_rng.integers(seed, _rng.INT_COSTS, topology.m, c_bound))


def _check_integer_bound(c_bound: int) -> None:
    if not 1 <= c_bound < 1 << 63:
        raise InvalidInterval(f"integer cost bound must lie in [1, 2^63 - 1], got {c_bound}")


def perturbed_integer(
    topology: Topology, c_bound: int, seed: int
) -> tuple[FlowNetwork, float]:
    """Integer costs plus uniform noise, normalized into [0, 1).

    Returns (network, scale); scale = C + 1 maps sampled costs back to
    the raw k_e + noise values. The model's effective density bound is
    (C + 1) / 2.
    """
    _check_integer_bound(c_bound)
    ints, draws = _rng.integers_and_randoms(
        seed, _rng.INT_COSTS, _rng.NOISE, topology.m, c_bound
    )
    scale = float(c_bound + 1)
    edges = [
        _edge(tail, head, cap, (k + (-1.0 + 2.0 * u)) / scale)
        for (tail, head, cap), k, u in zip(topology.edges, ints, draws)
    ]
    net = FlowNetwork(edges, dict(topology.balance), topology.nodes, 1.0)
    return net, scale


def effective_phi(model: str, phi: float) -> float:
    """Density bound entering the step-count bound for each model."""
    if model == "perturbed":
        return (phi + 1.0) / 2.0
    return phi
