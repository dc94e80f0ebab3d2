"""Successive shortest path min-cost flow solver.

Starting from the zero flow, each iteration finds a cheapest
source-sink path in the residual network, pushes as much flow as the
path and the remaining demand allow, and repeats until the target
value z is reached or the sink becomes unreachable. Every intermediate
flow is a minimum-cost flow for its value, so path lengths never
decrease and the value-vs-cost profile is convex piecewise linear.

Shortest paths run Dijkstra over reduced costs with node potentials.
A solve that records no distances stops each search once the sink is
settled; one that records them searches the whole residual network.
Each forward search ends by raising every potential by min(dist[v], b),
where b is the distance of the last node settled: the sink's after a
stop, the largest finite one after a full search. That keeps every
residual arc's reduced cost nonnegative (see _Engine.dijkstra_forward;
asserted with a 1e-9 slack, or 1e-12 of the largest term, for float
rounding, then clamped); the worst-case family at phi = 2^20 misses the
relative slack (1.00014e-12 of the largest term) after 131,072 steps of
potential drift and exits 3. Path length is reported as the
exact-rounded sum of raw arc costs.

Ties are broken deterministically: labels are (length, arc count,
arc-index sequence), compared lexicographically, with arcs ordered by
edge index and forward before backward. A label is only ever built from
a settled one with strictly smaller (length, arc count): one more arc,
reduced costs clamped at 0, and fl(d + rc) >= d. So a heap ordered by
(dist, hops, node) settles a node only after every relaxation that can
set its label; a relaxation that ties in (dist, hops) compares arc
sequences by walking both predecessor chains back to their common node.

Ties are decided on float lengths, by design. Two routes whose exact
lengths differ by less than float resolution (1 + 2^-53 against 1)
have the same float length, so the arc sequence settles them and the
solve may take the exactly longer route. analysis.exact_check replays
a trace in exact arithmetic and flags such a step.

Every augmentation, and every step of a trace's replay, is one push
step (_push_step, or the kernel's push_step): the bottleneck under a
limit, the good-arc test (network.good_arcs' rule) under the flow
before the push, then network.push, which assigns saturated arcs
exactly (f := u or f := 0), so emptiness predicates f == 0 and f == u
remain exact. A solve's limit is its headroom, and the reached target
value equals z (a float subclass or numpy float as its float). A step's
saturated and good arcs follow from replaying the paths from the zero
flow, with each recorded amount as the limit; _replay does that once
per trace, for trace_csv_rows and for analysis.replay_flows and
classify, and raises on a recorded amount that the path cannot carry.

The searches and the push step read the instance's _arrays (network
_Arrays), built once per instance and shared, read-only, by every
solve and replay of it. The two searches, forward with its potential
raise and reverse, and the push step also exist in C, in _search.c,
which computes in doubles and repeats the Python loops float operation
for float, so traces are bit-identical with or without it. One rule,
network._floats, picks it: a solve when its instance's _Arrays.floats
holds, and a replay when every capacity and recorded amount is a float.
Inside those every number it meets is a float (the headroom z - value
is computed as a float), so no call decides again. Every other number
type (int, bool, a float subclass, Fraction) runs the Python loops and
network.push in its own arithmetic, from its own zero, c - c. _native
compiles the file with gcc on first use and caches the library in
__pycache__; when no build is possible it logs one warning and the
Python loops run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from heapq import heappop, heappush
from numbers import Rational
from typing import Iterable, Mapping, Sequence

from . import _native
from .errors import InternalInvariantError, IterationCapExceeded
from .network import Flow, TransformedNetwork, _floats, push

INF = math.inf

# Reduced costs are nonnegative in exact arithmetic; allow this much
# float rounding before declaring the potentials broken.
REDUCED_COST_SLACK = 1e-9
# Past it, a reduced cost must also fall below this many times the
# largest of |c|, |pi[u]|, |pi[v]|, which rounding grows with.
_REDUCED_COST_RTOL = 1e-12


class Outcome(str, Enum):
    REACHED_Z = "reached_z"
    MAX_FLOW_BELOW_Z = "max_flow_below_z"
    STOPPED_ABOVE_LENGTH = "stopped_above_length"


@dataclass(frozen=True)
class AugmentationStep:
    """One augmentation: the path taken, its length and the amount pushed.

    index counts from 1. path_arcs run from source to sink, arc 2e along
    edge e and arc 2e + 1 against it, so they name the path's nodes too.

    distances_from_s / distances_to_t are the shortest-path distances
    in the residual network *after* this augmentation (None when the
    solve ran with record_distances=False).
    Unreachable nodes carry math.inf.

    The arcs a step saturates and whether it is good follow from the
    replayed flows (network.good_arcs); trace_csv_rows derives both.
    """

    index: int
    path_arcs: tuple[int, ...]
    length: float
    amount: float
    flow_value_after: float
    distances_from_s: Mapping[int, float] | None = None
    distances_to_t: Mapping[int, float] | None = None


@dataclass(frozen=True)
class AugmentationTrace:
    """Full record of one solver run."""

    instance: TransformedNetwork
    steps: tuple[AugmentationStep, ...]
    outcome: Outcome
    final_flow: Flow
    initial_distances_from_s: Mapping[int, float] | None = None
    initial_distances_to_t: Mapping[int, float] | None = None
    intermediate_flows: tuple[Flow, ...] | None = None


class _Engine:
    """Mutable solver state over one transformed instance, in flat lists.

    Nodes are dense indices 0..n-1. The instance's _arrays (network
    _Arrays, built once per instance and shared by every solve and
    replay of it, read-only) give the layout:

    * out_adj[u] lists (arc, head, signed cost) for every potential
      residual arc leaving u, in edge order. Presence is re-checked at
      relax time. The reverse search reads the same lists: an entry
      (b, u, c) of out_adj[v] is arc b ^ 1 from u into v, at cost -c.
    * f, by edge, and the capacities cap are the only residual state:
      arc a over edge e = a >> 1 is absent when cap[e] - f[e] <= 0.0
      (forward) or f[e] <= 0.0 (backward), network.residual_arcs' rule
      with cap - f rounded (f < cap differs only for int capacities past
      2^53). Both Dijkstra loops and the push step's bottleneck test it
      inline.

    Besides its reference to them, arrays, the engine holds per-solve
    state only: f, pi, value, steps, zero and native.

    Reduced costs (c + pi[u]) - pi[v] are inlined into both loops with
    the same float operations, slack check and clamp everywhere. The
    forward search records each node's predecessor and predecessor arc
    (see dijkstra_forward), reads the sink's path back from them and
    raises pi for the next step; the reverse search leaves pi alone.

    augment builds the AugmentationStep record of every step, for
    run_ssp, for analysis.reference_solve, which runs this bookkeeping
    around its own path search, and for analysis.exact_check, which
    runs the whole engine over costs scaled to ints.

    native is the compiled kernel when arrays.floats holds (every cost
    and capacity is a float, network._floats, decided once per
    instance), else None. It then runs both searches and every push
    step: f holds floats from the zero flow on, since a push writes a
    float or a cap item, and augment computes the headroom as a float.
    """

    def __init__(self, instance: TransformedNetwork):
        self.arrays = arrays = instance._arrays
        cost = arrays.cost
        self.f = [0.0] * len(cost)
        self.value = 0.0
        self.steps: list[AugmentationStep] = []
        self.native = _native.load() if arrays.floats else None
        # Each number type keeps its own arithmetic from c - c (0.0 +
        # Fraction is float); for floats that is 0.0.
        self.zero = cost[0] - cost[0] if cost else 0.0
        self.pi = [self.zero] * len(arrays.nodes)

    # -- shortest paths -----------------------------------------------------

    def dijkstra_forward(self, stop_at_sink: bool):
        """Reduced distances and the sink's path from the source; raises pi.

        Returns (dist, arcs): distances indexed by dense node index, or
        None after a sink stop, whose distances nothing reads, and the arc
        sequence of the sink's path (None when the sink is unreachable).
        Let bound be the distance of the last node settled.
        With stop_at_sink the search ends when the sink is settled, whose
        label is then final, and bound is dist[sink]; nodes left
        unsettled keep tentative distances of at least bound. Otherwise
        every reachable node is settled, and bound, as nodes settle in
        nondecreasing distance, is the largest finite distance.

        The search ends by raising pi[v] by min(dist[v], bound), in one
        pass. Settled nodes move by their distance, as usual. A residual
        arc from a settled u to an unsettled v relaxed v to at most
        dist[u] + rc, so its reduced cost rc moves by dist[u] - bound >=
        -rc; an arc leaving an unsettled node moves by bound - min(...)
        >= 0. So every reduced cost stays nonnegative, before and after
        augmenting along the path, whose arcs all have reduced cost 0.
        Unreachable nodes rise by bound too: left behind, their stale
        potentials could turn reduced costs negative in the
        reverse-direction search. After a full search every reached node
        rises by exactly its distance.

        A label is (reduced dist, hops, arc sequence), compared
        lexicographically; the heap holds (dist, hops, node), and
        pred/parc hold each node's predecessor and the arc from it. Every
        relaxation comes from a settled node and builds a strictly larger
        (dist, hops), so a node's label is final when it is popped. On a
        tie in (dist, hops), _path_less compares the two arc sequences,
        and a better one updates pred/parc only: the entry
        (dist[v], hops[v], v) is already in the heap.

        With the compiled kernel, native.forward runs the same search.
        """
        arrays = self.arrays
        f, cap, out_adj = self.f, arrays.cap, arrays.out_adj
        s, t = arrays.s, arrays.t
        if self.native is not None:
            dist, arcs, self.pi = self.native.forward(
                out_adj, f, cap, self.pi, s, t, stop_at_sink,
                _check_reduced_cost, REDUCED_COST_SLACK,
            )
            return dist, arcs
        n = len(arrays.nodes)
        pi = self.pi
        dist = [INF] * n
        hops = [0] * n
        pred = [-1] * n
        parc = [-1] * n
        done = [False] * n
        stop = t if stop_at_sink else -1
        dist[s] = bound = self.zero
        heap: list = [(bound, 0, s)]
        while heap:
            # Labels only ever decrease, so the first entry popped for a
            # node carries its current label; later ones are stale.
            du, hu, u = heappop(heap)
            if done[u]:
                continue
            bound = du
            if u == stop:
                break
            done[u] = True
            hv = hu + 1
            piu = pi[u]
            for a, v, c in out_adj[u]:
                if (f[a >> 1] if a & 1 else cap[a >> 1] - f[a >> 1]) <= 0.0 or done[v]:
                    continue
                rc = (c + piu) - pi[v]
                if rc < 0.0:
                    if rc < -REDUCED_COST_SLACK:
                        _check_reduced_cost(rc, a, c, piu, pi[v])
                    rc = 0.0
                cand = du + rc
                dv = dist[v]
                if cand > dv:
                    continue
                if cand == dv and hv >= hops[v]:
                    if hv == hops[v] and _path_less(pred, parc, u, a, pred[v], parc[v]):
                        pred[v] = u
                        parc[v] = a
                    continue
                dist[v] = cand
                hops[v] = hv
                pred[v] = u
                parc[v] = a
                heappush(heap, (cand, hv, v))
        arcs = None
        v = t
        if dist[v] < INF:
            back = []
            while v != s:
                back.append(parc[v])
                v = pred[v]
            arcs = tuple(reversed(back))
        self.pi = [p + (d if d < bound else bound) for p, d in zip(pi, dist)]
        return (None if stop_at_sink else dist), arcs

    def dijkstra_reverse(self):
        """Reduced distances to the sink (reverse graph, no tie-break)."""
        arrays = self.arrays
        f, cap, out_adj, t = self.f, arrays.cap, arrays.out_adj, arrays.t
        if self.native is not None:
            return self.native.reverse(
                out_adj, f, cap, self.pi, t, _check_reduced_cost, REDUCED_COST_SLACK,
            )
        pi = self.pi
        n = len(arrays.nodes)
        dist = [INF] * n
        done = [False] * n
        dist[t] = self.zero
        heap: list = [(self.zero, t)]
        while heap:
            d, v = heappop(heap)
            if done[v]:
                continue
            done[v] = True
            piv = pi[v]
            for b, u, c in out_adj[v]:
                if (cap[b >> 1] - f[b >> 1] if b & 1 else f[b >> 1]) <= 0.0 or done[u]:
                    continue
                rc = (-c + pi[u]) - piv
                if rc < 0.0:
                    if rc < -REDUCED_COST_SLACK:
                        _check_reduced_cost(rc, b ^ 1, -c, pi[u], piv)
                    rc = 0.0
                cand = d + rc
                if cand < dist[u]:
                    dist[u] = cand
                    heappush(heap, (cand, u))
        return dist

    def actual_distances(self, dist_red: Sequence[float]) -> dict[int, float]:
        """Actual source distances by node id, after the full forward search
        that found dist_red: it raised each reached node's pi by dist_red."""
        return {
            v: (p if d < INF else INF)
            for v, p, d in zip(self.arrays.nodes, self.pi, dist_red)
        }

    def actual_distances_to_sink(self, dist_red: Sequence[float]) -> dict[int, float]:
        pit = self.pi[self.arrays.t]
        return {
            v: (d - p + pit if d < INF else INF)
            for v, p, d in zip(self.arrays.nodes, self.pi, dist_red)
        }

    # -- augmentation ---------------------------------------------------------

    def path_length(self, arcs: Iterable[int]) -> float:
        return math.fsum(map(self.arrays.signed_cost.__getitem__, arcs))

    def augment(self, arcs: tuple[int, ...], length: float, z: float) -> None:
        """Push the bottleneck amount along arcs, whose raw cost sum is
        length, and append the step's record to steps.

        The push step (the kernel's push_step, or _push_step) takes the
        headroom float(z) - value as its limit. That is a float whatever
        z is (int - float and Fraction - float round to one too), so a
        numpy float64 target keeps the kernel's numbers floats. The step
        that binds reaches z itself. A z that equals its float and is no
        Rational (a float subclass, a numpy float) is held as that float,
        which would otherwise leak into flow_value_after and the trace
        CSV; an int or a Fraction keeps its exact value and type.
        """
        step = _push_step if self.native is None else self.native.push_step
        arrays = self.arrays
        headroom = float(z) - self.value
        amount, _, _ = step(self.f, arrays.cap, arrays.original, arcs, headroom)
        if headroom == amount:
            v = float(z)
            self.value = v if v == z and not isinstance(z, Rational) else z
        else:
            self.value += amount
        self.steps.append(
            AugmentationStep(
                index=len(self.steps) + 1,
                path_arcs=arcs,
                length=length,
                amount=amount,
                flow_value_after=self.value,
            )
        )

    def snapshot(self) -> Flow:
        return Flow(tuple(self.f), self.value)


def _path_less(pred: list[int], parc: list[int], u: int, a: int, w: int, b: int) -> bool:
    """Whether the path to u then arc a precedes the path to w then arc b,
    for settled u and w at equal hops: the two agree up to the deepest
    node their predecessor chains share and differ in the arc leaving it."""
    while u != w:
        a = parc[u]
        b = parc[w]
        u = pred[u]
        w = pred[w]
    return a < b


def _check_reduced_cost(rc: float, a: int, c: float, pu: float, pv: float) -> None:
    """Raise unless rc = (c + pu) - pv, already below -REDUCED_COST_SLACK,
    is rounding relative to its terms (potentials reach 1e6 at large phi)."""
    if rc < -_REDUCED_COST_RTOL * max(abs(c), abs(pu), abs(pv)):
        raise InternalInvariantError(
            f"reduced cost {rc} on arc {a} below tolerance"
        )


def _push_step(f, cap, original, arcs, limit):
    """One push step, the kernel's push_step in the numbers' own
    arithmetic: the amount is the smallest of limit and the residuals
    along arcs under f, the first one on a tie; good is whether the path
    has an empty arc (network.empty_arcs' rule) over an edge that
    original marks, under f before the push, tested in the same loop
    with one compare per arc; then network.push of the amount.
    Returns (amount, n_saturated, good)."""
    amount = limit
    good = False
    for a in arcs:
        e = a >> 1
        fe = f[e]
        if a & 1:
            r = fe
            empty = fe == cap[e]
        else:
            r = cap[e] - fe
            empty = fe == 0.0
        if r < amount:
            amount = r
        if empty and original[e]:
            good = True
    return amount, len(push(f, cap, arcs, amount)), good


def run_ssp(
    instance: TransformedNetwork,
    *,
    z: float | None = None,
    retain_flows: bool = False,
    record_distances: bool = True,
    iteration_cap: int | None = None,
    stop_above_length: float | None = None,
) -> AugmentationTrace:
    """Run successive shortest paths; the general entry point.

    z defaults to the instance target; math.inf computes a max flow.
    stop_above_length halts before augmenting along any path strictly
    longer than the given threshold (used by flow reconstruction).
    """
    if z is None:
        z = instance.z
    if not z >= 0:  # NaN too: its residuals would never reach 0
        raise ValueError("target value must be nonnegative")
    if stop_above_length is not None and math.isnan(stop_above_length):
        raise ValueError("stop_above_length must not be NaN")
    eng = _Engine(instance)
    steps = eng.steps
    flows = [eng.snapshot()] if retain_flows else None
    initial_dist = initial_dist_to = None

    while True:
        # Without distances to record, nothing reads a search once z is
        # reached, nor a node's label once the sink's is final.
        if not record_distances and eng.value == z:
            outcome = Outcome.REACHED_Z
            break
        if record_distances:
            # First: the forward search raises pi for the next step.
            dp_act = eng.actual_distances_to_sink(eng.dijkstra_reverse())
        dist, arcs = eng.dijkstra_forward(not record_distances)
        if record_distances:
            d_act = eng.actual_distances(dist)
            if steps:
                steps[-1] = replace(
                    steps[-1], distances_from_s=d_act, distances_to_t=dp_act
                )
            else:
                initial_dist, initial_dist_to = d_act, dp_act
            if eng.value == z:
                outcome = Outcome.REACHED_Z
                break
        if arcs is None:
            outcome = Outcome.MAX_FLOW_BELOW_Z
            break
        length = eng.path_length(arcs)
        if stop_above_length is not None and length > stop_above_length:
            outcome = Outcome.STOPPED_ABOVE_LENGTH
            break
        if iteration_cap is not None and len(steps) >= iteration_cap:
            raise IterationCapExceeded(
                f"augmentation count exceeded cap {iteration_cap}"
            )
        eng.augment(arcs, length, z)
        if retain_flows:
            flows.append(eng.snapshot())

    return AugmentationTrace(
        instance=instance,
        steps=tuple(steps),
        outcome=outcome,
        final_flow=eng.snapshot(),
        initial_distances_from_s=initial_dist,
        initial_distances_to_t=initial_dist_to,
        intermediate_flows=tuple(flows) if retain_flows else None,
    )


def solve(
    instance: TransformedNetwork,
    *,
    z: float | None = None,
    retain_flows: bool = False,
    record_distances: bool = True,
    iteration_cap: int | None = None,
) -> AugmentationTrace:
    """Minimum-cost flow of value z (default: the instance target)."""
    return run_ssp(
        instance,
        z=z,
        retain_flows=retain_flows,
        record_distances=record_distances,
        iteration_cap=iteration_cap,
    )


# ---------------------------------------------------------------------------
# Value-vs-cost profile


@dataclass(frozen=True)
class CostFunction:
    """Piecewise linear convex map from flow value to minimum cost.

    breakpoints[j] = (x_j, y_j) with x_0 = 0, y_0 = 0; slopes[j] is the
    segment slope on [x_j, x_{j+1}] and equals the augmenting path
    length that built that segment.
    """

    breakpoints: tuple[tuple[float, float], ...]
    slopes: tuple[float, ...]

    def is_convex(self) -> bool:
        return all(a < b for a, b in zip(self.slopes, self.slopes[1:]))


def cost_function_from_steps(
    segments: Iterable[tuple[float, float]]
) -> CostFunction:
    """Profile from (path length, amount) pairs in augmentation order.

    Adjacent segments with equal length merge into one; a breakpoint
    appears exactly where the slope changes.
    """
    merged: list[list[float]] = []
    for length, amount in segments:
        if merged and merged[-1][0] == length:
            merged[-1][1] += amount
        else:
            merged.append([length, amount])
    points = [(0.0, 0.0)]
    slopes = []
    for length, amount in merged:
        x, y = points[-1]
        points.append((x + amount, y + length * amount))
        slopes.append(length)
    return CostFunction(tuple(points), tuple(slopes))


def cost_function(instance: TransformedNetwork) -> CostFunction:
    """Full profile of the instance, from value 0 up to the max flow."""
    trace = run_ssp(instance, z=INF, record_distances=False)
    return cost_function_from_steps((s.length, s.amount) for s in trace.steps)


# ---------------------------------------------------------------------------
# CSV emission

TRACE_CSV_HEADER = "iter,length,amount,value_after,n_saturated,good_arc"
COSTFN_CSV_HEADER = "x,y,slope_right"


def _replay(trace: AugmentationTrace):
    """Push the trace's steps again from the zero flow, as the solve did.

    Yields (step, f, n_saturated, good) per step: f is the flow list
    after the step's push, updated in place, n_saturated the number of
    arcs the push saturated, and good whether the path had good arcs
    (network.good_arcs) under the flow before it. Each step runs the
    solve's push step (the kernel's when network._floats holds for every
    capacity and recorded amount, or else _push_step in the numbers' own
    arithmetic: an int capacity enters f as an int) with the recorded
    amount as its limit.

    The replayed flows equal the solve's bit for bit, and each recorded
    amount was the smallest of the headroom and the path's residuals
    under them, so no residual falls below it. One that does marks a
    malformed trace, and raises InternalInvariantError naming the step.
    """
    arrays = trace.instance._arrays
    cap, original = arrays.cap, arrays.original
    f = [0.0] * len(cap)
    floats = _floats(cap) and _floats(s.amount for s in trace.steps)
    native = _native.load() if floats else None
    step = _push_step if native is None else native.push_step
    for s in trace.steps:
        amount, n_saturated, good = step(f, cap, original, s.path_arcs, s.amount)
        if amount < s.amount:
            raise InternalInvariantError(
                f"step {s.index}: recorded amount {s.amount!r} exceeds the path's"
                f" bottleneck {amount!r}"
            )
        yield s, f, n_saturated, good


def trace_csv_rows(trace: AugmentationTrace) -> list[str]:
    """One row per step; n_saturated and good_arc come from _replay,
    which raises InternalInvariantError on a malformed trace.

    Numbers are written by str: for a float that is its repr, which
    round-trips, and another number (an exact target, a Fraction
    amount) gets one cell without its type's name, 1/2 for
    Fraction(1, 2) and 1 for np.int64(1), where its repr could add a
    comma."""
    rows = [TRACE_CSV_HEADER]
    for s, _, n_saturated, good in _replay(trace):
        rows.append(
            f"{s.index},{s.length!s},{s.amount!s},{s.flow_value_after!s},"
            f"{n_saturated},{good:d}"
        )
    return rows


def cost_function_csv_rows(cf: CostFunction) -> list[str]:
    rows = [COSTFN_CSV_HEADER]
    for j, (x, y) in enumerate(cf.breakpoints):
        slope = repr(cf.slopes[j]) if j < len(cf.slopes) else ""
        rows.append(f"{x!r},{y!r},{slope}")
    return rows
