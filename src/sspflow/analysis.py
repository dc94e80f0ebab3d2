"""Cross-checking machinery around the solver.

Everything here re-derives facts through an independent route and
compares them against what the production solver reports:

* reference_solve: a Bellman-Ford label-correcting variant of the same
  algorithm, no potentials, no Dijkstra, same tie-break rule; only its
  path search is its own.
* verify_optimality: negative-cycle test over the residual network.
  The distances from the source recorded on the flow certify it in one
  pass: they must be feasible potentials, within the cycle slack, on
  every residual arc that leaves a labelled node. A cycle then cannot
  pass from a labelled node to an unlabelled one, costs at least -slack
  per arc among labelled nodes, and among unlabelled nodes is left to
  Bellman-Ford. A rejected arc, or no distances, falls back to a full
  Bellman-Ford. The pass runs as array operations over float64 columns
  that each instance builds once, the same float operations as the
  exact Python loop, which stays for numbers that are not floats
  (network._floats) and as the columns' test oracle.
  check_lemmas streams each flow to it as a float64 array: consecutive
  flows differ on one path's edges, so each array is the previous one
  with those entries replaced (_flow_columns).
* check_lemmas: executable structural properties of a solver trace
  (monotone distances, nondecreasing path lengths, convex profile,
  empty arcs on every path, the bad-step bound, per-step optimality,
  reversed-path optimality).
* reconstruct: recover an intermediate flow from one residual arc and
  a length threshold, never reading the arc's original cost.
* exact_check: every step replayed by the solver's engine over the
  costs scaled to exact ints; the recorded path must be the exact
  shortest one, ties settled by the same lexicographic rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    AuxiliaryArc,
    InfeasibleFlow,
    InternalInvariantError,
    NoPath,
)
from .network import (
    Flow,
    FlowNetwork,
    TransformedNetwork,
    _floats,
    empty_arcs,
    good_arcs,
    residual_arcs,
)
from .solver import (
    AugmentationTrace,
    Outcome,
    _Engine,
    _replay,
    cost_function_from_steps,
    run_ssp,
)

INF = math.inf

# Improvements smaller than this are float noise, not a negative cycle.
_CYCLE_SLACK = 1e-12
# A certificate arc may also miss by rounding relative to its terms
# (labels grow with phi on the worst-case family).
_CYCLE_RTOL = 1e-12
# Slack for inequalities that are exact in real arithmetic but pass
# through potentials or repeated summation.
_CHECK_SLACK = 1e-9
# The reversed-path check runs Bellman-Ford per step; it is skipped on
# instances with more nodes than this.
_REVERSE_PATH_NODE_LIMIT = 12
# Good arcs per step that harvest_reconstruction_cases turns into cases.
_CASE_ARCS_PER_STEP = 2


# ---------------------------------------------------------------------------
# Flow replay

def replay_flows(trace: AugmentationTrace) -> tuple[Flow, ...]:
    """f_0 .. f_N: the flows retained at solve time, or else rebuilt from
    the recorded paths and amounts by the solver's own replay, _replay,
    which pushes with network.push's exact-saturation rule, so they are
    bit-identical to the retained ones. A recorded amount that its path
    cannot carry raises InternalInvariantError.
    """
    if trace.intermediate_flows is not None:
        return trace.intermediate_flows
    flows = [Flow((0.0,) * trace.instance.m, 0.0)]
    flows += (Flow(tuple(f), s.flow_value_after) for s, f, _, _ in _replay(trace))
    return tuple(flows)


# ---------------------------------------------------------------------------
# Bellman-Ford reference solver

def _bf_labels(n_ids, arcs, source):
    """Lexicographic (dist, hops, arc seq) fixpoint by label correction.

    Candidate walks are edge-simple: a label never extends over an edge
    already on its path in either orientation. Shortest augmenting
    paths never need an edge twice (both orientations cancel), and
    allowing the reuse invites (x + c) - c rounding artifacts that
    undercut genuine simple paths.
    """
    labels = {v: (INF, 0, ()) for v in n_ids}
    labels[source] = (0.0, 0, ())
    cap_rounds = 4 * len(n_ids) + 16
    for _ in range(cap_rounds):
        changed = False
        for a, u, v, c in arcs:
            du, hu, su = labels[u]
            if du == INF:
                continue
            e = a >> 1
            if 2 * e in su or 2 * e + 1 in su:
                continue
            cand = (du + c, hu + 1, su + (a,))
            if cand < labels[v]:
                labels[v] = cand
                changed = True
        if not changed:
            return labels
    raise InternalInvariantError(
        "label correction failed to converge; negative cycle suspected"
    )


def reference_solve(
    instance: TransformedNetwork, *, z: float | None = None
) -> AugmentationTrace:
    """Same algorithm, independent search: Bellman-Ford on raw costs.

    Produces the same step sequence as solve() (paths, lengths,
    amounts) and serves as its oracle in tests. Only the path search is
    its own: it runs over network.residual_arcs of the current flow,
    while the bookkeeping (path length, bottleneck, push, flow value and
    the step record) is the solver engine's.
    """
    if z is None:
        z = instance.z
    net = instance.base
    eng = _Engine(instance)

    while True:
        if eng.value == z:
            outcome = Outcome.REACHED_Z
            break
        labels = _bf_labels(net.nodes, residual_arcs(net, eng.f), instance.source)
        dist_t, _, arcs = labels[instance.sink]
        if dist_t == INF:
            outcome = Outcome.MAX_FLOW_BELOW_Z
            break
        eng.augment(arcs, eng.path_length(arcs), z)

    return AugmentationTrace(
        instance=instance,
        steps=tuple(eng.steps),
        outcome=outcome,
        final_flow=eng.snapshot(),
    )


# ---------------------------------------------------------------------------
# Optimality

def _relax(dist: dict, arcs, slack: float) -> bool:
    """Bellman-Ford over (arc, tail, head, cost) arcs, updating dist in
    place; True iff a round changes nothing within n + 1 rounds.

    An arc relaxes only when it improves by more than slack; an INF
    label never does (INF + c is INF), so dist may start at INF.
    """
    for _ in range(len(dist) + 1):
        changed = False
        for _, u, v, c in arcs:
            if dist[u] + c < dist[v] - slack:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            return True
    return False


def verify_optimality(
    instance: TransformedNetwork,
    flow: Flow,
    dist: Mapping[int, float] | None = None,
) -> bool:
    """True iff the residual network has no negative-cost cycle.

    dist, when given, holds distances from the source recorded on this
    flow (math.inf for a node without a label). They are checked as a
    certificate in one pass over the edges: every present arc u -> v of
    cost c with a finite d[u] must satisfy d[u] + c >= d[v] - slack,
    where slack is the larger of _relax's absolute _CYCLE_SLACK and
    _CYCLE_RTOL * max(|d[u]|, |d[v]|, |c|), rounding relative to the
    terms. Bellman-Ford then runs only on the arcs whose two ends are
    unlabelled. A negative cycle is found whatever dist holds:

    * a cycle through labelled and unlabelled nodes has an arc from a
      labelled node to an unlabelled one, which fails the check;
    * a cycle through labelled nodes only costs the sum of its arcs'
      d[u] + c - d[v] (the labels telescope), each at least -slack;
    * a cycle through unlabelled nodes only is Bellman-Ford's.

    When any arc fails, a node's label is missing or is neither finite
    nor math.inf, or dist is None, the verdict is a full Bellman-Ford
    over the residual arcs, so it never rests on trusting dist. A flow
    with other than m values raises InfeasibleFlow.

    flow.values may be any sequence of m numbers: a tuple, as Flow
    holds them, a list or a numpy array. A float64 array skips numpy's
    per-item type discovery, which a tuple costs once per call;
    check_lemmas passes its flows so (_flow_columns).

    The pass is computed over the instance's cached columns (tails and
    heads as node indices, costs and capacities as float64), with the
    flow and the labels as float64 arrays: present arcs are x < cap and
    x > 0.0, the certificate test is d[u] + c < d[v] - _CYCLE_SLACK,
    the relative slack is applied only to the arcs that test flags, and
    the arcs between unlabelled nodes come back as the same tuples in
    arc order. Those are the exact loop's float operations, so the
    verdict is too while every number is a float, which float64 holds
    exactly at any size (network._floats): the costs and capacities,
    decided once per instance (_columns), the flow, unless it is a
    float64 array, and the labels, each also finite or math.inf. Any
    other number sends the pass to the exact loop, _unlabelled_arcs.
    """
    net = instance.base
    values = flow.values
    if len(values) != net.m:
        raise InfeasibleFlow(f"expected {net.m} edge values, got {len(values)}")
    if dist is not None:
        free = _free_arcs(instance, values, dist)
        if free is not None:
            labels = {}
            for _, u, v, _ in free:
                labels[u] = labels[v] = 0.0
            return _relax(labels, free, _CYCLE_SLACK)
    return _relax(
        dict.fromkeys(net.nodes, 0.0), residual_arcs(net, values), _CYCLE_SLACK
    )


def _free_arcs(instance, values, dist) -> list[tuple] | None:
    """_unlabelled_arcs(instance.base, values, dist), over the instance's
    float64 columns when every number it reads is a float (see
    verify_optimality)."""
    cols = instance._columns
    if cols is not None:
        x = _float_column(values)
        d = _float_column(list(map(dist.get, instance.base.nodes, repeat(math.nan))))
        # a NaN or -inf label fails the loop's precondition: it rejects dist
        if x is not None and d is not None and (d > -INF).all():
            return _dense_unlabelled_arcs(instance.base, cols, x, d)
    return _unlabelled_arcs(instance.base, values, dist)


def _float_column(values) -> np.ndarray | None:
    """values if they are a float64 array, else as a new one when
    network._floats holds for them, else None."""
    if type(values) is np.ndarray and values.dtype == np.float64:
        return values
    return np.array(values, dtype=np.float64) if _floats(values) else None


def _dense_unlabelled_arcs(net, cols, x, d) -> list[tuple] | None:
    """_unlabelled_arcs by array operations: x holds the flow by edge and
    d the labels by node index, both float64, which makes each test the
    same float operation as the loop's."""
    tail, head, cost, cap = cols
    du, dv = d[tail], d[head]
    fwd, bwd = x < cap, x > 0.0
    # an arc leaving an unlabelled node passes: INF + c < y is False
    for e in (fwd & (du + cost < dv - _CYCLE_SLACK)).nonzero()[0].tolist():
        if _beyond_rounding(float(du[e]), net.edges[e].cost, float(dv[e])):
            return None
    for e in (bwd & (dv - cost < du - _CYCLE_SLACK)).nonzero()[0].tolist():
        if _beyond_rounding(float(dv[e]), -net.edges[e].cost, float(du[e])):
            return None
    unlabelled = (du == INF) & (dv == INF)
    free_arc = np.empty(2 * len(x), dtype=bool)
    free_arc[0::2] = fwd & unlabelled
    free_arc[1::2] = bwd & unlabelled
    free = []
    for a in free_arc.nonzero()[0].tolist():
        edge = net.edges[a >> 1]
        if a & 1:
            free.append((a, edge.head, edge.tail, -edge.cost))
        else:
            free.append((a, edge.tail, edge.head, edge.cost))
    return free


def _unlabelled_arcs(net, values, dist) -> list[tuple] | None:
    """The residual arcs between unlabelled nodes, in arc order, or None
    when dist is no certificate for the rest (see verify_optimality).
    One exact Python comparison per arc: the route for numbers that are
    not floats, and the oracle of _free_arcs."""
    for w in net.nodes:
        x = dist.get(w, math.nan)
        if x != INF and not math.isfinite(x):
            return None
    slack = _CYCLE_SLACK
    free = []
    for e, (edge, x) in enumerate(zip(net.edges, values)):
        u, v, c = edge.tail, edge.head, edge.cost
        du, dv = dist[u], dist[v]
        if x < edge.capacity:
            if du < INF:
                if du + c < dv - slack and _beyond_rounding(du, c, dv):
                    return None
            elif dv == INF:
                free.append((2 * e, u, v, c))
        if x > 0.0:
            if dv < INF:
                if dv - c < du - slack and _beyond_rounding(dv, -c, du):
                    return None
            elif du == INF:
                free.append((2 * e + 1, v, u, -c))
    return free


def _beyond_rounding(x: float, c: float, y: float) -> bool:
    """x + c < y, already short by more than _CYCLE_SLACK, is short by
    more than rounding relative to its terms too; always so when y is
    math.inf (an arc from a labelled node to an unlabelled one)."""
    return y == INF or x + c < y - _CYCLE_RTOL * max(abs(x), abs(y), abs(c))


# ---------------------------------------------------------------------------
# Step classification

def classify(trace: AugmentationTrace) -> tuple[int, ...]:
    """Indices (from 1) of the bad steps, from the solver's replay.

    A step is good when its path has good arcs (network.good_arcs: empty
    arcs over original edges) under the flow before the step.
    """
    return tuple(s.index for s, _, _, good in _replay(trace) if not good)


# ---------------------------------------------------------------------------
# Lemma checks

@dataclass(frozen=True)
class LemmaCheck:
    check_id: str
    passed: bool
    first_violation_step: int | None = None
    detail: str = ""
    skipped: bool = False


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "SKIP" if c.skipped else ("PASS" if c.passed else "FAIL")
            where = "" if c.first_violation_step is None else f" at step {c.first_violation_step}"
            detail = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status:4s} {c.check_id}{where}{detail}")
        return "\n".join(lines)

    def as_csv_rows(self) -> list[str]:
        rows = ["lemma_id,pass,first_violation_step"]
        for c in self.checks:
            step = "" if c.first_violation_step is None else str(c.first_violation_step)
            rows.append(f"{c.check_id},{int(c.passed)},{step}")
        return rows


def _check_distance_monotonicity(trace) -> LemmaCheck:
    cid = "distance_monotonicity"
    if trace.initial_distances_from_s is None:
        return LemmaCheck(cid, True, skipped=True, detail="no recorded distances")
    seq_s = [trace.initial_distances_from_s] + [
        s.distances_from_s for s in trace.steps
    ]
    seq_t = [trace.initial_distances_to_t] + [s.distances_to_t for s in trace.steps]
    for name, snapshots in (("from_s", seq_s), ("to_t", seq_t)):
        for i in range(len(snapshots) - 1):
            prev, nxt = snapshots[i], snapshots[i + 1]
            if prev is None or nxt is None:
                continue
            scale = None
            for v, d in prev.items():
                dn = nxt[v]
                if d == INF:
                    if dn != INF:
                        return LemmaCheck(
                            cid, False, i + 1,
                            f"node {v} became reachable ({name})",
                        )
                elif dn < d - _CHECK_SLACK:
                    # distances pass through potentials as large as the
                    # largest distance, whose rounding grows with them
                    if scale is None:
                        scale = max([1.0] + [
                            abs(x) for x in (*prev.values(), *nxt.values()) if x != INF
                        ])
                    if dn < d - _CHECK_SLACK * scale:
                        return LemmaCheck(
                            cid, False, i + 1,
                            f"node {v} distance dropped {d} -> {dn} ({name})",
                        )
    return LemmaCheck(cid, True)


def _check_path_length_increase(trace) -> LemmaCheck:
    cid = "path_length_increase"
    ties = 0
    for a, b in zip(trace.steps, trace.steps[1:]):
        if b.length < a.length:
            return LemmaCheck(
                cid, False, b.index, f"length dropped {a.length} -> {b.length}"
            )
        if b.length == a.length:
            ties += 1
    detail = f"{ties} exact tie(s)" if ties else ""
    return LemmaCheck(cid, True, detail=detail)


def _check_cost_function_shape(trace) -> LemmaCheck:
    cid = "cost_function_shape"
    cf = cost_function_from_steps((s.length, s.amount) for s in trace.steps)
    for j in range(1, len(cf.slopes)):
        if cf.slopes[j] <= cf.slopes[j - 1]:
            return LemmaCheck(
                cid, False, None,
                f"slope not increasing at breakpoint {j}",
            )
    for j, (x, y) in enumerate(cf.breakpoints[1:], start=1):
        x0, y0 = cf.breakpoints[j - 1]
        if x <= x0:
            return LemmaCheck(cid, False, None, f"breakpoint {j} not advancing")
        want = y0 + cf.slopes[j - 1] * (x - x0)
        if abs(want - y) > _CHECK_SLACK * max(1.0, abs(y)):
            return LemmaCheck(cid, False, None, f"discontinuity at breakpoint {j}")
    return LemmaCheck(cid, True)


def _check_empty_arc_on_path(trace, flows) -> LemmaCheck:
    """Every path holds an empty arc under the flow before its step. An
    exact tie in path length, which the paper's noise rules out with
    probability 1, can fail it on an optimal solve (TestCsv's bad step)."""
    cid = "empty_arc_on_path"
    cap = trace.instance._arrays.cap
    for j, step in enumerate(trace.steps):
        if not empty_arcs(flows[j].values, cap, step.path_arcs):
            return LemmaCheck(cid, False, step.index, "no empty arc on path")
    return LemmaCheck(cid, True)


def _check_bad_flow_bound(trace) -> LemmaCheck:
    cid = "bad_flow_bound"
    k, n = len(classify(trace)), trace.instance.n
    if k > n:  # at most one bad step per node
        return LemmaCheck(
            cid, False, None, f"{k} bad steps exceed the node-count bound {n}"
        )
    return LemmaCheck(cid, True, detail=f"{k} bad step(s)")


def _check_no_negative_cycle(trace, flows) -> LemmaCheck:
    cid = "no_negative_cycle"
    dists = [trace.initial_distances_from_s] + [
        s.distances_from_s for s in trace.steps
    ]
    columns = _flow_columns(trace, flows)
    for j, (flow, dist, x) in enumerate(zip(flows, dists, columns)):
        if x is not None:
            flow = Flow(x, flow.value)
        if not verify_optimality(trace.instance, flow, dist):
            return LemmaCheck(
                cid, False, j if j > 0 else None,
                f"negative residual cycle at flow {j}",
            )
    return LemmaCheck(cid, True)


def _flow_columns(trace, flows):
    """Yields, for each of flows (f_0 .. f_N of trace), its values as a
    new float64 array, or None where the certificate's columns do not
    serve: the instance has none, or _float_column takes no tuple.

    Flow j + 1 differs from flow j only on the edges of step j + 1's
    path, so its array is flow j's with those entries replaced, as long
    as that is what the two tuples show: flow j + 1's tuple equals flow
    j's with the entries replaced, and each new entry is a float. Any
    other flow (a hand-built or altered trace, a list, a wrong length)
    is converted afresh by _float_column, so the certificate sees the
    same numbers either way. Only the previous flow's tuple and array
    are held."""
    steps, m = trace.steps, trace.instance.m
    if trace.instance._columns is None:
        yield from repeat(None, len(flows))
        return
    prev = x = None
    for j, flow in enumerate(flows):
        values = flow.values
        if type(values) is not tuple or len(values) != m:
            prev = x = None
            yield None
            continue
        if x is not None and j <= len(steps):
            x = _patched_column(prev, x, values, [a >> 1 for a in steps[j - 1].path_arcs])
        if x is None:
            x = _float_column(values)
        prev = values
        yield x


def _patched_column(prev, x, values, edges) -> np.ndarray | None:
    """A copy of x, the float64 array of the tuple prev, with the entries
    at edges taken from the tuple values, or None unless values is prev
    with exactly those entries replaced by floats."""
    if not all(0 <= e < len(x) for e in edges):
        return None
    new = [values[e] for e in edges]
    if not _floats(new):
        return None
    expect = list(prev)
    for e, v in zip(edges, new):
        expect[e] = v
    if tuple(expect) != values:
        return None
    x = x.copy()
    x[edges] = new
    return x


def _check_reverse_path(trace, flows) -> LemmaCheck:
    cid = "reverse_path_optimal"
    inst = trace.instance
    if inst.n > _REVERSE_PATH_NODE_LIMIT:
        return LemmaCheck(
            cid, True, skipped=True,
            detail=f"n={inst.n} above limit {_REVERSE_PATH_NODE_LIMIT}",
        )
    net = inst.base
    for j, step in enumerate(trace.steps):
        post = flows[j + 1]
        arcs = residual_arcs(net, post.values)
        present = {a for a, *_ in arcs}
        reversed_arcs = [a ^ 1 for a in reversed(step.path_arcs)]
        if any(a not in present for a in reversed_arcs):
            return LemmaCheck(cid, False, step.index, "reversed path not present")
        dist = dict.fromkeys(net.nodes, INF)
        dist[inst.sink] = 0.0
        _relax(dist, arcs, 0.0)
        best = dist[inst.source]
        if abs(best - (-step.length)) > _CHECK_SLACK * max(1.0, abs(step.length)):
            return LemmaCheck(
                cid, False, step.index,
                f"reversed path cost {-step.length} vs shortest {best}",
            )
    return LemmaCheck(cid, True)


def _check_no_backward_aux(trace) -> LemmaCheck:
    cid = "no_backward_aux_augmentation"
    net = trace.instance.base
    for step in trace.steps:
        for a in step.path_arcs:
            if (a & 1) and not net.is_original(a >> 1):
                return LemmaCheck(
                    cid, False, step.index, f"backward auxiliary arc {a} on path"
                )
    return LemmaCheck(cid, True)


def check_lemmas(trace: AugmentationTrace) -> LemmaReport:
    """Run the structural property suite against one trace."""
    flows = replay_flows(trace)
    checks = (
        _check_distance_monotonicity(trace),
        _check_path_length_increase(trace),
        _check_cost_function_shape(trace),
        _check_empty_arc_on_path(trace, flows),
        _check_bad_flow_bound(trace),
        _check_no_negative_cycle(trace, flows),
        _check_reverse_path(trace, flows),
        _check_no_backward_aux(trace),
    )
    return LemmaReport(checks)


def exact_check(trace: AugmentationTrace) -> LemmaCheck:
    """Replay every step in exact arithmetic: the recorded path must be
    the exact shortest one.

    Every cost is multiplied by scale, the lcm of the denominators of
    the costs' as_integer_ratio(), which makes each an exact int. Int
    sums and comparisons are exact, and one positive factor scales
    every path length and reduced cost alike, so it keeps every order
    and every tie. Float denominators are powers of two, so scale is
    the largest of them (a Fraction cost stays exact too). Tiny
    exponents make it large: 5e-324 is 2^-1074, so costs become ints
    of about 1,100 bits, still exact, only slower.

    The solver's own engine runs over that copy (_int_costs; capacities
    stay the trace's floats), on its Python loops in int arithmetic,
    and each step's search must return the recorded path_arcs. One
    comparison covers both an exactly shortest path and an exact tie
    settled by the lexicographic (hops, arc sequence) rule. The engine
    pushes toward math.inf: a target that binds ends the solve, so it
    cuts only the last step's amount, which no search follows. Not part
    of check_lemmas, whose report verify prints.
    """
    eng = _Engine(_int_costs(trace.instance))
    for step in trace.steps:
        _, arcs = eng.dijkstra_forward(True)
        if arcs != step.path_arcs:
            return LemmaCheck(
                "exact_shortest_path", False, step.index,
                f"exact search takes arcs {arcs or ()}",
            )
        eng.augment(arcs, step.length, INF)
    return LemmaCheck("exact_shortest_path", True)


def _int_costs(instance: TransformedNetwork) -> TransformedNetwork:
    """instance with every cost times the lcm of the costs'
    as_integer_ratio() denominators, as exact ints (see exact_check).
    The copy skips validation, and its costs pass its unscaled
    cost_bound, so it serves the replay only.
    """
    base = instance.base
    ratios = [e.cost.as_integer_ratio() for e in base.edges]
    scale = math.lcm(*(den for _, den in ratios))
    edges = tuple(
        replace(e, cost=num * (scale // den)) for e, (num, den) in zip(base.edges, ratios)
    )
    net = FlowNetwork._derived(edges, base.balance, base.nodes, base.cost_bound)
    return replace(instance, base=net)


# ---------------------------------------------------------------------------
# Flow reconstruction

def reconstruct(instance: TransformedNetwork, arc: int, threshold: float) -> Flow:
    """Recover an intermediate flow from (arc, length threshold).

    Replaces the cost of the arc's edge (cost bound if the arc is
    forward, 0 if backward), reruns the solver on the modified
    instance, and stops before augmenting along any path longer than
    the threshold. The arc's original cost is never read. The modified
    instance patches the instance's arrays where the one cost changes
    them (TransformedNetwork._with_edge_cost) instead of building its own.
    """
    e = arc >> 1
    if not 0 <= e < instance.m:
        raise ValueError(f"arc {arc} outside instance")
    if not instance.base.is_original(e):
        raise AuxiliaryArc(f"arc {arc} lies on an auxiliary edge")
    new_cost = 0.0 if arc & 1 else instance.base.cost_bound
    modified = instance._with_edge_cost(e, new_cost)
    trace = run_ssp(
        modified, stop_above_length=threshold, record_distances=False
    )
    if trace.outcome is Outcome.MAX_FLOW_BELOW_Z and not trace.steps:
        raise NoPath("modified instance has no source-sink path")
    return trace.final_flow


@dataclass(frozen=True)
class ReconstructionCase:
    """One harvested (arc, threshold, expected flow) triple."""

    arc: int
    threshold: float
    expected: Flow
    step_index: int


def harvest_reconstruction_cases(
    trace: AugmentationTrace,
) -> list[ReconstructionCase]:
    """Triples that reconstruction must recover, read off a solved trace.

    For each step i whose path has good arcs (network.good_arcs) under
    the flow before step i, that flow is recoverable from any of them
    together with any threshold in [previous length, this length).
    """
    flows = replay_flows(trace)
    net = trace.instance.base
    cap = trace.instance._arrays.cap
    cases = []
    for j, step in enumerate(trace.steps):
        lo = trace.steps[j - 1].length if j > 0 else 0.0
        hi = step.length
        if not lo < hi:
            continue
        good = good_arcs(net, flows[j].values, cap, step.path_arcs)
        thresholds = [lo, (lo + hi) / 2]
        # the float just below hi; a fixed offset such as 1e-9 rounds back
        # to hi from 2^24 up
        top = math.nextafter(hi, lo)
        if top > lo:
            thresholds.append(top)
        for a in good[:_CASE_ARCS_PER_STEP]:
            for d in thresholds:
                cases.append(ReconstructionCase(a, d, flows[j], step.index))
    return cases


def check_reconstruction(
    instance: TransformedNetwork, cases: Iterable[ReconstructionCase]
) -> list[tuple[ReconstructionCase, bool]]:
    """Run reconstruction on each case; True means exact recovery."""
    results = []
    for case in cases:
        got = reconstruct(instance, case.arc, case.threshold)
        results.append((case, got.values == case.expected.values))
    return results
