"""Adversarial instance family with an exact, exponential step count.

The construction stacks three layers, every edge cost drawn uniformly
from a prescribed short interval so the family lives inside the
smoothed model at density bound phi:

* Stage 1: a bipartite gadget. Side size n, the first m (u_i, w_j)
  slots in row-major order with capacity 1 and costs in [7, 9];
  degree-matched fan edges from the stage source and into the stage
  sink with costs in [0, 1]. Solving it takes exactly m augmentations,
  every path 4 nodes long with cost in [7, 11].

* Stages 2..k (k = floor(log2 phi) - 5): each extension wraps the
  previous stage with a new source/sink pair. Two cheap feed edges
  (cost [0, 1]) and two bypass edges (cost [2^(i+3)-1, 2^(i+3)+1])
  of capacity equal to the previous stage's max flow force the solver
  to first route everything forward through the inner stage, then pull
  it all back out through the bypasses, doubling the augmentation
  count per stage: stage i needs exactly 2^(i-1) * m augmentations.

* The full instance bolts four M-node chains (M = min(n, 2^(k+3)-2))
  onto stage k. Fans of capacity N_k = 2^(k-1) * m off the global
  source and into the global sink, chain edges costed in
  [2^(k+5)-1, 2^(k+5)], and four link edges wire the chains so the
  solver replays the stage-k doubling pattern 2M times, alternating
  direction, for exactly m * 2^(k-1) * 2M augmentations in total.

The tower is one edge list. Stage i's edges are the first ones of
stage i + 1's and costs are keyed by (seed, edge index), so one draw
over the whole list costs every stage, and each stage, or the full
instance, is one network over a prefix of it.

phi must be at least 64 so that k >= 1. Requests below that fall back
to stage 1 alone (build_worstcase). verify_count solves what
build_worstcase returned, once, checks it against the prediction and
returns the trace it checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from . import _rng
from .errors import BadParams, PredictionMismatch
from .generators import bipartite_topology
from .network import Edge, FlowNetwork, TransformedNetwork
from .solver import AugmentationTrace, run_ssp


@dataclass(frozen=True)
class LowerBoundParams:
    """Family parameters: seed gadget size and the density bound."""

    side: int
    edges: int
    phi: float

    def __post_init__(self):
        if self.side < 1:
            raise BadParams(f"side must be >= 1, got {self.side}")
        if not self.side <= self.edges <= self.side**2:
            raise BadParams(
                f"edge count must lie in [side, side^2], got {self.edges}"
            )
        if not (math.isfinite(self.phi) and self.phi >= 64.0):
            raise BadParams(f"phi must be >= 64 for the full construction, got {self.phi}")

    @property
    def doubling_depth(self) -> int:
        """k: number of stacked stages."""
        return int(math.floor(math.log2(self.phi))) - 5

    @property
    def chain_length(self) -> int:
        """M: nodes per outer chain."""
        return min(self.side, 2 ** (self.doubling_depth + 3) - 2)

    def stage_max_flow(self, stage: int) -> int:
        """Max flow value (and augmentation count) of the given stage."""
        return 2 ** (stage - 1) * self.edges

    @property
    def predicted_steps(self) -> int:
        return self.stage_max_flow(self.doubling_depth) * 2 * self.chain_length

    @property
    def predicted_nodes(self) -> int:
        return 2 * self.side + 2 * self.doubling_depth + 2 + 4 * self.chain_length

    @property
    def predicted_edges(self) -> int:
        return (
            self.edges
            + 2 * self.side
            + 4 * self.doubling_depth
            - 4
            + 8 * self.chain_length
        )


@dataclass(frozen=True)
class StageInstance:
    """One stage of the doubling tower, solvable on its own."""

    instance: TransformedNetwork
    stage: int
    roles: Mapping[int, str]

    @property
    def predicted_steps(self) -> int:
        """2^(stage-1) * edges: the stage's flow value z, one unit per step."""
        return int(self.instance.z)


@dataclass(frozen=True)
class HardInstance:
    """The full chained construction."""

    instance: TransformedNetwork
    params: LowerBoundParams
    roles: Mapping[int, str]
    core_source: int  # deepest stage's source
    core_sink: int
    fan_a: tuple[int, ...]
    fan_b: tuple[int, ...]
    fan_c: tuple[int, ...]
    fan_d: tuple[int, ...]

    @property
    def predicted_steps(self) -> int:
        return self.params.predicted_steps


def _tower(side: int, edges: int, stages: int):
    """Rows (tail, head, capacity, lo, hi) of stages 1..stages in edge
    index order, the role of each node (node v is names[v]) and each
    stage's (source, sink, edge count): stage i is the first count rows.
    """
    topo = bipartite_topology(side, edges)
    rows = [
        (a, b, cap, *((7.0, 9.0) if e < edges else (0.0, 1.0)))
        for e, (a, b, cap) in enumerate(topo.edges)
    ]
    names = ["s1", *(f"u{i + 1}" for i in range(side)),
             *(f"w{j + 1}" for j in range(side)), "t1"]
    ends = [(0, len(names) - 1, len(rows))]
    for i in range(1, stages):
        src, snk, _ = ends[-1]
        s_new, t_new = len(names), len(names) + 1
        cap = float(2 ** (i - 1) * edges)
        lo, hi = 2.0 ** (i + 3) - 1.0, 2.0 ** (i + 3) + 1.0
        rows += [
            (s_new, src, cap, 0.0, 1.0),
            (snk, t_new, cap, 0.0, 1.0),
            (s_new, snk, cap, lo, hi),
            (src, t_new, cap, lo, hi),
        ]
        names += [f"s{i + 1}", f"t{i + 1}"]
        ends.append((s_new, t_new, len(rows)))
    return rows, names, ends


def _costed(seed: int, rows) -> list[Edge]:
    """Edges for rows that take the edge indices 0, 1, ...; each cost is
    drawn from [lo, hi) in one keyed draw."""
    draws = _rng.randoms(seed, _rng.COSTS, 0, len(rows))
    return [
        Edge(tail, head, cap, lo + (hi - lo) * u)
        for (tail, head, cap, lo, hi), u in zip(rows, draws)
    ]


def _stages(side: int, edges: int, stages: int, seed: int,
            phi: float = math.inf) -> list[StageInstance]:
    """Stages 1..stages; stage i's cost bound is min(phi, 2^(i+4))."""
    rows, names, ends = _tower(side, edges, stages)
    edge_list = _costed(seed, rows)
    out = []
    for i, (s, t, count) in enumerate(ends, start=1):
        z = float(2 ** (i - 1) * edges)
        net = FlowNetwork(edge_list[:count], {s: z, t: -z}, range(t + 1),
                          cost_bound=min(phi, 2.0 ** (i + 4)))
        out.append(StageInstance(
            instance=TransformedNetwork(net, s, t, z),
            stage=i,
            roles=dict(enumerate(names[:t + 1])),
        ))
    return out


def stage_sequence(side: int, edges: int, stages: int, seed: int) -> list[StageInstance]:
    """Stages 1..stages built over one seed. Stage 1 is the bipartite
    seed gadget, with exactly `edges` augmentations; stage i + 1 wraps
    stage i and doubles its step count to 2^i * edges."""
    return _stages(side, edges, stages, seed)


def build_hard_instance(params: LowerBoundParams, seed: int) -> HardInstance:
    """The full construction at the given parameters."""
    k = params.doubling_depth
    m_count = params.chain_length
    n_k = params.stage_max_flow(k)
    rows, names, ends = _tower(params.side, params.edges, k)
    core_source, core_sink, _ = ends[-1]

    chain_a, chain_b, chain_c, chain_d = (
        tuple(range(len(names) + j * m_count, len(names) + (j + 1) * m_count))
        for j in range(4)
    )
    s = chain_d[-1] + 1
    t = s + 1

    inf_cap = 4.0 * m_count * n_k + 1.0
    fan_cap = float(n_k)
    far = (2.0 ** (k + 5) - 1.0, 2.0 ** (k + 5))
    near = (2.0 ** (k + 4) - 1.0, 2.0 ** (k + 4))

    def add(tail, head, capacity, band, inward):
        if not inward:
            tail, head = head, tail
        rows.append((tail, head, capacity, *band))

    # (chain, walks towards the core, core end, link band). Inward chains
    # A and B walk down x_i -> ... -> x_1 -> core end, fed from s; outward
    # chains C and D walk up core end -> x_1 -> ... -> x_i, drained into t.
    for label, chain, inward, end, link_band in (
        ("a", chain_a, True, core_source, near),
        ("b", chain_b, True, core_sink, far),
        ("c", chain_c, False, core_source, far),
        ("d", chain_d, False, core_sink, near),
    ):
        for i in range(1, m_count):
            add(chain[i], chain[i - 1], inf_cap, far, inward)
        for v in chain:
            add(s if inward else t, v, fan_cap, (0.0, 1.0), inward)
        add(chain[0], end, inf_cap, link_band, inward)
        names += [f"{label}{i + 1}" for i in range(m_count)]
    names += ["s", "t"]

    z = 2.0 * m_count * n_k
    full = FlowNetwork(_costed(seed, rows), {s: z, t: -z}, range(t + 1),
                       cost_bound=params.phi)
    instance = TransformedNetwork(full, s, t, z)

    if instance.n != params.predicted_nodes or instance.m != params.predicted_edges:
        raise PredictionMismatch(
            f"construction size {instance.n}/{instance.m} differs from "
            f"predicted {params.predicted_nodes}/{params.predicted_edges}"
        )
    return HardInstance(
        instance=instance,
        params=params,
        roles=dict(enumerate(names)),
        core_source=core_source,
        core_sink=core_sink,
        fan_a=chain_a,
        fan_b=chain_b,
        fan_c=chain_c,
        fan_d=chain_d,
    )


def build_worstcase(side: int, edges: int, phi: float, seed: int):
    """HardInstance when phi permits (>= 64), stage 1 alone otherwise.

    The fallback declares the seed gadget's cost bound as min(phi, 32)
    so the result stays inside the requested density class; gadget
    costs reach 11, so phi below 12 leaves no room for it.
    """
    if phi >= 64.0:
        return build_hard_instance(LowerBoundParams(side, edges, phi), seed)
    if phi < 12.0:
        raise BadParams(
            f"no worst-case family below density bound 12, got {phi}"
        )
    return _stages(side, edges, 1, seed, phi)[0]


# ---------------------------------------------------------------------------
# Verification

def _phase_window(k: int, i: int, parity: int) -> tuple[float, float]:
    """Admissible path-cost window for phase i (1-based)."""
    if parity == 0:
        alpha = 2.0 ** (k + 5) * i - 2.0 ** (k + 4) - i
        return 2 * alpha + 7, 2 * alpha + 2 * (i + 1) + 2.0 ** (k + 3) - 5
    beta = 2.0 ** (k + 5) * i - i
    return 2 * beta - (2.0 ** (k + 3) - 5), 2 * beta + 2 * (i + 1) - 7


def verify_count(built: HardInstance | StageInstance) -> AugmentationTrace:
    """Solve a build_worstcase result once and check it behaves as predicted.

    Checks the exact augmentation count. For a HardInstance it then
    checks, step by step: unit amounts; phase structure (which chain the
    path enters and leaves through, and the direction it traverses the
    core); per-phase path-cost windows; and strictly increasing path
    lengths, so an exact tie fails too. Any divergence raises
    PredictionMismatch naming the first offending step. Returns the
    trace it checked.
    """
    trace = run_ssp(built.instance, record_distances=False)
    observed = len(trace.steps)
    if observed != built.predicted_steps:
        raise PredictionMismatch(
            f"observed {observed} augmentations, predicted {built.predicted_steps}; "
            f"first divergence at step {min(observed, built.predicted_steps) + 1}"
        )
    if isinstance(built, StageInstance):
        return trace

    k = built.params.doubling_depth
    n_k = built.params.stage_max_flow(k)
    source = built.instance.source
    # Node each arc enters: arc 2e runs along edge e, arc 2e + 1 against it.
    head = [v for e in built.instance.base.edges for v in (e.head, e.tail)]
    previous = -math.inf
    for j, step in enumerate(trace.steps):
        block = j // n_k
        phase = block // 2  # 0-based
        parity = block % 2
        i = phase + 1
        if step.amount != 1.0:
            raise PredictionMismatch(
                f"step {step.index}: amount {step.amount}, predicted 1.0"
            )
        nodes = [source, *map(head.__getitem__, step.path_arcs)]
        second, penult = nodes[1], nodes[-2]
        if parity == 0:
            want_in, want_out = built.fan_a[phase], built.fan_d[phase]
        else:
            want_in, want_out = built.fan_b[phase], built.fan_c[phase]
        if second != want_in or penult != want_out:
            raise PredictionMismatch(
                f"step {step.index}: path enters {built.roles.get(second)} and "
                f"leaves {built.roles.get(penult)}, predicted "
                f"{built.roles.get(want_in)}/{built.roles.get(want_out)}"
            )
        if built.core_source not in nodes or built.core_sink not in nodes:
            raise PredictionMismatch(
                f"step {step.index}: path bypasses the core stage"
            )
        pos_src = nodes.index(built.core_source)
        pos_snk = nodes.index(built.core_sink)
        if parity == 0 and not pos_src < pos_snk:
            raise PredictionMismatch(
                f"step {step.index}: core traversed backwards in a forward phase"
            )
        if parity == 1 and not pos_snk < pos_src:
            raise PredictionMismatch(
                f"step {step.index}: core traversed forwards in a backward phase"
            )
        lo, hi = _phase_window(k, i, parity)
        if not lo <= step.length <= hi:
            raise PredictionMismatch(
                f"step {step.index}: length {step.length} outside "
                f"[{lo}, {hi}] for phase {i} parity {parity}"
            )
        if not step.length > previous:
            raise PredictionMismatch(
                f"step {step.index}: length {step.length} does not exceed "
                f"the previous step's {previous}"
            )
        previous = step.length
    return trace
