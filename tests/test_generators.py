import hashlib
import math
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from sspflow import (
    BalanceMismatch,
    Edge,
    FlowNetwork,
    InfeasibleShape,
    InvalidInterval,
    InvariantError,
    ParseError,
    SmoothedCostSpec,
    adversarial_spec,
    assign_integer_costs,
    bipartite_topology,
    effective_phi,
    erdos_topology,
    layered_topology,
    parse_cost_spec,
    perturbed_integer,
    random_topology,
    run_ssp,
    sample_costs,
    stage_sequence,
    transform,
)
from sspflow import _rng
from sspflow.generators import Topology

BAD_INTERVAL = (0.0, 0.1)


class TestBulkDraws:
    """randoms and integers equal the first draw of each scalar stream."""

    TAGS = (_rng.COSTS, _rng.NOISE, _rng.INT_COSTS)
    LAST_SEED = 2**63 - 1
    LAST_INDEX = 2**48 - 1

    def test_randoms_contiguous_keys(self):
        for seed in (0, 7, self.LAST_SEED):
            for tag in self.TAGS:
                for start in (0, 1000, self.LAST_INDEX - 40):
                    got = _rng.randoms(seed, tag, start, start + 41)
                    want = [
                        _rng.stream(seed, tag, i).random()
                        for i in range(start, start + 41)
                    ]
                    assert got == want

    def test_randoms_random_keys(self):
        gen = np.random.default_rng(11)
        for _ in range(300):
            seed = int(gen.integers(0, 2**63))
            tag = int(gen.choice(self.TAGS))
            index = int(gen.integers(0, 2**48))
            assert _rng.randoms(seed, tag, index, index + 1) == [
                _rng.stream(seed, tag, index).random()
            ]

    def test_empty_block(self):
        assert _rng.randoms(3, _rng.COSTS, 5, 5) == []
        assert _rng.integers(3, _rng.INT_COSTS, 0, 7) == []

    @pytest.mark.parametrize("c", [1, 2, 3, 17, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40])
    def test_integers(self, c):
        for seed in (0, self.LAST_SEED):
            for tag in self.TAGS:
                want = [
                    int(_rng.stream(seed, tag, i).integers(1, c + 1))
                    for i in range(200)
                ]
                assert _rng.integers(seed, tag, 200, c) == want

    @pytest.mark.parametrize("c", [1, 17, 2**31 + 1, 2**32 - 1, 2**32, 2**40])
    def test_integers_and_randoms_draw_as_two_calls(self, c):
        for seed in (0, self.LAST_SEED):
            for stop in (0, 1, 150):
                got = _rng.integers_and_randoms(seed, _rng.INT_COSTS, _rng.NOISE, stop, c)
                assert got == (_rng.integers(seed, _rng.INT_COSTS, stop, c),
                               _rng.randoms(seed, _rng.NOISE, 0, stop))
        with pytest.raises(ValueError, match="integer bound"):
            _rng.integers_and_randoms(0, _rng.INT_COSTS, _rng.NOISE, 3, 0)

    def test_first_words_rows_per_tag(self):
        got = _rng._first_words(9, (_rng.INT_COSTS, _rng.NOISE, _rng.COSTS), 5, 70)
        assert got.shape == (3, 65)
        for row, tag in zip(got, (_rng.INT_COSTS, _rng.NOISE, _rng.COSTS)):
            assert np.array_equal(row, _rng._first_words(9, tag, 5, 70))

    def test_integers_half_rejected_bound(self):
        # At c = 2^31 + 1 the 32-bit leftover falls below c for about half
        # the keys, so the scalar fallback carries about half the draws.
        c, k = 2**31 + 1, 400
        low = _rng._first_words(5, _rng.INT_COSTS, 0, k) & np.uint64(2**32 - 1)
        leftover = (low * np.uint64(c)) & np.uint64(2**32 - 1)
        assert 0.4 < float((leftover < c).mean()) < 0.6
        want = [int(_rng.stream(5, _rng.INT_COSTS, i).integers(1, c + 1)) for i in range(k)]
        assert _rng.integers(5, _rng.INT_COSTS, k, c) == want

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1, 2**64 - 1, 2**64])
    def test_seed_outside_exact_range_raises(self, seed):
        with pytest.raises(ValueError, match="seed"):
            _rng.stream(seed, _rng.COSTS, 0)
        with pytest.raises(ValueError, match="seed"):
            _rng.randoms(seed, _rng.COSTS, 0, 3)
        with pytest.raises(ValueError, match="seed"):
            _rng.integers(seed, _rng.INT_COSTS, 3, 5)

    def test_index_outside_key_space_raises(self):
        with pytest.raises(ValueError, match="index"):
            _rng.randoms(0, _rng.COSTS, self.LAST_INDEX, self.LAST_INDEX + 2)
        with pytest.raises(ValueError, match="index"):
            _rng.randoms(0, _rng.COSTS, -1, 2)


class TestSmoothedCostSpec:
    def test_phi_one_forces_full_interval(self):
        spec = SmoothedCostSpec(1.0)
        assert spec.interval_for(0) == (0.0, 1.0)
        with pytest.raises(InvalidInterval, match="below minimum"):
            SmoothedCostSpec(1.0, intervals={0: (0.2, 0.8)})

    def test_interval_length_floor_scales_with_phi(self):
        SmoothedCostSpec(10.0, intervals={0: (0.5, 0.6)})
        with pytest.raises(InvalidInterval, match="below minimum"):
            SmoothedCostSpec(10.0, intervals={0: (0.5, 0.55)})

    def test_intervals_confined_to_range(self):
        with pytest.raises(InvalidInterval, match="outside"):
            SmoothedCostSpec(10.0, intervals={0: (0.95, 1.05)})
        with pytest.raises(InvalidInterval, match="outside"):
            SmoothedCostSpec(10.0, intervals={0: (-0.1, 0.2)})

    def test_phi_range_convention(self):
        spec = SmoothedCostSpec(8.0, convention="phi")
        assert spec.min_length == 1.0
        assert spec.cost_bound == 8.0
        SmoothedCostSpec(8.0, convention="phi", intervals={0: (6.9, 8.0)})
        with pytest.raises(InvalidInterval):
            SmoothedCostSpec(8.0, convention="phi", intervals={0: (7.5, 8.0)})

    def test_phi_below_one_rejected(self):
        with pytest.raises(InvalidInterval):
            SmoothedCostSpec(0.5)

    def test_computed_interval_accepted(self):
        # exactly range/phi long, possibly one ulp short after division
        phi = 3.0
        SmoothedCostSpec(phi, intervals={0: (0.0, 1.0 / phi)})

    def test_default_interval(self):
        spec = SmoothedCostSpec(4.0, default_interval=(0.5, 0.75))
        assert spec.interval_for(123) == (0.5, 0.75)
        spec2 = SmoothedCostSpec(
            4.0, default_interval=(0.5, 0.75), intervals={3: (0.0, 0.25)}
        )
        assert spec2.interval_for(3) == (0.0, 0.25)
        assert spec2.interval_for(4) == (0.5, 0.75)


class TestSpecFile:
    def test_round_trip(self):
        spec = SmoothedCostSpec(
            12.5,
            convention="unit",
            default_interval=(0.25, 0.5),
            intervals={0: (0.0, 0.125), 5: (0.875, 1.0)},
        )
        text = (
            "phi 12.5\n"
            "convention unit\n"
            "default-interval 0.25 0.5\n"
            "interval 0 0.0 0.125\n"
            "interval 5 0.875 1.0\n"
        )
        assert parse_cost_spec(text) == spec

    def test_comments_ignored(self):
        text = "# header\nphi 2.0\n\n# more\ninterval 0 0.0 0.5\n"
        spec = parse_cost_spec(text)
        assert spec.phi == 2.0
        assert spec.interval_for(0) == (0.0, 0.5)

    def test_missing_phi(self):
        with pytest.raises(ParseError, match="phi"):
            parse_cost_spec("interval 0 0.0 1.0\n")

    def test_bad_line(self):
        with pytest.raises(ParseError):
            parse_cost_spec("phi 2.0\ninterval 0 0.0\n")


class TestSampling:
    def test_costs_inside_intervals(self):
        topo = bipartite_topology(4, 8)
        spec = SmoothedCostSpec(
            10.0, default_interval=(0.4, 0.6), intervals={0: (0.0, 0.1)}
        )
        net = sample_costs(topo, spec, seed=5)
        assert 0.0 <= net.edges[0].cost <= 0.1
        for e in range(1, net.m):
            assert 0.4 <= net.edges[e].cost <= 0.6

    def test_deterministic(self):
        topo = bipartite_topology(4, 8)
        spec = SmoothedCostSpec(2.0)
        a = sample_costs(topo, spec, seed=9)
        b = sample_costs(topo, spec, seed=9)
        assert a == b
        c = sample_costs(topo, spec, seed=10)
        assert a != c

    def test_per_edge_keying(self):
        # narrowing one edge's interval must not disturb the rest
        topo = bipartite_topology(4, 8)
        base = sample_costs(topo, SmoothedCostSpec(10.0), seed=3)
        tweaked = sample_costs(
            topo,
            SmoothedCostSpec(10.0, intervals={2: (0.0, 0.1)}),
            seed=3,
        )
        for e in range(base.m):
            if e != 2:
                assert base.edges[e].cost == tweaked.edges[e].cost

    @pytest.mark.parametrize("edge", [16, 99, -1])
    def test_interval_for_missing_edge(self, edge):
        topo = bipartite_topology(4, 8)  # edges 0..15
        sample_costs(topo, SmoothedCostSpec(2.0, intervals={15: (0.0, 0.6)}), 0)
        spec = SmoothedCostSpec(2.0, intervals={edge: (0.0, 0.6)})
        with pytest.raises(InvalidInterval, match=f"^interval for edge {edge}:"):
            sample_costs(topo, spec, seed=0)

    def test_uniformity_three_sigma(self):
        # mean of 1e5 uniform draws on [0,1]: sigma = 1/sqrt(12e5)
        k = 100_000
        draws = np.array(_rng.randoms(7, _rng.COSTS, 0, k))
        sigma = 1.0 / math.sqrt(12 * k)
        assert abs(draws.mean() - 0.5) < 3 * sigma
        # and the quarters fill evenly to within 3 sigma of a binomial
        frac = (draws < 0.25).mean()
        assert abs(frac - 0.25) < 3 * math.sqrt(0.25 * 0.75 / k)

    def test_cost_bound_follows_convention(self):
        topo = bipartite_topology(3, 6)
        unit = sample_costs(topo, SmoothedCostSpec(4.0), seed=0)
        wide = sample_costs(
            topo, SmoothedCostSpec(4.0, convention="phi"), seed=0
        )
        assert unit.cost_bound == 1.0
        assert wide.cost_bound == 4.0


BAD_TOPOLOGIES = {
    # name: (topology, (exception type, message)) from both cost models
    "self-loop": (
        Topology((0, 1, 2), ((0, 1, 1.0), (2, 2, 1.0)), {}),
        (InvariantError, "edge 1: self-loop at node 2")),
    "duplicate": (
        Topology((0, 1, 2), ((0, 1, 1.0), (1, 2, 1.0), (0, 1, 1.0)), {}),
        (InvariantError, "edge 2: duplicate edge (0, 1)")),
    "antiparallel": (
        Topology((0, 1, 2), ((0, 1, 1.0), (1, 0, 1.0)), {}),
        (InvariantError, "edge 1: antiparallel pair (1, 0) forms a 2-cycle")),
    "nan capacity": (
        Topology((0, 1, 2), ((0, 1, 1.0), (1, 2, math.nan)), {}),
        (InvariantError, "edge 1: capacity must be finite and >= 0")),
    "self-loop before huge capacity": (
        Topology((0, 1, 2), ((1, 1, 1.0), (1, 2, 10**400)), {}),
        (InvariantError, "edge 0: self-loop at node 1")),
    "short edge": (
        Topology((0, 1, 2), ((0, 1, 1.0), (1, 2)), {}),
        (ValueError, "not enough values to unpack (expected 3, got 2)")),
    "text node": (
        Topology((0, 1, "x"), ((0, 1, 1.0), (1, 2, 1.0)), {}),
        (InvariantError, "node ids must be ints")),
    "balance at a node outside nodes": (
        Topology((0, 1, 2), ((0, 1, 1.0),), {7: 1.0}),
        (BalanceMismatch, "balances sum to 1.0, expected 0")),
    "unbalanced": (
        Topology((0, 1, 2), ((0, 1, 1.0),), {0: 1.0, 1: -2.0}),
        (BalanceMismatch, "balances sum to -1.0, expected 0")),
}


def raised(fn, *args):
    """The exception fn(*args) raises, as (type, message)."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestGeneratorValidation:
    """The generators' networks pass the constructor's checks, so a bad
    topology raises what FlowNetwork raises for its first bad edge
    (recorded before the generators built from columns)."""

    @pytest.mark.parametrize("name", sorted(BAD_TOPOLOGIES))
    def test_bad_topology(self, name):
        topo, want = BAD_TOPOLOGIES[name]
        assert raised(sample_costs, topo, SmoothedCostSpec(2.0), 0) == want
        assert raised(perturbed_integer, topo, 4, 0) == want

    @pytest.mark.parametrize(
        "intervals, want",
        [
            # the same bad interval at edges 2 and 3: edge 2 comes first
            ({5: (0.0, 0.5), 2: BAD_INTERVAL, 3: BAD_INTERVAL, 0: (0.0, 0.5)},
             "interval for edge 2: length 0.1 below minimum 0.25"),
            ({5: (0.0, 0.5), 2: [0.5, 2.0], 0: [0.5, 2.0]},
             "interval for edge 2: [0.5, 2.0] outside [0, 1.0]"),
            ({5: (0.0, 0.5), 2: (math.nan, 1.0), 0: (0.0, 0.1)},
             "interval for edge 2: endpoints must be finite"),
        ],
    )
    def test_spec_names_the_first_bad_edge(self, intervals, want):
        assert raised(SmoothedCostSpec, 4.0, "unit", None, intervals) == (
            InvalidInterval, want)

    def test_spec_checks_intervals_made_on_the_fly(self):
        # a mapping that builds a new tuple per lookup, so that a freed
        # interval's id may come back for the next, bad one
        class Made(Mapping):
            def __getitem__(self, e):
                return (0.0, 0.1 if e == 40 else 0.5 + e / 1000)

            def __iter__(self):
                return iter(range(50))

            def __len__(self):
                return 50

        assert raised(SmoothedCostSpec, 4.0, "unit", None, Made()) == (
            InvalidInterval, "interval for edge 40: length 0.1 below minimum 0.25")

    def test_spec_checks_every_interval_object(self):
        # equal values, but only one of the two intervals is well formed
        good, bad = (0.0, 0.5), (0.0, 0.5, 1.0)
        SmoothedCostSpec(4.0, intervals={0: good, 1: good, 2: [0.0, 0.5]})
        assert raised(SmoothedCostSpec, 4.0, "unit", None, {0: good, 1: bad}) == (
            ValueError, "too many values to unpack (expected 2)")


def reference_sample_costs(topology, spec, seed):
    """sample_costs as one Edge(...) per edge through the full constructor."""
    draws = _rng.randoms(seed, _rng.COSTS, 0, topology.m)
    edges = []
    for e, ((tail, head, cap), u) in enumerate(zip(topology.edges, draws)):
        lo, hi = spec.interval_for(e)
        edges.append(Edge(tail, head, cap, lo + (hi - lo) * u))
    return FlowNetwork(edges, dict(topology.balance), topology.nodes, spec.cost_bound)


def reference_perturbed_integer(topology, c_bound, seed):
    """perturbed_integer with each draw made on its own, Edge(...) per
    edge, through the full constructor."""
    ints = [int(_rng.stream(seed, _rng.INT_COSTS, e).integers(1, c_bound + 1))
            for e in range(topology.m)]
    draws = [_rng.stream(seed, _rng.NOISE, e).random() for e in range(topology.m)]
    scale = float(c_bound + 1)
    edges = [
        Edge(tail, head, cap, (k + (-1.0 + 2.0 * u)) / scale)
        for (tail, head, cap), k, u in zip(topology.edges, ints, draws)
    ]
    return FlowNetwork(edges, dict(topology.balance), topology.nodes, 1.0), scale


def test_generators_match_constructor():
    count = 0
    for seed in range(40):
        n = 6 + seed % 7
        shape, m = (("erdos", 2 * n), ("layered", n))[seed % 2]
        topo = random_topology(n, m, shape, seed,
                               capacities=("int", "real")[seed // 2 % 2])
        for spec in (SmoothedCostSpec(1.0), adversarial_spec(topo, 8.0),
                     SmoothedCostSpec(3.0, "phi", (0.5, 2.0), {1: [0.0, 1.0]})):
            got = sample_costs(topo, spec, seed)
            want = reference_sample_costs(topo, spec, seed)
            assert got == want and repr(got) == repr(want)
            assert repr(got.edges) == repr(want.edges)
            assert list(got.balance.items()) == list(want.balance.items())
            count += 1
        for c_bound in (1, 5, 2**33):
            got, scale = perturbed_integer(topo, c_bound, seed)
            want, want_scale = reference_perturbed_integer(topo, c_bound, seed)
            assert repr(got.edges) == repr(want.edges) and got == want
            assert list(got.balance.items()) == list(want.balance.items())
            assert repr(scale) == repr(want_scale)
            count += 1
    assert count == 40 * 6


class TestTopologies:
    def test_bipartite_matches_seed_gadget_skeleton(self):
        topo = bipartite_topology(3, 7)
        stage = stage_sequence(3, 7, 1, seed=0)[0]
        base = stage.instance.base
        got = [(a, b, c) for a, b, c in topo.edges]
        want = [(e.tail, e.head, e.capacity) for e in base.edges]
        assert got == want

    def test_bipartite_shape_errors(self):
        with pytest.raises(InfeasibleShape):
            bipartite_topology(3, 2)  # m < n
        with pytest.raises(InfeasibleShape):
            bipartite_topology(3, 10)  # m > n^2

    def test_bipartite_builds_only_the_slots_it_keeps(self):
        # all n^2 slots of n = 600 take about 22 MB; the m kept ones 0.15 MB
        tracemalloc.start()
        try:
            bipartite_topology(600, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_bipartite_feasible_by_construction(self):
        topo = bipartite_topology(5, 13)
        net = sample_costs(topo, SmoothedCostSpec(1.0), seed=0)
        trace = run_ssp(transform(net), z=math.inf, record_distances=False)
        assert trace.final_flow.value == 13.0

    def test_erdos_no_duplicates_or_two_cycles(self):
        topo = erdos_topology(8, 14, seed=2)
        seen = set()
        for a, b, _ in topo.edges:
            assert a != b
            assert (a, b) not in seen and (b, a) not in seen
            seen.add((a, b))
        assert len(topo.edges) == 14
        assert math.fsum(topo.balance.values()) == pytest.approx(0.0)

    def test_erdos_shape_errors(self):
        with pytest.raises(InfeasibleShape):
            erdos_topology(1, 1, seed=0)
        with pytest.raises(InfeasibleShape):
            erdos_topology(4, 7, seed=0)  # above 2-cycle-free max

    def test_erdos_real_capacities(self):
        topo = erdos_topology(6, 9, seed=1, capacities="real")
        assert any(c != int(c) for _, _, c in topo.edges)
        assert math.fsum(topo.balance.values()) == pytest.approx(0.0)

    def test_layered_forward_only(self):
        layers = 3
        topo = layered_topology(9, 12, seed=4, layers=layers)
        tier = {v: v % layers for v in range(9)}
        for a, b, _ in topo.edges:
            assert tier[b] == tier[a] + 1
        assert math.fsum(topo.balance.values()) == pytest.approx(0.0)

    def test_layered_keeps_no_list_of_slots(self):
        # n = 3000 in 3 layers has 2,000,000 slots: as tuples they took
        # 145 MB; the 16 MB left are numpy's permutation of their indices
        tracemalloc.start()
        try:
            topo = layered_topology(3000, 100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(topo.edges) == 100
        assert peak < 20_000_000

    def test_layered_shape_errors(self):
        with pytest.raises(InfeasibleShape):
            layered_topology(2, 2, seed=0, layers=3)
        with pytest.raises(InfeasibleShape):
            layered_topology(6, 100, seed=0, layers=3)
        for m in (0, -3):
            with pytest.raises(InfeasibleShape, match="m >= 1"):
                layered_topology(6, m, seed=0)

    @pytest.mark.parametrize("capacities", ["bogus", "Int", "REAL", ""])
    def test_unknown_capacities_rejected(self, capacities):
        with pytest.raises(InfeasibleShape, match="'int' or 'real'"):
            erdos_topology(6, 9, seed=0, capacities=capacities)
        with pytest.raises(InfeasibleShape, match="'int' or 'real'"):
            layered_topology(9, 12, seed=0, capacities=capacities)

    def test_dispatch(self):
        assert random_topology(4, 8, "bipartite", 0) == bipartite_topology(4, 8)
        with pytest.raises(InfeasibleShape, match="unknown shape"):
            random_topology(4, 8, "star", 0)

    # every shape's builder receives the keywords, so one it lacks raises;
    # bipartite topologies have unit capacities and take none
    @pytest.mark.parametrize("shape, kwargs", [
        ("bipartite", {"capacities": "real"}),
        ("bipartite", {"bogus": 1}),
        ("erdos", {"bogus": 1}),
        ("layered", {"bogus": 1}),
    ])
    def test_dispatch_rejects_unknown_keywords(self, shape, kwargs):
        with pytest.raises(TypeError):
            random_topology(4, 8, shape, 0, **kwargs)


class TestAdversarialSpec:
    def test_valid_at_declared_phi(self):
        topo = bipartite_topology(4, 9)
        spec = adversarial_spec(topo, 25.0)
        assert spec.phi == 25.0
        # every interval exactly at the minimum length
        for e in range(topo.m):
            lo, hi = spec.interval_for(e)
            assert hi - lo == pytest.approx(1.0 / 25.0, rel=1e-12)

    def test_phi_one_degenerates_to_uniform(self):
        topo = bipartite_topology(3, 6)
        spec = adversarial_spec(topo, 1.0)
        for e in range(topo.m):
            assert spec.interval_for(e) == (0.0, 1.0)


class TestPerturbedInteger:
    def test_formula_and_range(self):
        topo = erdos_topology(7, 12, seed=3)
        c_bound = 5
        net, scale = perturbed_integer(topo, c_bound, seed=3)
        assert scale == 6.0
        ints = assign_integer_costs(topo, c_bound, seed=3)
        for e, edge in enumerate(net.edges):
            raw = edge.cost * scale
            assert abs(raw - ints[e]) < 1.0  # noise is U(-1, 1)
            assert 0.0 <= edge.cost < 1.0
        assert net.cost_bound == 1.0

    def test_integer_costs_in_range(self):
        topo = erdos_topology(7, 12, seed=0)
        ints = assign_integer_costs(topo, 4, seed=0)
        assert all(1 <= k <= 4 for k in ints)
        with pytest.raises(InvalidInterval):
            assign_integer_costs(topo, 0, seed=0)

    def test_integer_cost_bound_up_to_int64(self):
        topo = erdos_topology(7, 12, seed=0)
        ints = assign_integer_costs(topo, 2**63 - 1, seed=0)
        assert all(1 <= k < 2**63 for k in ints)
        with pytest.raises(InvalidInterval, match=r"\[1, 2\^63 - 1\]"):
            assign_integer_costs(topo, 2**63, seed=0)

    def test_effective_phi(self):
        assert effective_phi("perturbed", 5.0) == 3.0
        assert effective_phi("smoothed", 5.0) == 5.0
        assert effective_phi("lowerbound", 64.0) == 64.0


class TestStreamProperty:
    """The topology builders draw in bulk; numpy gives one size-k call the
    same values as k scalar calls on the same stream."""

    BOUNDS = [(0, 2), (0, 3), (1, 4), (0, 60), (0, 120), (0, 1000), (0, 2**31 + 1),
              (5, 2**31 + 6), (0, 2**32 - 1), (0, 2**32), (0, 2**32 + 1)]

    @pytest.mark.parametrize("lo, hi", BOUNDS)
    def test_integers_bulk_equals_scalar(self, lo, hi):
        for seed in range(40):
            k = 1 + seed % 9
            bulk = _rng.stream(seed, _rng.TOPOLOGY).integers(lo, hi, size=k)
            gen = _rng.stream(seed, _rng.TOPOLOGY)
            assert bulk.tolist() == [int(gen.integers(lo, hi)) for _ in range(k)]

    def test_random_bulk_equals_scalar(self):
        for seed in range(40):
            k = 1 + seed % 9
            bulk = _rng.stream(seed, _rng.TOPOLOGY).random(k)
            gen = _rng.stream(seed, _rng.TOPOLOGY)
            assert bulk.tolist() == [gen.random() for _ in range(k)]

    def test_half_rejected_bound(self):
        # At 2^31 + 1 values numpy's 32-bit Lemire step rejects about half
        # of the words, so a bulk call must consume the same rejections.
        gen = _rng.stream(3, _rng.TOPOLOGY)
        raw = gen.integers(0, 2**32, size=4000, dtype=np.uint64)
        leftover = (raw * np.uint64(2**31 + 1)) & np.uint64(2**32 - 1)
        assert 0.4 < float((leftover < 2**31 + 1).mean()) < 0.6
        bulk = _rng.stream(3, _rng.TOPOLOGY).integers(0, 2**31 + 1, size=500)
        gen = _rng.stream(3, _rng.TOPOLOGY)
        assert bulk.tolist() == [int(gen.integers(0, 2**31 + 1)) for _ in range(500)]

    @pytest.mark.parametrize("n", [7, 60, 120])
    def test_mixed_sequence_after_permutation(self, n):
        # The erdos builder's order: endpoints, capacities, a permutation,
        # then supplies and weights; odd counts leave half a 64-bit word
        # buffered between calls.
        for seed in range(20):
            bulk = _rng.stream(seed, _rng.TOPOLOGY)
            scalar = _rng.stream(seed, _rng.TOPOLOGY)
            k = 3 + seed % 4
            assert bulk.integers(0, n, size=2 * k + 1).tolist() == [
                int(scalar.integers(0, n)) for _ in range(2 * k + 1)
            ]
            assert bulk.integers(1, 4, size=k).tolist() == [
                int(scalar.integers(1, 4)) for _ in range(k)
            ]
            assert bulk.permutation(n).tolist() == scalar.permutation(n).tolist()
            assert bulk.integers(1, 4, size=k).tolist() == [
                int(scalar.integers(1, 4)) for _ in range(k)
            ]
            assert (0.5 + bulk.random(k)).tolist() == [
                0.5 + scalar.random() for _ in range(k)
            ]
            assert int(bulk.integers(0, n)) == int(scalar.integers(0, n))
            assert (bulk.random(k) + 0.1).tolist() == [
                scalar.random() + 0.1 for _ in range(k)
            ]


def topology_digest(topos) -> str:
    """sha256 over the edges, the balance items in order and every value's
    type of each topology."""
    facts = []
    for topo in topos:
        facts.append([(v, type(v).__name__) for v in topo.nodes])
        facts.append([
            [(x, type(x).__name__) for x in edge] for edge in topo.edges
        ])
        facts.append([
            (v, b, type(v).__name__, type(b).__name__)
            for v, b in topo.balance.items()
        ])
    return hashlib.sha256(repr(facts).encode()).hexdigest()


class TestTopologyGolden:
    """Digests of erdos_topology and layered_topology recorded before the
    builders drew in bulk, under numpy 2.4.6. NEP 19 promises no stream
    stability across numpy versions, so an upgrade that changes the
    instances fails here rather than silently."""

    RECORDED_NUMPY = "2.4.6"
    SEEDS = (0, 1, 5, 2**63 - 1)
    ERDOS = {
        ((2, 1), "int"): "30a10c80a2e6b6261b1cea0323e064c2003c45717a6f7f61b21c9e708c4f1405",
        ((2, 1), "real"): "86d4182ff3f932cc131892a554e942ee1e107a1264a3776efa5495b95a4a6eed",
        ((6, 15), "int"): "89cf56b7125d83d3bca8eab04e375e3801343ab3bc7df32d46e11ed0b779b5ac",
        ((6, 15), "real"): "af8eacb449fa6edc491fa57cbe6fdcb16c88bb10c16a801a78cc9e1cab231dd4",
        ((8, 14), "int"): "bc38001599871b7914b374d95dc09ec204062276bcef29bdc6eac48703f4fb59",
        ((8, 14), "real"): "11e8be8993e9e0e9511883faeafae374153708ff1dea74c1cefac700fe5ebf5a",
        ((60, 600), "int"): "91c3ad02ad9355090b5287132846ec720bafec2e06821e1b082ee74b6ebb0a00",
        ((60, 600), "real"): "fe23590fd4d5eca818ba928d146a8e5398b01d50a691d3a0e33980152bff6caf",
        ((120, 600), "int"): "1fee106fbdd74737d91b5d9152fceb1431324191db8d89b4a7d56107e37b0006",
        ((120, 600), "real"): "2ac582ba808e746c0edde28618588ae9c54f19373f40d8f5793c3eef0d6d544b",
        ((40, 780), "int"): "0d48a6b530b9a98351d58c96a8babe963aa7466555ab484452e9da550023794b",
        ((40, 780), "real"): "6817de851f2d9695c2ee28c634d857a5b8ff046fb66c39ae8b93a81e9f2b6e28",
    }
    LAYERED = {
        ((6, 9, 2), "int"): "bc82453d9019ad7409b5b026bb11c3bb8d5de2ceb0679273a9a5f0245a998312",
        ((6, 9, 2), "real"): "9f2742695f178b7c7d5b58bafe7d7eb7a36758e1d67f85c5db5927fe61750d8b",
        ((9, 12, 3), "int"): "528a4f31b2c3d48d31fe5815112225a5c6a3654676495895b637a37985bbb737",
        ((9, 12, 3), "real"): "7324e91b4e04d23920d6443ac73d941508bd42fefbd9080788f183255b5e4b71",
        ((30, 200, 3), "int"): "75f64932b4cacc4121cf157b80c101dcf2c9b140552e7a68af487af067cbae69",
        ((30, 200, 3), "real"): "059e0d3279a2c25a2db277556bca7aa061de6a1ea979be93a0d23aa2b1718558",
        ((40, 150, 5), "int"): "87381fa300536b4bd60407e4b4c0d18fbd3f6f767c0a5bb5e819f36fccba6759",
        ((40, 150, 5), "real"): "78081b7dc338f8d1e8db84ba67b03c3efe95db18caf2cdf5714bf51dc58845ff",
        ((50, 400, 2), "int"): "34c66aaf7738effb807922def6a73f02ceb40f5be0062313f2e51ded138ddd64",
        ((50, 400, 2), "real"): "0f99df3142893243b25e6b32235a789dec79473f38c5c5bfeb2222d816332ea2",
    }

    def check(self, got, want):
        assert got == want, (
            f"topology digest differs under numpy {np.__version__}; the "
            f"digests were recorded with numpy {self.RECORDED_NUMPY}"
        )

    @pytest.mark.parametrize("shape, capacities", sorted(ERDOS))
    def test_erdos(self, shape, capacities):
        n, m = shape
        topos = [erdos_topology(n, m, s, capacities=capacities) for s in self.SEEDS]
        self.check(topology_digest(topos), self.ERDOS[shape, capacities])

    @pytest.mark.parametrize("shape, capacities", sorted(LAYERED))
    def test_layered(self, shape, capacities):
        n, m, layers = shape
        topos = [
            layered_topology(n, m, s, layers=layers, capacities=capacities)
            for s in self.SEEDS
        ]
        self.check(topology_digest(topos), self.LAYERED[shape, capacities])


def typed(x):
    """x with every number's type and every container's type spelled out."""
    if isinstance(x, (list, tuple)):
        return [type(x).__name__, [typed(y) for y in x]]
    return x, type(x).__name__


def network_digest(pairs) -> str:
    """sha256 over each (network, scale) pair: the network's edges, balance
    items in order, nodes and cost bound, every field and out_adj row of
    transform(network)._arrays, and the scale; each value with its type."""
    facts = []
    for net, scale in pairs:
        facts.append(typed([
            [[e.tail, e.head, e.capacity, e.cost, e.kind] for e in net.edges],
            list(net.balance.items()),
            net.nodes,
            net.cost_bound,
            scale,
        ]))
        arrays = transform(net)._arrays
        facts.append(typed([
            arrays.nodes, arrays.s, arrays.t, arrays.tail, arrays.head,
            arrays.cost, arrays.cap, arrays.signed_cost, arrays.floats,
        ]))
        facts.append(repr(arrays.original))
        facts.append(typed(arrays.out_adj))
    return hashlib.sha256(repr(facts).encode()).hexdigest()


class TestNetworkGolden:
    """Digests of the networks sample_costs and perturbed_integer build, and
    of their transforms' arrays, recorded under numpy 2.4.6 before the
    generators built their networks from columns. As for the topologies,
    a numpy upgrade that changes the draws fails here rather than
    silently."""

    RECORDED_NUMPY = "2.4.6"
    SEEDS = (0, 1, 5, 2**63 - 1)
    TOPOLOGIES = {
        "erdos": lambda seed: erdos_topology(30, 120, seed),
        "layered": lambda seed: layered_topology(30, 100, seed, capacities="real"),
        "bipartite": lambda seed: bipartite_topology(8, 40),
    }
    MODELS = {
        "uniform": lambda topo, seed: (
            sample_costs(topo, SmoothedCostSpec(4.0), seed), None),
        "adversarial": lambda topo, seed: (
            sample_costs(topo, adversarial_spec(topo, 4.0), seed), None),
        # per-edge intervals (one of them a list) over a default interval
        "spec": lambda topo, seed: (sample_costs(topo, SmoothedCostSpec(
            4.0, default_interval=(0.25, 0.75),
            intervals={0: (0.0, 0.25), 3: [0.5, 1.0], 7: (0.0, 0.25)},
        ), seed), None),
        "phi": lambda topo, seed: (sample_costs(topo, SmoothedCostSpec(
            8.0, convention="phi", intervals={1: (2.0, 3.5)},
        ), seed), None),
        "perturbed-4": lambda topo, seed: perturbed_integer(topo, 4, seed),
        "perturbed-16": lambda topo, seed: perturbed_integer(topo, 16, seed),
        # C >= 2^32 draws every integer through _rng.stream
        "perturbed-2^40": lambda topo, seed: perturbed_integer(topo, 2**40, seed),
    }
    DIGESTS = {
        ("uniform", "erdos"):
            "1d57c96090eb098b8ba5ec47805f9c1af82bb9d75208221d1fbc3b222a12b2d6",
        ("uniform", "layered"):
            "2acc03a543cd6825498ecf032d959fec0f1469af4614c61633a24a32f80e8cc2",
        ("uniform", "bipartite"):
            "66330c2c1886bcab6156d616c96635dccc2a45bad43c3dea1d672480792f37fb",
        ("adversarial", "erdos"):
            "557aaf905626062843d4a721fb0f8f7c0fbed0c2aba4b84390f0289a06f9821a",
        ("adversarial", "layered"):
            "c9a78e30134d1258674740bbcc923e591a6615daf4a5c421c45974eebabc547d",
        ("adversarial", "bipartite"):
            "6b5deefa057cbab83fc378e1b244a69da260682b3dc7da6518ebe9db68a94882",
        ("spec", "erdos"):
            "893ee0c6b8283c681a763684657d322b0731a627240d94d6c1a7b085c456beab",
        ("spec", "layered"):
            "5573c480dee57c9c476be0ffa6672832f91b62f8478bd41b8b569cbcaa72fc41",
        ("spec", "bipartite"):
            "0011ed47192ce3d322f814908bf6b63356ebca0c9dbd546ead569133310baec1",
        ("phi", "erdos"):
            "02918222da7ecab7791ee8adebda2a6a3a44452d8b2acabcf261d2ea9781db9b",
        ("phi", "layered"):
            "3a11c430064563d967baedf9ccea0face5d297354b46b898421d8a636ea6384f",
        ("phi", "bipartite"):
            "47d36b7929cd4c98d23ef352f28b209fcb738138edb157631f8f2e349cf37076",
        ("perturbed-4", "erdos"):
            "944c2eb59417b28e602d0e6dff86b424c2fe1883570bda21e07458172387f1ae",
        ("perturbed-4", "layered"):
            "9c3f00a2d700c9a05062abb0c36daf3345e618e78be81e2f13cc8aa82753afce",
        ("perturbed-4", "bipartite"):
            "377a1f259af3e9baaa9c21d526f78bc214495ad0976938f660deca5e04bbee76",
        ("perturbed-16", "erdos"):
            "2582654e46780051036f76fc0a88c4e65ba16f0e15c6182b9001c86e5372f025",
        ("perturbed-16", "layered"):
            "539ca635503ab6190b32fab9a63a7c5aaeadd64155800ca285c3b45b3c61da4e",
        ("perturbed-16", "bipartite"):
            "400a6d355e56b050cd76dc82d1fc6d35ccd5d182bc5aaf96712bb7e4ab6a1481",
        ("perturbed-2^40", "erdos"):
            "ff1ede66d41b7dd233358e427d54a3a7f0adef94629c0190aab3235597e06937",
        ("perturbed-2^40", "layered"):
            "2d99f51b98fb114903ab17b11285a8fb24b405f28c0a020fe0be687af4c41910",
        ("perturbed-2^40", "bipartite"):
            "d3241316714affbc8e8fd868ba834cdaefec3ae2a4349a997cb28417cb3edc27",
    }

    @pytest.mark.parametrize("model, shape", sorted(DIGESTS))
    def test_network(self, model, shape):
        pairs = [
            self.MODELS[model](self.TOPOLOGIES[shape](seed), seed)
            for seed in self.SEEDS
        ]
        assert network_digest(pairs) == self.DIGESTS[model, shape], (
            f"network digest differs under numpy {np.__version__}; the "
            f"digests were recorded with numpy {self.RECORDED_NUMPY}"
        )
