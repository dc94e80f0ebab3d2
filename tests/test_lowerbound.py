import dataclasses
import hashlib
import math

import pytest

from sspflow import _rng, lowerbound, network
from sspflow import (
    BadParams,
    HardInstance,
    LowerBoundParams,
    Outcome,
    PredictionMismatch,
    StageInstance,
    build_hard_instance,
    build_worstcase,
    run_ssp,
    stage_sequence,
    verify_count,
    write_instance,
)


class TestParams:
    def test_reference_parameters(self):
        p = LowerBoundParams(8, 16, 64.0)
        assert p.doubling_depth == 1
        assert p.chain_length == 8
        assert p.stage_max_flow(1) == 16
        assert p.predicted_steps == 256
        assert p.predicted_nodes == 52
        assert p.predicted_edges == 96

    def test_scaling_in_phi(self):
        assert LowerBoundParams(8, 16, 128.0).predicted_steps == 512
        assert LowerBoundParams(4, 4, 64.0).predicted_steps == 32

    def test_chain_length_capped_by_depth(self):
        # with deep doubling the chain uses all requested nodes
        p = LowerBoundParams(8, 16, 2.0**9)
        assert p.doubling_depth == 4
        assert p.chain_length == 8
        # with shallow doubling the cap binds instead
        q = LowerBoundParams(100, 200, 64.0)
        assert q.chain_length == 2 ** (1 + 3) - 2

    def test_bad_params(self):
        with pytest.raises(BadParams):
            LowerBoundParams(0, 1, 64.0)
        with pytest.raises(BadParams):
            LowerBoundParams(4, 3, 64.0)  # edges < side
        with pytest.raises(BadParams):
            LowerBoundParams(4, 17, 64.0)  # edges > side^2
        with pytest.raises(BadParams):
            LowerBoundParams(4, 4, 32.0)  # too little density headroom


class TestStage1:
    @pytest.mark.parametrize("side,edges", [(3, 7), (5, 10), (10, 100)])
    def test_exact_step_count_and_costs(self, side, edges):
        stage = stage_sequence(side, edges, 1, seed=0)[0]
        trace = run_ssp(stage.instance, record_distances=False)
        assert trace.outcome is Outcome.REACHED_Z
        assert len(trace.steps) == edges
        for step in trace.steps:
            assert step.amount == 1.0
            assert len(step.path_arcs) == 3  # s-u, u-w, w-t
            assert 7.0 - 1e-9 <= step.length <= 11.0 + 1e-9

    def test_costs_in_declared_bands(self):
        stage = stage_sequence(4, 9, 1, seed=1)[0]
        base = stage.instance.base
        for e, edge in enumerate(base.edges):
            if e < 9:  # tier-to-tier slots
                assert 7.0 <= edge.cost <= 9.0
            else:  # fan edges
                assert 0.0 <= edge.cost <= 1.0

    def test_deterministic(self):
        a = stage_sequence(3, 7, 1, seed=5)[0]
        b = stage_sequence(3, 7, 1, seed=5)[0]
        assert a.instance.base == b.instance.base
        c = stage_sequence(3, 7, 1, seed=6)[0]
        assert a.instance.base != c.instance.base

    def test_roles(self):
        stage = stage_sequence(3, 7, 1, seed=0)[0]
        roles = stage.roles
        assert roles[stage.instance.source] == "s1"
        assert roles[stage.instance.sink] == "t1"
        assert sorted(r for r in roles.values() if r.startswith("u")) == [
            "u1",
            "u2",
            "u3",
        ]


def outer_edges(stage: StageInstance):
    """Indices of (feed_in, feed_out, bypass_in, bypass_out)."""
    k = stage.instance.m - 4
    return k, k + 1, k + 2, k + 3


class TestExtension:
    def test_step_counts_double(self):
        seq = stage_sequence(4, 8, 5, seed=0)
        for i, stage in enumerate(seq, start=1):
            trace = run_ssp(stage.instance, record_distances=False)
            assert trace.outcome is Outcome.REACHED_Z
            assert len(trace.steps) == 8 * 2 ** (i - 1)
            assert stage.predicted_steps == len(trace.steps)

    def test_added_edge_cost_intervals(self):
        seq = stage_sequence(4, 8, 4, seed=2)
        for i, stage in enumerate(seq[1:], start=1):
            # stage i+1 wraps stage i; its four outer edges come last
            f_in, f_out, b_in, b_out = outer_edges(stage)
            edges = stage.instance.base.edges
            lo, hi = 2.0 ** (i + 3) - 1, 2.0 ** (i + 3) + 1
            for e in (f_in, f_out):
                assert 0.0 <= edges[e].cost <= 1.0
            for e in (b_in, b_out):
                assert lo <= edges[e].cost <= hi

    def test_paths_never_mix_feeds_and_bypasses(self):
        seq = stage_sequence(4, 8, 3, seed=0)
        stage = seq[-1]
        f_in, f_out, b_in, b_out = outer_edges(stage)
        trace = run_ssp(stage.instance, record_distances=False)
        for step in trace.steps:
            edges_used = {a >> 1 for a in step.path_arcs}
            through = f_in in edges_used or f_out in edges_used
            reversing = b_in in edges_used or b_out in edges_used
            if through:
                assert {f_in, f_out} <= edges_used
                assert not reversing
            else:
                assert {b_in, b_out} <= edges_used

    def test_first_half_fills_second_half_drains(self):
        seq = stage_sequence(4, 8, 2, seed=1)
        stage = seq[-1]
        f_in, f_out, b_in, b_out = outer_edges(stage)
        trace = run_ssp(stage.instance, record_distances=False)
        half = len(trace.steps) // 2
        for j, step in enumerate(trace.steps):
            edges_used = {a >> 1 for a in step.path_arcs}
            if j < half:
                assert f_in in edges_used
            else:
                assert b_in in edges_used

    def test_final_interior_flow_zero(self):
        seq = stage_sequence(4, 8, 3, seed=0)
        stage = seq[-1]
        trace = run_ssp(stage.instance, record_distances=False)
        inner_m = stage.instance.m - 4
        final = trace.final_flow.values
        cap = float(stage.predicted_steps // 2)
        assert all(final[e] == 0.0 for e in range(inner_m))
        assert all(final[e] == cap for e in outer_edges(stage))


def _core_swapped(hard, step):
    """step's path with the arcs into the core's two ends swapped in
    order: the same entry and exit arcs, the core crossed the other way."""
    head = [v for e in hard.instance.base.edges for v in (e.head, e.tail)]
    arcs = step.path_arcs
    into = {head[a]: a for a in arcs}
    src, snk = into[hard.core_source], into[hard.core_sink]
    middle = (src, snk) if arcs.index(snk) < arcs.index(src) else (snk, src)
    return dataclasses.replace(step, path_arcs=(arcs[0], *middle, *arcs[-2:]))


class TestFullConstruction:
    def test_reference_instance_verifies(self):
        trace = verify_count(build_hard_instance(LowerBoundParams(8, 16, 64.0), seed=0))
        assert len(trace.steps) == 256

    def test_counts_match_prediction(self):
        p = LowerBoundParams(8, 16, 64.0)
        hard = build_hard_instance(p, seed=0)
        assert hard.instance.n == p.predicted_nodes
        assert hard.instance.m == p.predicted_edges
        assert hard.instance.z == 2.0 * p.chain_length * p.stage_max_flow(
            p.doubling_depth
        )

    def test_small_variant(self):
        trace = verify_count(build_hard_instance(LowerBoundParams(4, 4, 64.0), seed=0))
        assert len(trace.steps) == 32

    def test_phase_check_fires(self, monkeypatch):
        # Steps 1-4 route forward through the core, steps 5-8 back; step 2
        # takes step 6's arcs and keeps its own length and amount.
        def swapped(instance, **kwargs):
            trace = run_ssp(instance, **kwargs)
            steps = list(trace.steps)
            steps[1] = dataclasses.replace(steps[1], path_arcs=steps[5].path_arcs)
            return dataclasses.replace(trace, steps=tuple(steps))

        monkeypatch.setattr(lowerbound, "run_ssp", swapped)
        with pytest.raises(PredictionMismatch, match=r"^step 2: path enters b1 "):
            verify_count(build_hard_instance(LowerBoundParams(4, 4, 64.0), seed=0))

    def test_exact_tie_fires(self, forced_tie):
        with pytest.raises(PredictionMismatch, match=r"^step 3: .* does not exceed"):
            verify_count(build_hard_instance(LowerBoundParams(4, 4, 64.0), seed=0))

    # Each doctoring of the (4, 4, 64) seed-0 trace fails exactly one of
    # verify_count's checks. Steps 1-4 cross the core forward (parity 0),
    # steps 5-8 backward. verify_count reads only each arc's head, so a
    # doctored path need not be a real one.
    @staticmethod
    def _verify_doctored(monkeypatch, doctor):
        hard = build_hard_instance(LowerBoundParams(4, 4, 64.0), seed=0)

        def doctored(instance, **kwargs):
            trace = run_ssp(instance, **kwargs)
            return dataclasses.replace(trace, steps=doctor(hard, trace.steps))

        monkeypatch.setattr(lowerbound, "run_ssp", doctored)
        verify_count(hard)

    def test_count_check_fires(self, monkeypatch):
        with pytest.raises(PredictionMismatch, match=(
            r"^observed 31 augmentations, predicted 32; first divergence at step 32$"
        )):
            self._verify_doctored(monkeypatch, lambda hard, steps: steps[:-1])

    @pytest.mark.parametrize("j, doctor, message", [
        (2, lambda hard, s: dataclasses.replace(s, amount=0.5),
         r"^step 3: amount 0.5, predicted 1.0$"),
        # the first arc, the arc into the exit chain node d1, the last arc
        (0, lambda hard, s: dataclasses.replace(
            s, path_arcs=(s.path_arcs[0], *s.path_arcs[-2:])),
         r"^step 1: path bypasses the core stage$"),
        (0, _core_swapped, r"^step 1: core traversed backwards in a forward phase$"),
        (4, _core_swapped, r"^step 5: core traversed forwards in a backward phase$"),
        # above phase 1's forward window [69, 77], below step 5's length
        (3, lambda hard, s: dataclasses.replace(s, length=80.0),
         r"^step 4: length 80.0 outside \[69.0, 77.0\] for phase 1 parity 0$"),
    ], ids=["amount", "bypass", "backwards", "forwards", "window"])
    def test_step_check_fires(self, monkeypatch, j, doctor, message):
        def one_step(hard, steps):
            return (*steps[:j], doctor(hard, steps[j]), *steps[j + 1:])

        with pytest.raises(PredictionMismatch, match=message):
            self._verify_doctored(monkeypatch, one_step)

    def test_deterministic(self):
        a = stage_sequence(3, 7, 1, seed=5)[0]
        b = stage_sequence(3, 7, 1, seed=5)[0]
        assert a.instance.base == b.instance.base
        c = stage_sequence(3, 7, 1, seed=6)[0]
        assert a.instance.base != c.instance.base

    def test_roles(self):
        stage = stage_sequence(3, 7, 1, seed=0)[0]
        roles = stage.roles
        assert roles[stage.instance.source] == "s1"
        assert roles[stage.instance.sink] == "t1"
        assert sorted(r for r in roles.values() if r.startswith("u")) == [
            "u1",
            "u2",
            "u3",
        ]


def outer_edges(stage: StageInstance):
    """Indices of (feed_in, feed_out, bypass_in, bypass_out)."""
    k = stage.instance.m - 4
    return k, k + 1, k + 2, k + 3


class TestExtension:
    def test_step_counts_double(self):
        seq = stage_sequence(4, 8, 5, seed=0)
        for i, stage in enumerate(seq, start=1):
            trace = run_ssp(stage.instance, record_distances=False)
            assert trace.outcome is Outcome.REACHED_Z
            assert len(trace.steps) == 8 * 2 ** (i - 1)
            assert stage.predicted_steps == len(trace.steps)

    def test_added_edge_cost_intervals(self):
        seq = stage_sequence(4, 8, 4, seed=2)
        for i, stage in enumerate(seq[1:], start=1):
            # stage i+1 wraps stage i; its four outer edges come last
            f_in, f_out, b_in, b_out = outer_edges(stage)
            edges = stage.instance.base.edges
            lo, hi = 2.0 ** (i + 3) - 1, 2.0 ** (i + 3) + 1
            for e in (f_in, f_out):
                assert 0.0 <= edges[e].cost <= 1.0
            for e in (b_in, b_out):
                assert lo <= edges[e].cost <= hi

    def test_paths_never_mix_feeds_and_bypasses(self):
        seq = stage_sequence(4, 8, 3, seed=0)
        stage = seq[-1]
        f_in, f_out, b_in, b_out = outer_edges(stage)
        trace = run_ssp(stage.instance, record_distances=False)
        for step in trace.steps:
            edges_used = {a >> 1 for a in step.path_arcs}
            through = f_in in edges_used or f_out in edges_used
            reversing = b_in in edges_used or b_out in edges_used
            if through:
                assert {f_in, f_out} <= edges_used
                assert not reversing
            else:
                assert {b_in, b_out} <= edges_used

    def test_first_half_fills_second_half_drains(self):
        seq = stage_sequence(4, 8, 2, seed=1)
        stage = seq[-1]
        f_in, f_out, b_in, b_out = outer_edges(stage)
        trace = run_ssp(stage.instance, record_distances=False)
        half = len(trace.steps) // 2
        for j, step in enumerate(trace.steps):
            edges_used = {a >> 1 for a in step.path_arcs}
            if j < half:
                assert f_in in edges_used
            else:
                assert b_in in edges_used

    def test_final_interior_flow_zero(self):
        seq = stage_sequence(4, 8, 3, seed=0)
        stage = seq[-1]
        trace = run_ssp(stage.instance, record_distances=False)
        inner_m = stage.instance.m - 4
        final = trace.final_flow.values
        cap = float(stage.predicted_steps // 2)
        assert all(final[e] == 0.0 for e in range(inner_m))
        assert all(final[e] == cap for e in outer_edges(stage))


def _core_swapped(hard, step):
    """step's path with the arcs into the core's two ends swapped in
    order: the same entry and exit arcs, the core crossed the other way."""
    head = [v for e in hard.instance.base.edges for v in (e.head, e.tail)]
    arcs = step.path_arcs
    into = {head[a]: a for a in arcs}
    src, snk = into[hard.core_source], into[hard.core_sink]
    middle = (src, snk) if arcs.index(snk) < arcs.index(src) else (snk, src)
    return dataclasses.replace(step, path_arcs=(arcs[0], *middle, *arcs[-2:]))


class TestFullConstruction:
    def test_reference_instance_verifies(self):
        trace = verify_count(build_hard_instance(LowerBoundParams(8, 16, 64.0), seed=0))
        assert len(trace.steps) == 256

    def test_counts_match_prediction(self):
        p = LowerBoundParams(8, 16, 64.0)
        hard = build_hard_instance(p, seed=0)
        assert hard.instance.n == p.predicted_nodes
        assert hard.instance.m == p.predicted_edges
        assert hard.instance.z == 2.0 * p.chain_length * p.stage_max_flow(
            p.doubling_depth
        )

    def test_small_variant(self):
        trace = verify_count(build_hard_instance(LowerBoundParams(4, 4, 64.0), seed=0))
        assert len(trace.steps) == 32

    def test_phase_check_fires(self, monkeypatch):
        # Steps 1-4 route forward through the core, steps 5-8 back; step 2
        # takes step 6's arcs and keeps its own length and amount.
        def swapped(instance, **kwargs):
            trace = run_ssp(instance, **kwargs)
            steps = list(trace.steps)
            steps[1] = dataclasses.replace(steps[1], path_arcs=steps[5].path_arcs)
            return dataclasses.replace(trace, steps=tuple(steps))

        monkeypatch.setattr(lowerbound, "run_ssp", swapped)
        with pytest.raises(PredictionMismatch, match=r"^step 2: path enters b1 "):
            verify_count(build_hard_instance(LowerBoundParams(4, 4, 64.0), seed=0))

    def test_exact_tie_fires(self, forced_tie):
        with pytest.raises(PredictionMismatch, match=r"^step 3: .* does not exceed"):
            verify_count(build_hard_instance(LowerBoundParams(4, 4, 64.0), seed=0))

    # Each doctoring of the (4, 4, 64) seed-0 trace fails exactly one of
    # verify_count's checks. Steps 1-4 cross the core forward (parity 0),
    # steps 5-8 backward. verify_count reads only each arc's head, so a
    # doctored path need not be a real one.
    @pytest.mark.parametrize("doctor, message", [
        (lambda hard, steps: steps[:-1],
         r"^observed 31 augmentations, predicted 32; first divergence at step 32$"),
        (lambda hard, steps: [*steps[:2], dataclasses.replace(steps[2], amount=0.5),
                              *steps[3:]],
         r"^step 3: amount 0.5, predicted 1.0$"),
        # the first arc, the arc into the exit chain node d1, the last arc
        (lambda hard, steps: [dataclasses.replace(steps[0], path_arcs=(
            steps[0].path_arcs[0], *steps[0].path_arcs[-2:])), *steps[1:]],
         r"^step 1: path bypasses the core stage$"),
        (lambda hard, steps: [_core_swapped(hard, steps[0]),
                              *steps[1:]],
         r"^step 1: core traversed backwards in a forward phase$"),
        (lambda hard, steps: [*steps[:4], _core_swapped(hard, steps[4]),
                              *steps[5:]],
         r"^step 5: core traversed forwards in a backward phase$"),
        # above phase 1's forward window [69, 77], below step 5's length
        (lambda hard, steps: [*steps[:3], dataclasses.replace(steps[3], length=80.0),
                              *steps[4:]],
         r"^step 4: length 80.0 outside \[69.0, 77.0\] for phase 1 parity 0$"),
    ], ids=["count", "amount", "bypass", "backwards", "forwards", "window"])
    def test_each_check_fires(self, monkeypatch, doctor, message):
        hard = build_hard_instance(LowerBoundParams(4, 4, 64.0), seed=0)

        def doctored(instance, **kwargs):
            trace = run_ssp(instance, **kwargs)
            return dataclasses.replace(trace, steps=tuple(doctor(hard, list(trace.steps))))

        monkeypatch.setattr(lowerbound, "run_ssp", doctored)
        with pytest.raises(PredictionMismatch, match=message):
            verify_count(hard)

    def test_deterministic(self):
        p = LowerBoundParams(4, 4, 64.0)
        a = build_hard_instance(p, seed=3)
        b = build_hard_instance(p, seed=3)
        assert a.instance.base == b.instance.base
        c = build_hard_instance(p, seed=4)
        assert a.instance.base != c.instance.base

    def test_fan_roles_partition(self):
        hard = build_hard_instance(LowerBoundParams(4, 4, 64.0), seed=0)
        m = hard.params.chain_length
        for fan in (hard.fan_a, hard.fan_b, hard.fan_c, hard.fan_d):
            assert len(fan) == m
        all_fans = set(hard.fan_a) | set(hard.fan_b) | set(hard.fan_c) | set(
            hard.fan_d
        )
        assert len(all_fans) == 4 * m
        assert hard.core_source not in all_fans
        assert hard.core_sink not in all_fans

    def test_one_draw_one_network(self, monkeypatch):
        calls = {"draws": 0, "networks": 0}
        randoms, flow_network = _rng.randoms, network.FlowNetwork

        def counted_randoms(*args):
            calls["draws"] += 1
            return randoms(*args)

        def counted_network(*args, **kwargs):
            calls["networks"] += 1
            return flow_network(*args, **kwargs)

        monkeypatch.setattr(_rng, "randoms", counted_randoms)
        monkeypatch.setattr(lowerbound, "FlowNetwork", counted_network)
        build_hard_instance(LowerBoundParams(8, 16, 4096.0), 0)
        assert calls == {"draws": 1, "networks": 1}


class TestLargePhi:
    """Potentials reach about 2^(k+5) times the chain length here, so
    float rounding in reduced costs exceeds the absolute slack."""

    @pytest.mark.parametrize(
        "side, edges, phi", [(8, 16, 2.0**13), (4, 4, 2.0**14)]
    )
    def test_verify_count(self, side, edges, phi):
        p = LowerBoundParams(side, edges, phi)
        trace = verify_count(build_hard_instance(p, seed=0))
        assert len(trace.steps) == p.predicted_steps


class TestWorstcaseDispatch:
    def test_full_when_phi_large(self):
        built = build_worstcase(4, 4, 64.0, seed=0)
        assert isinstance(built, HardInstance)

    def test_stage1_fallback_when_phi_small(self):
        built = build_worstcase(4, 8, 16.0, seed=0)
        assert isinstance(built, StageInstance)
        assert built.stage == 1
        trace = run_ssp(built.instance, record_distances=False)
        assert len(trace.steps) == built.predicted_steps == 8

    def test_fallback_cost_bound_within_phi(self):
        built = build_worstcase(4, 8, 16.0, seed=0)
        assert built.instance.base.cost_bound <= 16.0
        trace = run_ssp(built.instance, record_distances=False)
        assert len(trace.steps) == 8

    def test_fallback_needs_density_headroom(self):
        with pytest.raises(BadParams):
            build_worstcase(4, 8, 2.0, seed=0)


def family_digest(built) -> str:
    """sha256 of the DIMACS text plus every stored fact of a build."""
    inst = built.instance
    facts = [sorted(built.roles.items()), inst.source, inst.sink, inst.z,
             built.predicted_steps]
    if isinstance(built, HardInstance):
        facts += [built.fan_a, built.fan_b, built.fan_c, built.fan_d,
                  built.core_source, built.core_sink]
    else:
        facts.append(built.stage)
    text = write_instance(inst.base) + repr(facts)
    return hashlib.sha256(text.encode()).hexdigest()


class TestFamilyGolden:
    """Digests recorded before the family was built from one edge list."""

    HARD = {
        ((4, 4, 64.0), 0): "7005be869e2cf72cd693a3098e3a276d2b022a40e52309160326efe724fabf36",
        ((4, 4, 64.0), 3): "a52a5250a419140f4181d63eb8d5c346e110494ed00ca24e43e7ef3fda7c25de",
        ((8, 16, 64.0), 0): "30096133b6335f6ba8902f9491b9257fa6729915ca5842fe2030b95c236aa223",
        ((8, 16, 64.0), 3): "1103bc001117c3328f4f141d93c388eae638997d08da96c01b524ade4adeafbc",
        ((8, 16, 4096.0), 0): "22b81c69475c38cf73e2d6ab4f232a8050749eb23cba5f01124661940e3b5441",
        ((8, 16, 4096.0), 3): "872194860e3d78df1de9fd57a5c6a834d7d76388fe828789a80f8fc6f913249c",
    }
    STAGES = [
        "fc2b78f22d8ac4fddc78c049d5345f11affe863a2c5cb282a57911a1d3977d64",
        "866406468f8478d2cbe2ec8f6474e50601f768242aa21e2c16505c666c3b7230",
        "595677d0240759f084619abfca4e5b9e9a233a958a0875d863033dc0fe1bd29f",
        "462d0e52302d126036c2f84e7776a4bd51144229dd4a4e2e30689906f6b93507",
        "faac0277ec7a5b2fa394d9396335e422f3f134286f322b09ab02f1abc548b9b5",
    ]
    WORSTCASE = {
        12.0: "1fec6f0a5f423e68e85f0ec62b0974ad9ccb1c9e3eefeb0d852c72c23e2cb5cc",
        16.0: "ef354f1068d97b777566093747039f73dd5c776ab8afd0093297b1220c7758d3",
        40.0: "fc2b78f22d8ac4fddc78c049d5345f11affe863a2c5cb282a57911a1d3977d64",
    }

    @pytest.mark.parametrize("params, seed", sorted(HARD))
    def test_hard_instance(self, params, seed):
        built = build_hard_instance(LowerBoundParams(*params), seed)
        assert family_digest(built) == self.HARD[params, seed]

    def test_stage_sequence(self):
        assert [family_digest(s) for s in stage_sequence(4, 8, 5, 0)] == self.STAGES

    @pytest.mark.parametrize("phi", sorted(WORSTCASE))
    def test_worstcase_fallback(self, phi):
        assert family_digest(build_worstcase(4, 8, phi, 0)) == self.WORSTCASE[phi]

