"""What the benchmark's tracer relies on from the package.

perfbench/tracing.py wraps package functions by (module, attribute) and
hashes fields of the traces run_ssp returns. A rename or a dropped field
breaks every benchmark run; these tests show it in the test suite.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import sspflow.analysis
import sspflow.cli
import sspflow.solver
from sspflow import (
    AugmentationStep,
    AugmentationTrace,
    check_lemmas,
    check_reconstruction,
    harvest_reconstruction_cases,
    replay_flows,
    run_ssp,
)

from conftest import uniform_instance

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while building
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _attributes_read_off(fn, name: str) -> set[str]:
    tree = ast.parse(inspect.getsource(fn))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
    }


def test_every_target_resolves(tracing):
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_cli_solve_is_only_an_alias(tracing):
    # TARGETS still resolves sspflow.cli.solve; it must stay the solver's
    # run_ssp itself, not grow back into a wrapper
    assert ("sspflow.cli", "solve", "solver.solve") in tracing.TARGETS
    assert sspflow.cli.solve is sspflow.cli.run_ssp is sspflow.solver.run_ssp
    assert not hasattr(sspflow.solver, "solve")


def test_trace_types_have_every_digested_field(tracing):
    step_reads = _attributes_read_off(tracing.steps_digest, "s")
    trace_reads = _attributes_read_off(tracing.steps_digest, "trace")
    assert "path_arcs" in step_reads and "steps" in trace_reads
    step_fields = {f.name for f in dataclasses.fields(AugmentationStep)}
    trace_fields = {f.name for f in dataclasses.fields(AugmentationTrace)}
    assert step_reads <= step_fields
    assert trace_reads <= trace_fields


def test_steps_digest_runs_on_a_trace(tracing):
    trace = run_ssp(uniform_instance(3), retain_flows=True)
    assert trace.steps and trace.intermediate_flows
    span = tracing.Span("solver.run_ssp", None, payload=trace)
    digest = tracing.steps_digest([span])
    assert len(digest) == 16
    assert digest == tracing.steps_digest([span])


def test_check_lemmas_calls_verify_optimality_per_flow(tracing, monkeypatch):
    # the traced analysis.verify_optimality span and its call count see
    # one call per flow, made through the module attribute
    assert ("sspflow.analysis", "verify_optimality",
            "analysis.verify_optimality") in tracing.TARGETS
    original = sspflow.analysis.verify_optimality
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sspflow.analysis, "verify_optimality", counted)
    trace = run_ssp(uniform_instance(3), record_distances=True)
    assert trace.initial_distances_from_s is not None
    assert check_lemmas(trace).all_passed
    assert len(calls) == len(trace.steps) + 1
    # each call sees its flow's values, whatever sequence carries them
    for (_, flow, _), kept in zip(calls, replay_flows(trace)):
        assert np.array_equal(flow.values, kept.values)


def test_check_reconstruction_calls_reconstruct_per_case(tracing, monkeypatch):
    # reconstruct-check's traced analysis.reconstruct span sees one call
    # per case, and each reaches the solver through analysis.run_ssp
    for target in (("sspflow.analysis", "reconstruct", "analysis.reconstruct"),
                   ("sspflow.analysis", "run_ssp", "solver.run_ssp")):
        assert target in tracing.TARGETS
    calls = []

    def counted(name):
        original = getattr(sspflow.analysis, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(sspflow.analysis, name, call)

    counted("reconstruct")
    counted("run_ssp")
    inst = uniform_instance(3)
    cases = harvest_reconstruction_cases(run_ssp(inst, retain_flows=True))
    assert cases and not calls
    assert all(ok for _, ok in check_reconstruction(inst, cases))
    assert calls == ["reconstruct", "run_ssp"] * len(cases)


@pytest.fixture
def bench_run(monkeypatch):
    """perfbench/run.py as a module."""
    # run.py imports its neighbours calibrate and tracing by plain name
    monkeypatch.syspath_prepend(str(TRACING.parent))
    saved = {name: sys.modules.pop(name, None) for name in ("calibrate", "tracing")}
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", TRACING.with_name("run.py"))
        run = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "perfbench_run", run)
        spec.loader.exec_module(run)
    finally:
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
    return run


def test_experiment_grid_records_its_layers(tracing, bench_run, tmp_path):
    # The experiment-grid op must record these spans: generation or
    # transform work moved into cli itself would lose them, and would
    # count against run.py's cli self-time gate.
    (op,) = bench_run.experiment_grid(0, tmp_path).ops
    wanted = {"generators.random_topology", "generators.sample_costs",
              "generators.perturbed_integer", "network.transform",
              "solver.run_ssp"}
    assert wanted <= set(op.spans)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, spans = tracer.call(sspflow.cli.main, list(op.argv))
    finally:
        tracer.uninstall()
    assert code == 0
    recorded = {span.name for span in spans}
    assert set(op.spans) <= recorded
    # one span of each per instance: 2 models x 2 ns x 2 phis x 3 trials
    for name in wanted - {"generators.sample_costs", "generators.perturbed_integer"}:
        assert sum(span.name == name for span in spans) == 24, name


def test_traced_ops_match_the_reference(bench_run, tmp_path):
    # Every set-up and timed op of every workload, at its pool's first
    # seed, called once under run.py's tracer as a traced run calls it:
    # exit 0, every span its Op names, and stdout, output-file and steps
    # digests equal to reference.json's, checked by run.py's own Checker
    # and check_spans. The cli self-time share is left to the benchmark's
    # traced runs, since it depends on timing.
    reference = json.loads(TRACING.with_name("reference.json").read_text())
    tracer = bench_run.Tracer()
    calls = 0
    for name, (build, _) in bench_run.WORKLOADS.items():
        seed = reference["pools"][name][0]
        work = tmp_path / name
        work.mkdir()
        load = build(seed, work)
        want = reference["digests"][name][str(seed)]
        checker = bench_run.Checker(reference["digests"][name])
        for op in (*load.setup, *load.ops):
            out, err = io.StringIO(), io.StringIO()
            tracer.install()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code, spans = tracer.call(sspflow.cli.main, list(op.argv))
            finally:
                tracer.uninstall()
            call = bench_run.Call(op, code, 0.0, out.getvalue(), err.getvalue(), 1.0,
                                  spans=spans)
            call.digest["stdout"] = bench_run._sha(call.stdout.encode())
            for path in op.files:
                call.digest[os.path.basename(path)] = bench_run._sha(Path(path).read_bytes())
            call.digest["steps"] = bench_run.steps_digest(spans)
            assert code == 0, (name, op.label, call.stderr)
            assert call.digest.keys() == want[op.label].keys(), (name, op.label)
            checker.check(call, seed)
            bench_run.check_spans(call, checker, timed=False)
            calls += 1
        assert checker.failures == [] and checker.problems == [], name
    assert calls == 8
