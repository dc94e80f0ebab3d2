import hashlib
import math

import pytest

from sspflow import (
    AuxiliaryArc,
    BadParams,
    BalanceMismatch,
    FlowError,
    InfeasibleFlow,
    InfeasibleShape,
    InternalInvariantError,
    InvalidInterval,
    InvariantError,
    IterationCapExceeded,
    NoPath,
    ParseError,
    PredictionMismatch,
    SmoothedCostSpec,
    build_hard_instance,
    build_worstcase,
    check_lemmas,
    harvest_reconstruction_cases,
    random_topology,
    read_instance,
    run_ssp,
    sample_costs,
    transform,
    write_instance,
)
from sspflow import analysis, cli, lowerbound
from sspflow.cli import main
from sspflow.solver import trace_csv_rows

from conftest import single_edge_network, two_path_network


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.dimacs"
    path.write_text(write_instance(two_path_network()))
    return str(path)


def test_solve_writes_trace(tmp_path, instance_file, capsys):
    out = tmp_path / "trace.csv"
    assert main(["solve", instance_file, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("reached_z steps=2 value=5.0")
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,length,amount,value_after,n_saturated,good_arc"
    assert len(lines) == 3


def test_solve_infeasible_exit_2(tmp_path, capsys):
    net = single_edge_network(cap=1.0, demand=1.0)
    path = tmp_path / "small.dimacs"
    path.write_text(write_instance(net))
    assert main(["solve", str(path), "--z", "9"]) == 2
    err = capsys.readouterr().err
    assert "maximum is 1.0" in err


def test_solve_malformed_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.dimacs"
    path.write_text("p min 2 1\nn 1 1.0\nn 2 -1.0\na 1 2 nope 0.1\n")
    assert main(["solve", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, code",
    [
        # the balance magnitudes sum past float64
        ("p min 2 1\nn 0 1e308\nn 1 -1e308\na 0 1 1e308 0.5\n", 1),
        # n * cost_bound overflows, and with it the search distances
        ("c costbound 1e308\np min 3 2\nn 0 1\nn 2 -1\n"
         "a 0 1 1 1e308\na 1 2 1 1e308\n", 1),
        # the solve is exact, but the flow's cost overflows
        ("c costbound 1\np min 4 3\nn 0 8e307\nn 3 -8e307\n"
         "a 0 1 1e308 1\na 1 2 1e308 1\na 2 3 1e308 1\n", 0),
    ],
    ids=["balances", "cost_bound", "flow_cost"],
)
def test_huge_magnitudes_never_traceback(text, code, tmp_path, capsys):
    path = tmp_path / "huge.dimacs"
    path.write_text(text)
    assert main(["solve", str(path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("error:") and not out
    else:
        assert out.startswith("reached_z steps=1 value=8e+307 cost=inf")


def test_solve_missing_file_exit_1(capsys):
    assert main(["solve", "/nonexistent/x.dimacs"]) == 1


def test_iteration_cap_exit_3(instance_file, capsys):
    assert main(["solve", instance_file, "--iteration-cap", "1"]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_costfn_stdout(instance_file, capsys):
    assert main(["costfn", instance_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,y,slope_right"
    assert len(lines) == 4  # 0, 2, 5 breakpoints


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.dimacs", tmp_path / "b.dimacs"
    args = [
        "generate", "--model", "smoothed", "--shape", "bipartite",
        "--n", "4", "--m", "9", "--phi", "8", "--preset", "adversarial",
        "--seed", "11",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_then_solve(tmp_path, capsys):
    path = tmp_path / "g.dimacs"
    assert main([
        "generate", "--model", "perturbed", "--shape", "bipartite",
        "--n", "3", "--m", "6", "--phi", "4", "--seed", "0",
        "--out", str(path),
    ]) == 0
    assert main(["solve", str(path)]) == 0
    assert "reached_z steps=6" in capsys.readouterr().out


def test_generated_file_with_several_supplies_is_transformed(tmp_path, capsys):
    # an erdos instance has several supply nodes, so load_instance runs
    # transform; solve and verify match the library run on the same net
    path, trace_csv = tmp_path / "e.dimacs", tmp_path / "trace.csv"
    assert main([
        "generate", "--shape", "erdos", "--n", "6", "--m", "14", "--phi", "4",
        "--seed", "3", "--out", str(path),
    ]) == 0
    net = read_instance(path.read_text())
    assert sum(b > 0 for b in net.balance.values()) > 1
    capsys.readouterr()

    assert main(["solve", str(path), "--out", str(trace_csv)]) == 0
    inst = transform(net)
    trace = run_ssp(inst, record_distances=False)
    final = trace.final_flow
    cost = math.fsum(f * e.cost for f, e in zip(final.values, inst.base.edges))
    out = capsys.readouterr().out
    assert out == f"reached_z steps=3 value={final.value!r} cost={cost!r}\n"
    assert trace_csv.read_text().splitlines() == trace_csv_rows(trace)

    assert main(["verify", str(path)]) == 0
    report = check_lemmas(run_ssp(inst, retain_flows=True))
    assert capsys.readouterr().out == report.as_text() + "\n"


def test_generate_uniform_preset(tmp_path):
    path = tmp_path / "u.dimacs"
    assert main([
        "generate", "--n", "4", "--m", "9", "--phi", "8", "--seed", "5",
        "--preset", "uniform", "--out", str(path),
    ]) == 0
    topo = random_topology(4, 9, "bipartite", 5)
    assert path.read_text() == write_instance(sample_costs(topo, SmoothedCostSpec(8.0), 5))


def test_generate_lowerbound_model(tmp_path):
    path = tmp_path / "lb.dimacs"
    assert main([
        "generate", "--model", "lowerbound", "--n", "4", "--m", "4", "--phi", "64",
        "--seed", "2", "--out", str(path),
    ]) == 0
    built = build_worstcase(4, 4, 64.0, 2)
    assert path.read_text() == write_instance(built.instance.base)


def test_generate_with_cost_spec(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("phi 10.0\ndefault-interval 0.0 0.1\n")
    out = tmp_path / "inst.dimacs"
    assert main([
        "generate", "--model", "smoothed", "--shape", "bipartite",
        "--n", "3", "--m", "6", "--seed", "1",
        "--cost-spec", str(spec), "--out", str(out),
    ]) == 0
    net = read_instance(out.read_text())
    assert all(0.0 <= e.cost <= 0.1 for e in net.edges)


@pytest.mark.parametrize("edge", ["99", "-1", "13"])
def test_generate_cost_spec_unknown_edge_exit_1(edge, tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(f"phi 2.0\ninterval {edge} 0 0.6\n")
    out = tmp_path / "inst.dimacs"
    assert main([
        "generate", "--n", "4", "--m", "5", "--cost-spec", str(spec),
        "--out", str(out),
    ]) == 1  # the 4-by-5 bipartite topology has edges 0..12
    err = capsys.readouterr().err
    assert err.startswith(f"error: interval for edge {edge}:")
    assert not out.exists()


@pytest.mark.parametrize("argv, digest", [
    (["--n", "4", "--m", "9", "--phi", "8", "--seed", "3"],
     "32393df2f7146efeeead8114704ecdff3a7a3b97cdb931e12c44158a2b41755e"),
    (["--model", "smoothed", "--shape", "erdos", "--n", "8", "--m", "14",
      "--phi", "4", "--preset", "adversarial", "--seed", "2"],
     "b3810ee13431e159545498702ada73b606b1bb354ab21b61ebcb7e7ed3e04216"),
    (["--model", "smoothed", "--shape", "layered", "--n", "9", "--m", "12",
      "--cost-spec", "{spec}", "--seed", "1"],
     "d912e8653d186d5d00603c1b5fe2f6ef1282336ec7b23b6db746c7a37ecfc53c"),
    (["--model", "perturbed", "--shape", "layered", "--n", "9", "--m", "12",
      "--phi", "16", "--seed", "4"],
     "872cb9ec800d58c4bf4702a630e4e6311b6266b2fa90010b7fb8be2dfd70e9e3"),
    (["--model", "perturbed", "--n", "3", "--m", "6", "--phi", "4", "--seed", "0"],
     "e45025bcab0e8114d6818e330e1824e0ee76afef352129d0eb3469fbfb527e6f"),
    (["--model", "lowerbound", "--n", "4", "--m", "4", "--phi", "64", "--seed", "2"],
     "0372dce0b02905338b59fbb7fea65757defd9601876266820d3584f59d4904b0"),
])
def test_generate_accepted_options_write_the_same_file(argv, digest, tmp_path):
    # digests recorded before generate rejected options its model ignores
    spec, out = tmp_path / "spec.txt", tmp_path / "out.dimacs"
    spec.write_text("phi 4.0\ndefault-interval 0.25 0.75\ninterval 2 0.0 0.5\n")
    argv = [a.format(spec=spec) for a in argv]
    assert main(["generate", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("model, extra, flag", [
    ("perturbed", ["--cost-spec", "{spec}"], "--cost-spec"),
    ("perturbed", ["--preset", "adversarial"], "--preset"),
    ("perturbed", ["--preset", "uniform"], "--preset"),
    ("lowerbound", ["--cost-spec", "{spec}"], "--cost-spec"),
    ("lowerbound", ["--preset", "adversarial"], "--preset"),
    ("lowerbound", ["--shape", "layered"], "--shape"),
    ("lowerbound", ["--shape", "bipartite"], "--shape"),
    ("lowerbound", ["--cost-spec", "/nonexistent", "--preset", "adversarial",
                    "--shape", "layered"], "--cost-spec"),
])
def test_generate_rejects_options_its_model_ignores(model, extra, flag, tmp_path, capsys):
    spec, out = tmp_path / "spec.txt", tmp_path / "out.dimacs"
    spec.write_text("phi 4.0\n")
    argv = ["generate", "--model", model, "--n", "4", "--m", "4", "--phi", "64",
            *[a.format(spec=spec) for a in extra], "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    assert not out.exists()


def test_generate_bad_shape_params_exit_1(capsys):
    assert main([
        "generate", "--model", "smoothed", "--shape", "erdos",
        "--n", "2", "--m", "5", "--seed", "0",
    ]) == 1


def test_lowerbound_verify(capsys):
    assert main([
        "lowerbound", "--n", "4", "--m", "4", "--phi", "64", "--seed", "0",
        "--verify",
    ]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "stage=full nodes=28 edges=44 z=32.0 predicted_steps=32",
        "verified: 32 augmentations over 8 phases (seed 0)",
    ]


def test_lowerbound_verify_stage1_fallback(capsys):
    assert main(["lowerbound", "--n", "4", "--m", "8", "--phi", "16", "--verify"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "stage=1 nodes=10 edges=16 z=8.0 predicted_steps=8",
        "verified: 8 augmentations",
    ]


def test_lowerbound_verify_builds_once(monkeypatch, capsys):
    seeds = []

    def counted(params, seed):
        seeds.append(seed)
        return build_hard_instance(params, seed)

    monkeypatch.setattr(lowerbound, "build_hard_instance", counted)
    assert main([
        "lowerbound", "--n", "4", "--m", "4", "--phi", "64", "--seed", "3",
        "--verify",
    ]) == 0
    assert seeds == [3]


def test_lowerbound_tie_exit_3(forced_tie, capsys):
    assert main([
        "lowerbound", "--n", "4", "--m", "4", "--phi", "64",
        "--seed", str(2**63 - 1), "--verify",
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: step 3: ")
    assert "Traceback" not in err


def test_lowerbound_writes_instance(tmp_path, capsys):
    path = tmp_path / "hard.dimacs"
    assert main([
        "lowerbound", "--n", "4", "--m", "4", "--phi", "64", "--seed", "0",
        "--out", str(path),
    ]) == 0
    assert main(["solve", str(path)]) == 0
    assert "steps=32" in capsys.readouterr().out.splitlines()[-1]


def test_lowerbound_bad_params_exit_1(capsys):
    assert main(["lowerbound", "--n", "4", "--m", "99", "--phi", "64"]) == 1


def test_experiment_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "experiment", "--models", "smoothed,perturbed",
        "--shape", "bipartite", "--ns", "3,4", "--ms", "6", "--phis", "2",
        "--trials", "3", "--seed", "5",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "cell,trial,steps,runtime,bound_2mnphi_plus_2n,ratio"
    # 4 cells x (3 trials + 1 mean row)
    assert len(lines) == 1 + 4 * 4
    assert sum(",mean," in ln for ln in lines) == 4
    # runtime column empty without --timings
    assert all(ln.split(",")[3] == "" for ln in lines[1:])


def test_experiment_bound_column(tmp_path):
    out = tmp_path / "r.csv"
    assert main([
        "experiment", "--models", "smoothed", "--shape", "bipartite",
        "--ns", "4", "--ms", "8", "--phis", "2", "--trials", "2",
        "--seed", "7", "--out", str(out),
    ]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    for row in rows:
        assert float(row[2]) <= float(row[4]), row  # steps within bound
        assert float(row[5]) == float(row[2]) / float(row[4])


def test_verify_reports_lemmas(instance_file, tmp_path, capsys):
    out = tmp_path / "lemmas.csv"
    assert main(["verify", instance_file, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 8
    rows = out.read_text().splitlines()
    assert rows[0] == "lemma_id,pass,first_violation_step"
    assert len(rows) == 9


def test_verify_exits_3_when_bad_steps_exceed_node_count(
    instance_file, monkeypatch, capsys
):
    monkeypatch.setattr(
        analysis, "classify", lambda trace: tuple(range(1, trace.instance.n + 2))
    )
    assert main(["verify", instance_file]) == 3
    out = capsys.readouterr().out
    assert "FAIL bad_flow_bound (" in out
    assert "bad steps exceed the node-count bound" in out


# Balances are floats checked to a 1e-9 relative tolerance: an imbalance
# of 1e-10 solves, one of 1e-8 is an input error.
@pytest.mark.parametrize("demand, code", [("-1.0000000001", 0), ("-1.00000001", 1)])
def test_balance_tolerance_on_file_input(tmp_path, capsys, demand, code):
    path = tmp_path / "imbalanced.dimacs"
    path.write_text(f"p min 2 1\nn 0 1\nn 1 {demand}\na 0 1 1 0.5\n")
    assert main(["solve", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith("error: balances sum to")
    else:
        assert captured.out.startswith("reached_z steps=1 value=1.0")
    assert "Traceback" not in captured.err


def test_reconstruct_check(instance_file, capsys):
    assert main(["reconstruct-check", instance_file]) == 0
    out = capsys.readouterr().out
    assert "reconstructions exact" in out


def test_reconstruct_check_of_no_cases(instance_file, capsys):
    # steps were harvested, and none asked for: nothing to check, and
    # nothing wrong
    assert main(["reconstruct-check", instance_file, "--max-cases", "0"]) == 0
    assert capsys.readouterr().out == "0/0 reconstructions exact\n"


def test_reconstruct_check_of_no_harvestable_steps(tmp_path, capsys):
    # the one step has length 0, so no threshold lies below it
    path = tmp_path / "zero.dimacs"
    path.write_text(write_instance(single_edge_network(cost=0.0)))
    assert main(["reconstruct-check", str(path)]) == 0
    assert capsys.readouterr().out == "no reconstructable steps harvested\n"


def test_reconstruct_check_mismatch_exit_3(instance_file, monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "check_reconstruction",
        lambda instance, cases: [(case, False) for case in cases],
    )
    assert main(["reconstruct-check", instance_file]) == 3
    trace = run_ssp(cli.load_instance(instance_file), retain_flows=True)
    cases = harvest_reconstruction_cases(trace)
    first = cases[0]
    captured = capsys.readouterr()
    assert captured.out == f"0/{len(cases)} reconstructions exact\n"
    assert captured.err == (
        f"first mismatch: arc {first.arc} threshold {first.threshold!r} "
        f"(step {first.step_index})\n"
    )


def test_reconstruct_check_at_large_lengths(tmp_path, capsys):
    # the path is 2^24 + 0.5 long: its top threshold must still fall
    # below that length, which hi - 1e-9 rounds back to
    path = tmp_path / "long.dimacs"
    path.write_text(
        "c costbound 16777216\np min 3 2\nn 1 1\nn 2 0\nn 3 -1\n"
        "a 1 2 1 16777216\na 2 3 1 0.5\n"
    )
    assert main(["reconstruct-check", str(path)]) == 0
    assert capsys.readouterr().out == "6/6 reconstructions exact\n"


EXPERIMENT = ["experiment", "--ns", "3", "--ms", "6", "--phis", "2", "--trials", "1"]


@pytest.mark.parametrize("argv", [
    ["solve", "{inst}", "--z", "-1"],
    ["solve", "{inst}", "--iteration-cap", "-1"],
    ["solve", "{inst}/x"],
    ["reconstruct-check", "{inst}", "--max-cases", "-1"],
    EXPERIMENT + ["--ns", "abc", "--out", "{out}"],
    EXPERIMENT + ["--phis", "2,x", "--out", "{out}"],
    EXPERIMENT + ["--models", "bogus", "--out", "{out}"],
    EXPERIMENT + ["--trials", "-1", "--out", "{out}"],
    EXPERIMENT + ["--seed", "-1", "--out", "{out}"],
    # trial seeds past 2^63, which numpy would key inexactly
    EXPERIMENT + ["--seed", "100000000", "--out", "{out}"],
    # the perturbed model's phi is an integer cost bound C
    EXPERIMENT + ["--models", "perturbed", "--phis", "4,4.5", "--out", "{out}"],
    EXPERIMENT + ["--models", "perturbed", "--phis", "inf", "--out", "{out}"],
    ["generate", "--model", "perturbed", "--n", "3", "--m", "4", "--phi", "4.5",
     "--out", "{out}"],
    ["generate", "--n", "3", "--m", "4", "--seed", "-1", "--out", "{out}"],
    ["generate", "--n", "3", "--m", "4", "--seed", str(2**64), "--out", "{out}"],
    ["lowerbound", "--n", "2", "--m", "3", "--phi", "64", "--seed", str(2**63),
     "--out", "{out}"],
    # perturbed cost bounds C past 2^63 - 1, which numpy cannot draw
    ["generate", "--model", "perturbed", "--n", "4", "--m", "5", "--phi", "1e19",
     "--out", "{out}"],
    ["experiment", "--models", "perturbed", "--ns", "4", "--ms", "6",
     "--phis", "9223372036854775808", "--trials", "1", "--out", "{out}"],
    # layered shapes need at least one edge
    ["generate", "--shape", "layered", "--n", "6", "--m", "-3", "--out", "{out}"],
    ["generate", "--shape", "layered", "--n", "6", "--m", "0", "--out", "{out}"],
    EXPERIMENT + ["--shape", "layered", "--ns", "6", "--ms", "-3", "--out", "{out}"],
])
def test_bad_input_exit_1(argv, tmp_path, instance_file, capsys):
    out = tmp_path / "rows.csv"
    argv = [a.format(inst=instance_file, out=out) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()  # rejected before any CSV row is written


@pytest.mark.parametrize("argv", [
    EXPERIMENT + ["--phis", "0.5"],  # InvalidInterval in every trial
    EXPERIMENT + ["--models", "lowerbound"],  # BadParams in every trial
    EXPERIMENT + ["--phis", "2,0.5"],  # first cell's rows already written
])
def test_experiment_bad_params_exit_1(argv, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(argv + ["--trials", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()  # no partial grid left behind


def _memory_error_on_second_instance(monkeypatch):
    real = cli._experiment_instance
    calls = []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 2:
            raise MemoryError
        return real(*args)

    monkeypatch.setattr(cli, "_experiment_instance", flaky)


@pytest.mark.parametrize("memory_error", [False, True])
def test_stopped_experiment_leaves_existing_out_as_it_was(
    memory_error, tmp_path, monkeypatch, capsys
):
    out = tmp_path / "keep.csv"
    out.write_bytes(b"an earlier grid\r\n")
    if memory_error:
        _memory_error_on_second_instance(monkeypatch)
        argv = EXPERIMENT + ["--trials", "2"]
    else:
        argv = EXPERIMENT + ["--phis", "2,0.5"]  # the second cell is bad
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"an earlier grid\r\n"


def test_experiment_stopped_by_memory_error_leaves_no_file(
    tmp_path, monkeypatch, capsys
):
    _memory_error_on_second_instance(monkeypatch)
    out = tmp_path / "rows.csv"
    assert main(EXPERIMENT + ["--trials", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert not out.exists()


def test_experiment_self_check_failure_is_a_row(tmp_path, monkeypatch):
    def fail(instance, **kwargs):
        raise InternalInvariantError("boom")

    monkeypatch.setattr(cli, "run_ssp", fail)
    out = tmp_path / "rows.csv"
    assert main(EXPERIMENT + ["--trials", "2", "--out", str(out)]) == 3
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(",error:InternalInvariantError," in row for row in rows)


# Exit code and stderr label of every package error, as main reports them.
EXIT_CODES = {
    FlowError: (1, "error"),
    ParseError: (1, "error"),
    InvariantError: (1, "error"),
    BalanceMismatch: (1, "error"),
    InfeasibleFlow: (1, "error"),
    AuxiliaryArc: (1, "error"),
    InvalidInterval: (1, "error"),
    InfeasibleShape: (1, "error"),
    BadParams: (1, "error"),
    NoPath: (2, "infeasible"),
    IterationCapExceeded: (3, "invariant violation"),
    InternalInvariantError: (3, "invariant violation"),
    PredictionMismatch: (3, "invariant violation"),
}


def _subclasses(cls):
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


def test_every_error_class_has_an_expected_exit_code():
    assert _subclasses(FlowError) == set(EXIT_CODES)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("cls", EXIT_CODES, ids=lambda cls: cls.__name__)
def test_error_exit_code_and_label(cls, instance_file, monkeypatch, capsys):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_costfn", fail)
    code, label = EXIT_CODES[cls]
    assert main(["costfn", instance_file]) == code
    assert capsys.readouterr().err == f"{label}: boom\n"


def test_exhausted_memory_exits_1_without_traceback(monkeypatch, capsys):
    # generate --shape layered --n 100000 --m 1 asks numpy for 2.2e9 slot
    # indices; the command is replaced so that nothing is allocated
    def fail(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_generate", fail)
    argv = ["generate", "--shape", "layered", "--n", "100000", "--m", "1", "--seed", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
