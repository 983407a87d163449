"""File formats, JSON reports, and the command-line interface."""

import ast
import json
import math
import re
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tdconsensus
import tdconsensus.cli
import tdconsensus.graphs
from tdconsensus import (
    CandidateSet,
    ConfigError,
    DesignState,
    DomainError,
    OutputSpec,
    ParseError,
    SimulationConfig,
    WeightedGraph,
    crossover_delay,
    csv_cell,
    eigendecompose,
    file_digest,
    grow_simple,
    hard_limit,
    load_candidates,
    load_graph,
    load_matrix,
    parse_graph_text,
    performance_report,
    report_json,
    reweight_scale,
    rho_approx,
    rho_exact,
    simulate,
    to_jsonable,
)
from tdconsensus.cli import main
from conftest import (
    format_graph,
    fresh_interpreter_output,
    random_connected_graph,
    stable_delay,
)


# --- graph text format ---


def test_graph_format_parse_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = random_connected_graph(rng)
        assert parse_graph_text(format_graph(g)) == g


def test_parse_accepts_comments_and_blank_lines():
    text = "# a comment\n\nn 3\n0 1 1.0  # trailing\n\n1 2 2.5\n"
    g = parse_graph_text(text)
    assert g.node_count == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 2.5))


def test_parse_graph_error_messages_carry_source_and_line():
    with pytest.raises(ParseError, match="graph.txt: empty"):
        parse_graph_text("# only comments\n", source="graph.txt")
    with pytest.raises(ParseError, match="graph.txt:1"):
        parse_graph_text("nodes 3\n0 1 1.0\n", source="graph.txt")
    with pytest.raises(ParseError, match="graph.txt:2"):
        parse_graph_text("# header next\nn x\n0 1 1.0\n", source="graph.txt")
    with pytest.raises(ParseError, match="graph.txt:2"):
        parse_graph_text("n 3\n0 1\n", source="graph.txt")
    with pytest.raises(ParseError, match="graph.txt:3"):
        parse_graph_text("n 3\n0 1 1.0\n1 2 heavy\n", source="graph.txt")
    with pytest.raises(ParseError, match="self-loop"):
        parse_graph_text("n 3\n1 1 1.0\n", source="graph.txt")
    with pytest.raises(ParseError, match="duplicate"):
        parse_graph_text("n 3\n0 1 1.0\n1 0 2.0\n", source="graph.txt")
    with pytest.raises(ParseError, match="node"):
        parse_graph_text("n 3\n0 7 1.0\n", source="graph.txt")
    with pytest.raises(ParseError, match="weight"):
        parse_graph_text("n 3\n0 1 -2.0\n", source="graph.txt")


def test_load_graph_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_graph(str(tmp_path / "nope.txt"))


def test_candidates_file_has_no_header(tmp_path):
    path = tmp_path / "cands.txt"
    path.write_text("# candidates\n0 2 1.5\n1 3 0.5\n")
    assert load_candidates(str(path)) == ((0, 2, 1.5), (1, 3, 0.5))


def test_load_matrix(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# C\n1 -1 0\n0 1 -1\n")
    matrix = load_matrix(str(path))
    assert matrix.shape == (2, 3)
    single = tmp_path / "row.txt"
    single.write_text("1 -1\n")
    assert load_matrix(str(single)).shape == (1, 2)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3\n")
    with pytest.raises(ParseError):
        load_matrix(str(bad))


def test_file_digest_is_sha256(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"hello\n")
    expected = "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
    assert file_digest(str(path)) == expected


# --- JSON reports ---


def test_report_json_round_trips_losslessly():
    g = WeightedGraph.path(4)
    out = OutputSpec.centering(4)
    report = {
        "performance": performance_report(g, out, 0.3),
        "values": [1.0 / 3.0, 1e-300, 1e300, math.inf],
        "count": np.int64(7),
        "scalar": np.float64(0.1),
    }
    text = report_json(report)
    assert json.loads(text) == to_jsonable(report)


def test_report_json_keeps_infinities():
    report = {"performance": performance_report(WeightedGraph.path(3), OutputSpec.centering(3), 0.0)}
    text = report_json(report)
    assert "Infinity" in text
    assert json.loads(text)["performance"]["stability_margin"] == math.inf


def test_csv_cell_round_trips_doubles():
    rng = np.random.default_rng(42)
    values = list(rng.normal(size=50)) + [1e-300, 1e300, math.pi, 0.1, 3.0]
    for value in values:
        assert float(csv_cell(float(value))) == float(value)


# --- CLI plumbing ---


def _write_graph(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(format_graph(graph))
    return str(path)


def test_cli_analyze_matches_library(tmp_path, capsys):
    path = _write_graph(tmp_path, "k3.txt", WeightedGraph.complete(3))
    assert main(["analyze", path, "--tau", "0.1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "analyze"
    assert report["tool"]["name"] == "tdconsensus"
    assert report["input"]["node_count"] == 3
    assert report["input"]["edge_count"] == 3
    assert report["input"]["sha256"] == file_digest(path)
    assert report["delay"] == 0.1
    assert report["spectrum"]["lambda_max"] == pytest.approx(3.0)
    expected = performance_report(WeightedGraph.complete(3), OutputSpec.centering(3), 0.1)
    assert report["performance"] == to_jsonable(expected)


def test_cli_analyze_zero_delay_infinite_margin(tmp_path, capsys):
    path = _write_graph(tmp_path, "p3.txt", WeightedGraph.path(3))
    assert main(["analyze", path, "--tau", "0"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["performance"]["stability_margin"] == math.inf
    assert report["performance"]["rho_exact"] == report["performance"]["rho_approx"]


def test_cli_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert main(["analyze", missing, "--tau", "0.1"]) == 2

    dup = tmp_path / "dup.txt"
    dup.write_text("n 3\n0 1 1.0\n1 0 1.0\n")
    assert main(["analyze", str(dup), "--tau", "0.1"]) == 2

    disconnected = tmp_path / "disc.txt"
    disconnected.write_text("n 4\n0 1 1.0\n2 3 1.0\n")
    assert main(["analyze", str(disconnected), "--tau", "0.1"]) == 3
    # Degrees past the float range do not change that: analyze took its own
    # spectrum before the report's connectivity check and exited 1 there.
    overflowing = tmp_path / "disc-huge.txt"
    overflowing.write_text("n 4\n0 1 1e308\n0 2 1e308\n")
    for command in ("analyze", "reweight", "simulate"):
        assert main([command, str(overflowing), "--tau", "0.1"]) == 3, command
        assert "disconnected" in capsys.readouterr().err

    unstable = _write_graph(tmp_path, "k3.txt", WeightedGraph.complete(3))
    assert main(["analyze", unstable, "--tau", "0.6"]) == 4

    # bad simulator step: ConfigError is a generic tool error
    p3 = _write_graph(tmp_path, "p3.txt", WeightedGraph.path(3))
    assert main(["simulate", p3, "--tau", "0.1", "--dt", "0.03"]) == 1

    # custom output kind without a matrix, and a matrix without the custom kind
    assert main(["analyze", p3, "--tau", "0.1", "--output-kind", "custom"]) == 2
    matrix = tmp_path / "c.txt"
    matrix.write_text("1 -1 0\n0 1 -1\n")
    assert main(["analyze", p3, "--tau", "0.1", "--output-matrix", str(matrix)]) == 2

    # non-finite delays are DomainErrors, generic tool errors
    assert main(["limits", p3, "--tau", "nan"]) == 1
    assert main(["analyze", p3, "--tau", "inf"]) == 1

    # So are values past the float range: analyze read an overflowed
    # lambda_max as a second kernel direction (exit 3), and limits printed
    # "optimal_uniform_weight": Infinity (exit 0).
    for huge in (WeightedGraph.path(3, 6e307), WeightedGraph(2, ((0, 1, 1e308),))):
        assert main(["analyze", _write_graph(tmp_path, "huge.txt", huge), "--tau", "0"]) == 1
        assert "float range" in capsys.readouterr().err
    assert main(["limits", p3, "--tau", "5e-324"]) == 1
    assert "overflows a float" in capsys.readouterr().err

    capsys.readouterr()  # drain accumulated stderr

    nan_weight = tmp_path / "nan.txt"
    nan_weight.write_text("n 3\n0 1 1.0\n1 2 nan\n")
    assert main(["analyze", str(nan_weight), "--tau", "0.1"]) == 2
    assert "weight" in capsys.readouterr().err

    # too few sweep samples and negative seeds are bad arguments, not tracebacks
    c3 = _write_graph(tmp_path, "c3.txt", WeightedGraph.cycle(3))
    assert main(["sweep-tau", p3, "--samples", "-1"]) == 2
    for samples in ("-1", "0", "1"):
        assert main(["sweep-tau", p3, c3, "--samples", samples]) == 2
    assert "samples" in capsys.readouterr().err
    cands = tmp_path / "c.txt"
    cands.write_text("0 2 1.0\n")
    grow = ["grow", p3, "--tau", "0.1", "--candidates", str(cands), "-k", "1"]
    assert main(grow + ["--method", "random", "--seed", "-1"]) == 2
    assert main(["simulate", p3, "--tau", "0.1", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_analyze_prints_a_finite_fit_at_a_subnormal_delay(tmp_path, capsys):
    # The fit printed "rho_approx": Infinity and "relative_gap": -Infinity here.
    path = _write_graph(tmp_path, "p4.txt", WeightedGraph.path(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze", path, "--tau", "1e-311"]) == 0
    performance = json.loads(capsys.readouterr().out)["performance"]
    assert math.isfinite(performance["rho_approx"]) and math.isfinite(performance["relative_gap"])
    assert performance["stability_margin"] == math.inf


def test_cli_analyze_refuses_a_measure_past_the_float_range(tmp_path, capsys):
    # It printed "rho_exact": Infinity and "relative_gap": NaN, and exited 0.
    path = _write_graph(tmp_path, "p15.txt", WeightedGraph.path(15, 1e-297))
    argv = ["analyze", path, "--tau", "3.970371892902808e+296"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--output-kind", "complete-incidence"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "float range" in captured.err


_ONE_NODE = WeightedGraph(1, ())


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-tau"],
        ["sweep-tau", "SECOND"],
        ["reweight", "--tau", "0.1"],
        ["simulate", "--tau", "0.1"],
        ["simulate", "--tau", "0"],
        ["analyze", "--tau", "0"],
    ],
)
def test_cli_one_node_graph_is_a_domain_error(tmp_path, capsys, argv):
    path = _write_graph(tmp_path, "one.txt", _ONE_NODE)
    argv = [argv[0], path] + [path if arg == "SECOND" else arg for arg in argv[1:]]
    assert main(argv) == 1
    assert "need at least two nodes" in capsys.readouterr().err


def test_reports_stand_where_only_the_optimal_uniform_weight_overflows(tmp_path, capsys):
    # At tau = 1e-309 on four nodes z / (n tau) passes the float range, so
    # hard_limit and limits refuse it, but the limit's value (4.6e-309) and
    # the reports that read only that value stand, as they did before.
    g, out, tau = WeightedGraph.path(4, 10.0), OutputSpec.centering(4), 1e-309
    with pytest.raises(DomainError, match="optimal weight overflows"):
        hard_limit(4, out, tau)
    report = performance_report(g, out, tau)
    assert report.hard_limit == pytest.approx(4.59575760787463e-309, rel=1e-12, abs=0.0)
    assert math.isfinite(report.rho_exact) and math.isfinite(report.rho_approx)
    path = _write_graph(tmp_path, "p4.txt", g)
    assert main(["limits", path, "--tau", str(tau)]) == 1
    assert "overflows a float" in capsys.readouterr().err
    assert main(["analyze", path, "--tau", str(tau)]) == 0
    assert json.loads(capsys.readouterr().out)["performance"] == to_jsonable(report)
    cands = tmp_path / "cands.txt"
    cands.write_text("0 2 1.0\n0 3 1.0\n")
    assert main(["grow", path, "--tau", str(tau), "--candidates", str(cands), "-k", "1"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["performance_before"] == to_jsonable(report)
    assert math.isfinite(printed["performance_after"]["hard_limit"])


@pytest.mark.parametrize(
    "call",
    [
        lambda out: crossover_delay(_ONE_NODE, _ONE_NODE, out),
        lambda out: reweight_scale(_ONE_NODE, out, 0.1),
        lambda out: simulate(_ONE_NODE, out, SimulationConfig(delay=0.1, seed=0)),
        lambda out: simulate(_ONE_NODE, out, SimulationConfig(delay=0.0, seed=0)),
        lambda out: performance_report(_ONE_NODE, out, 0.0),
        lambda out: rho_exact(eigendecompose(_ONE_NODE.laplacian()), out, 0.0),
        lambda out: DesignState.from_graph(_ONE_NODE, out, 0.1),
    ],
    ids=[
        "crossover_delay",
        "reweight_scale",
        "simulate",
        "simulate-tau0",
        "performance_report-tau0",
        "rho_exact-tau0",
        "from_graph",
    ],
)
def test_one_node_graph_is_a_domain_error(call):
    with pytest.raises(DomainError, match="need at least two nodes"):
        call(OutputSpec.centering(1))


_P4 = WeightedGraph.path(4)


@pytest.mark.parametrize(
    "call",
    [
        lambda out: performance_report(_P4, out, 0.2),
        lambda out: rho_exact(eigendecompose(_P4.laplacian()), out, 0.2),
        lambda out: rho_approx(eigendecompose(_P4.laplacian()), out, 0.2),
        lambda out: reweight_scale(_P4, out, 0.2),
        lambda out: crossover_delay(_P4, WeightedGraph.cycle(4), out),
        lambda out: hard_limit(4, out, 0.2),
        lambda out: DesignState.from_graph(_P4, out, 0.2),
        lambda out: simulate(_P4, out, SimulationConfig(delay=0.2, seed=0)),
    ],
    ids=[
        "performance_report",
        "rho_exact",
        "rho_approx",
        "reweight_scale",
        "crossover_delay",
        "hard_limit",
        "from_graph",
        "simulate",
    ],
)
def test_output_for_another_node_count_is_a_config_error(call):
    with pytest.raises(ConfigError, match="disagree on the node count"):
        call(OutputSpec.complete_incidence(_P4.node_count + 5))


def test_cli_candidate_file_problems_exit_two(tmp_path, capsys):
    p4 = _write_graph(tmp_path, "p4.txt", WeightedGraph.path(4))

    dup_pair = tmp_path / "cdup.txt"
    dup_pair.write_text("0 2 1.0\n2 0 1.0\n")
    assert main(["grow", p4, "--tau", "0.1", "--candidates", str(dup_pair), "-k", "1"]) == 2

    existing = tmp_path / "cexist.txt"
    existing.write_text("0 1 1.0\n")
    assert main(["grow", p4, "--tau", "0.1", "--candidates", str(existing), "-k", "1"]) == 2

    out_of_range = tmp_path / "crange.txt"
    out_of_range.write_text("0 9 1.0\n")
    assert main(["grow", p4, "--tau", "0.1", "--candidates", str(out_of_range), "-k", "1"]) == 2

    good = tmp_path / "cgood.txt"
    good.write_text("0 2 1.0\n")
    assert main(["grow", p4, "--tau", "0.1", "--candidates", str(good), "-k", "-1"]) == 2
    assert main(["sparsify", p4, "--tau", "0.1", "-k", "-1"]) == 2
    capsys.readouterr()


def test_cli_import_loads_no_scipy_module():
    # Each CLI command starts a fresh interpreter, and importing any of
    # scipy.stats, scipy.integrate or scipy.linalg costs more than the whole
    # package. Only simulate past 128 trials (scipy.special, for its
    # t-quantile) and the quadrature oracle load scipy.
    code = (
        "import sys, tdconsensus.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert fresh_interpreter_output(code) == "[]"


def test_package_exports_are_exactly_all():
    # A name removed from its module but left in __all__ fails to resolve
    # and breaks a star import.
    exported = tdconsensus.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        getattr(tdconsensus, name)
    namespace: dict = {}
    exec("from tdconsensus import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(exported)


def test_every_export_has_a_reader():
    # Every export, and every function, class and method the package defines
    # (dunders aside), has a reader: a name, attribute or string (perfbench
    # traces functions by name) in the package outside __init__, in
    # perfbench, or a word of a README python example. A definition or an
    # import reads nothing, and neither do the tests.
    package = Path(tdconsensus.__file__).resolve().parent
    root = package.parents[1]
    read: set[str] = set()
    defined = set(tdconsensus.__all__)
    modules = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    for path in modules + sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path in modules:
                defined.add(node.name)
    readme = (root / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        read.update(re.findall(r"\w+", block))
    dunders = {name for name in defined if name.startswith("__") and name.endswith("__")}
    assert sorted(defined - dunders - read) == []


def test_cli_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_cli_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_cli_grow_matches_library(tmp_path, capsys):
    g = WeightedGraph.path(5)
    path = _write_graph(tmp_path, "p5.txt", g)
    cands = tmp_path / "cands.txt"
    entries = ((0, 2, 1.0), (0, 3, 1.0), (1, 3, 1.0))
    cands.write_text("".join(f"{u} {v} {w}\n" for u, v, w in entries))
    tau = 0.2
    assert main(["grow", path, "--tau", str(tau), "--candidates", str(cands), "-k", "2"]) == 0
    report = json.loads(capsys.readouterr().out)

    out = OutputSpec.centering(5)
    state = DesignState.from_graph(g, out, tau)
    trace = grow_simple(state, CandidateSet(entries=entries, budget=2))
    assert report["method"] == "simple"
    assert report["budget"] == 2
    assert report["seed"] is None
    assert report["termination"] == trace.termination
    assert [tuple(e["edge"]) for e in report["trace"]] == [e.edge for e in trace.entries]
    assert report["final_edges"] == [[u, v, w] for u, v, w in state.graph.edges]
    assert report["performance_after"]["rho_exact"] == pytest.approx(
        trace.entries[-1].rho_exact
    )


def test_cli_seeded_runs_are_byte_identical(tmp_path, capsys):
    path = _write_graph(tmp_path, "p5.txt", WeightedGraph.path(5))
    cands = tmp_path / "cands.txt"
    cands.write_text("0 2 1.0\n0 3 1.0\n1 3 1.0\n")
    argv = [
        "grow", path, "--tau", "0.2", "--candidates", str(cands),
        "-k", "2", "--method", "random", "--seed", "3",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    sim_argv = ["simulate", path, "--tau", "0.1", "--trials", "3",
                "--seed", "5", "--horizon", "20", "--burn-in", "4"]
    assert main(sim_argv) == 0
    first = capsys.readouterr().out
    assert main(sim_argv) == 0
    assert capsys.readouterr().out == first


def test_cli_simulate_report_contents(tmp_path, capsys):
    path = _write_graph(tmp_path, "k3.txt", WeightedGraph.complete(3))
    argv = ["simulate", path, "--tau", "0.1", "--trials", "4",
            "--seed", "1", "--horizon", "40", "--burn-in", "8"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    estimate = report["estimate"]
    assert estimate["trials"] == 4
    assert estimate["seed"] == 1
    assert estimate["ci99_low"] < estimate["mean"] < estimate["ci99_high"]
    assert report["within_ci99"] == (
        estimate["ci99_low"] <= report["rho_exact"] <= estimate["ci99_high"]
    )


def test_cli_limits_matches_library(tmp_path, capsys):
    from tdconsensus import hard_limit

    path = _write_graph(tmp_path, "c6.txt", WeightedGraph.cycle(6))
    assert main(["limits", path, "--tau", "0.05"]) == 0
    report = json.loads(capsys.readouterr().out)
    limit = hard_limit(6, OutputSpec.centering(6), 0.05)
    assert report["hard_limit"] == limit.value
    assert report["optimal_uniform_weight"] == limit.optimal_uniform_weight


def test_cli_reweight_report(tmp_path, capsys):
    from tdconsensus import reweight_scale

    g = WeightedGraph.complete(5, weight=0.5)
    path = _write_graph(tmp_path, "k5.txt", g)
    assert main(["reweight", path, "--tau", "0.05"]) == 0
    report = json.loads(capsys.readouterr().out)
    result = reweight_scale(g, OutputSpec.centering(5), 0.05)
    assert report["kappa_star"] == result.kappa_star
    assert report["rho_after"] == result.rho_after
    assert report["bracket"] == list(result.bracket)


def test_cli_sweep_single_graph_csv(tmp_path, capsys):
    path = _write_graph(tmp_path, "p4.txt", WeightedGraph.path(4))
    assert main(["sweep-tau", path, "--samples", "40"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tau,rho"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 40
    taus = [r[0] for r in rows]
    rhos = [r[1] for r in rows]
    assert taus == sorted(taus)
    assert all(b > a for a, b in zip(rhos, rhos[1:]))  # delay monotonicity


def test_cli_sweep_two_graphs_reports_crossover(tmp_path, capsys):
    s5 = _write_graph(tmp_path, "s5.txt", WeightedGraph.star(5))
    p5 = _write_graph(tmp_path, "p5.txt", WeightedGraph.path(5))
    assert main(["sweep-tau", s5, p5, "--samples", "50"]) == 0
    out_text = capsys.readouterr().out
    lines = out_text.strip().splitlines()
    assert lines[0] == "tau,rho_first,rho_second,difference"
    comments = [line for line in lines if line.startswith("#")]
    expected = crossover_delay(
        WeightedGraph.star(5), WeightedGraph.path(5), OutputSpec.centering(5), samples=50
    )
    assert comments[0] == f"# crossover_tau = {csv_cell(expected.tau_star)}"
    assert comments[1] == (
        f"# bracket = {csv_cell(expected.bracket_low)} {csv_cell(expected.bracket_high)}"
    )
    lo, hi = expected.certified_dominance
    assert comments[2] == f"# certified_dominance = {csv_cell(lo)} {csv_cell(hi)}"


def test_cli_sweep_no_crossover_comment(tmp_path, capsys):
    p4 = _write_graph(tmp_path, "p4.txt", WeightedGraph.path(4))
    p4b = _write_graph(tmp_path, "p4b.txt", WeightedGraph.path(4))
    assert main(["sweep-tau", p4, p4b, "--samples", "30"]) == 0
    assert "# crossover = none" in capsys.readouterr().out


def _readme_block(readme: str, opening: str) -> str:
    """The fenced block of README.md whose text starts with opening."""
    return next(b for b in re.findall(r"```\w*\n(.*?)```", readme, re.S) if b.startswith(opening))


def _readme_command(readme: str, opening: str) -> list[str]:
    """The arguments after the program name of the documented command."""
    return shlex.split(_readme_block(readme, opening))[1:]


def test_readme_cli_examples_print_what_they_document(tmp_path, capsys, monkeypatch):
    # The README's analyze report and sweep trailer are run as written, so
    # the documented numbers cannot drift from what the commands print.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    Path("path4.txt").write_text(_readme_block(readme, "# path on 4 nodes\n"))
    documented = json.loads(_readme_block(readme, '{\n  "command": "analyze"'))
    assert main(_readme_command(readme, "tdconsensus analyze ")) == 0
    report = json.loads(capsys.readouterr().out)
    for section in ("spectrum", "performance"):
        assert report[section].keys() == documented[section].keys()
        for key, value in documented[section].items():
            expected = pytest.approx(value, rel=1e-12, abs=0.0)
            assert report[section][key] == expected, (section, key)
    Path("star5.txt").write_text(format_graph(WeightedGraph.star(5)))
    Path("path5.txt").write_text(format_graph(WeightedGraph.path(5)))
    assert main(_readme_command(readme, "tdconsensus sweep-tau ")) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
    trailer = [line for line in _readme_block(readme, "tau,").splitlines() if line.startswith("#")]
    assert len(printed) == len(trailer) == 3
    for ours, theirs in zip(printed, trailer):
        name, numbers = ours.split(" = ")
        documented_name, documented_numbers = theirs.split(" = ")
        assert name == documented_name
        assert [float(x) for x in numbers.split()] == pytest.approx(
            [float(x) for x in documented_numbers.split()], rel=1e-12, abs=0.0
        )


def test_cli_sweep_mismatched_node_counts(tmp_path, capsys):
    p4 = _write_graph(tmp_path, "p4.txt", WeightedGraph.path(4))
    p5 = _write_graph(tmp_path, "p5.txt", WeightedGraph.path(5))
    assert main(["sweep-tau", p4, p5]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("graph_count", [1, 2])
def test_cli_sweep_decomposes_each_graph_once(tmp_path, capsys, monkeypatch, graph_count):
    original = tdconsensus.graphs.eigendecompose
    calls = []

    def counted(matrix, **options):
        calls.append(matrix.shape)
        return original(matrix, **options)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tdconsensus" and vars(module).get("eigendecompose") is original:
            monkeypatch.setattr(module, "eigendecompose", counted)
    paths = [
        _write_graph(tmp_path, f"g{i}.txt", graph)
        for i, graph in enumerate([WeightedGraph.star(5), WeightedGraph.path(5)][:graph_count])
    ]
    assert main(["sweep-tau", *paths, "--samples", "50"]) == 0
    assert len(calls) == graph_count
    capsys.readouterr()


@pytest.mark.parametrize("option", ["--tau", "--tau-min", "--tau-max"])
def test_cli_sweep_takes_no_delay_option(tmp_path, capsys, option):
    path = _write_graph(tmp_path, "p4.txt", WeightedGraph.path(4))
    with pytest.raises(SystemExit) as exc:
        main(["sweep-tau", path, option, "0.1"])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err


def test_cli_imports_no_private_package_name():
    tree = ast.parse(Path(tdconsensus.cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("tdconsensus"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_cli_custom_output_matrix(tmp_path, capsys):
    path = _write_graph(tmp_path, "p3.txt", WeightedGraph.path(3))
    matrix = tmp_path / "c.txt"
    matrix.write_text("1 -1 0\n0 1 -1\n")
    assert main([
        "analyze", path, "--tau", "0.1",
        "--output-kind", "custom", "--output-matrix", str(matrix),
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    c = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    expected = performance_report(WeightedGraph.path(3), OutputSpec.custom(c), 0.1)
    assert report["performance"]["rho_exact"] == expected.rho_exact

    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 1\n")  # rows must sum to zero
    assert main([
        "analyze", path, "--tau", "0.1",
        "--output-kind", "custom", "--output-matrix", str(bad),
    ]) == 2
    capsys.readouterr()


def test_cli_sparsify_report(tmp_path, capsys):
    g = WeightedGraph.complete(4)
    path = _write_graph(tmp_path, "k4.txt", g)
    assert main(["sparsify", path, "--tau", "0.35", "-k", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "sparsify"
    assert report["budget"] == 2
    assert len(report["final_edges"]) == 6 - len(report["trace"])
    removed = {tuple(e["edge"]) for e in report["trace"]}
    kept = {(u, v) for u, v, _ in map(tuple, report["final_edges"])}
    assert removed.isdisjoint(kept)
    assert report["performance_after"]["rho_exact"] < report["performance_before"]["rho_exact"]


def test_cli_trace_entries_carry_one_fit_change(tmp_path, capsys):
    # A move's one number is its fit change, `contribution`, negative when it
    # helps; no entry repeats it with the other sign.
    keys = [
        "iteration", "action", "edge", "weight", "contribution",
        "rho_fit", "rho_exact", "stability_margin", "sensitivity",
    ]
    path = _write_graph(tmp_path, "p5.txt", WeightedGraph.path(5))
    cands = tmp_path / "cands.txt"
    cands.write_text("0 2 1.0\n0 3 1.0\n1 3 1.0\n")
    grow = ["grow", path, "--tau", "0.2", "--candidates", str(cands), "-k", "2"]
    k4 = _write_graph(tmp_path, "k4.txt", WeightedGraph.complete(4))
    for argv in (
        grow,
        grow + ["--method", "random", "--seed", "3"],
        ["sparsify", k4, "--tau", "0.35", "-k", "2"],
    ):
        assert main(argv) == 0
        trace = json.loads(capsys.readouterr().out)["trace"]
        assert trace
        for entry in trace:
            assert list(entry) == keys
            assert entry["contribution"] < 0.0 or entry["action"] == "skip"
