"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from worker import Failure, check_all  # noqa: E402
from workloads import WORKLOADS, CliWorkload, GrowWorkload, Health  # noqa: E402


@pytest.fixture
def workdir():
    """Scratch directory inside the checkout, like the benchmark's own files."""
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=worker.OUT_DIR)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize(
    "count, percentile, rank", [(20, 50.0, 10), (100, 90.0, 90), (1000, 99.0, 990)]
)
def test_tail_percentile_leaves_ten_samples_beyond(count, percentile, rank):
    samples = [float(i) for i in range(1, count + 1)]
    random.Random(count).shuffle(samples)
    got_percentile, value = run.tail_percentile(samples)
    assert got_percentile == percentile
    assert value == float(rank)
    assert sum(x > value for x in samples) == 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert run.tail_percentile([1.0] * 10) is None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_completes_at_tiny_size_with_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv + ["--size", "tiny"]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(name, entry["unit"]) for name, entry in line["metrics"].items()] == list(expected)
    assert all(isinstance(entry["value"], (int, float)) for entry in line["metrics"].values())


def test_perturbed_rho_fit_counts_as_a_failure(workdir):
    workload = GrowWorkload(5, "tiny", workdir, ROOT)
    item = workload.cycle[0]
    record = workload.record(item, workload.run(item, False), None)
    item, selection, graph, rho_fit = record
    perturbed = (item, selection, graph, rho_fit * (1.0 + 1e-6))
    failed = (item, selection, graph, float("nan"))
    reasons = check_all(workload, [record, perturbed, failed, Failure("boom")], Health())
    assert len(reasons) == 3
    assert "rho_fit" in reasons[0]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: WORKLOADS[name].why for name in run.WORKLOAD_NAMES
    }


def _cli_counts(workload, argv):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        code, stdout = workload.run(("traced", argv), True)
    finally:
        tracer.uninstall()
    assert code == 0
    totals = summarize(tracer.spans)
    return {name: entry["count"] for name, entry in totals.items()}, stdout


def test_traced_counts_match_the_package(workdir):
    workload = CliWorkload(1, "full", workdir, ROOT)
    commands = dict(workload.cycle)
    counts, _ = _cli_counts(workload, commands["analyze"])
    assert counts["graphs.eigendecompose"] == 2
    counts, stdout = _cli_counts(workload, commands["grow"])
    additions = len(json.loads(stdout)["trace"])
    assert additions == 8
    assert counts["graphs.eigendecompose"] == 13
    assert counts["graphs.sherman_morrison_update"] == additions
    assert counts["design.DesignState.from_graph"] == 1
    counts, _ = _cli_counts(workload, commands["grow"] + ["--audit", "off"])
    assert counts["graphs.eigendecompose"] == 5
    # uninstall puts every original back
    import tdconsensus.design
    import tdconsensus.graphs

    assert not hasattr(tdconsensus.graphs.eigendecompose, "__wrapped__")
    assert not hasattr(tdconsensus.design.DesignState.from_graph, "__wrapped__")


def test_traced_design_counts_match_the_package(workdir):
    workload = GrowWorkload(2, "tiny", workdir, ROOT)
    tracer = Tracer()
    tracer.install()
    try:
        for op, item in enumerate(workload.cycle):
            tracer.op = op
            _, trace = workload.run(item, False)
            assert trace.entries, item
            counts = {name: e["count"] for name, e in summarize(tracer.spans).items()}
            tracer.spans.clear()
            assert counts["graphs.sherman_morrison_update"] == len(trace.entries)
            if item[0] == "grow":
                assert counts["design.DesignState.from_graph"] == 1
                assert counts["graphs.eigendecompose"] == 3
            else:
                assert "design.DesignState.from_graph" not in counts
    finally:
        tracer.uninstall()


def _traced_targets():
    """Every traced function and method as its defining module holds it."""
    from importlib import import_module

    for module_name, attr in tracing.FUNCTIONS:
        yield getattr(import_module(f"tdconsensus.{module_name}"), attr)
    for module_name, cls_name, attr in tracing.METHODS:
        yield getattr(getattr(import_module(f"tdconsensus.{module_name}"), cls_name), attr)


def test_tracer_wraps_every_target():
    assert not any(hasattr(fn, "__wrapped__") for fn in _traced_targets())
    tracer = Tracer()
    tracer.install()
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in _traced_targets())
    finally:
        tracer.uninstall()
    assert not any(hasattr(fn, "__wrapped__") for fn in _traced_targets())


def test_tracer_refuses_a_missing_target(monkeypatch):
    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + (("graphs", "gone"),))
    tracer = Tracer()
    with pytest.raises(LookupError, match="graphs.gone"):
        tracer.install()
    assert not tracer._undo
    monkeypatch.undo()
    assert not any(hasattr(fn, "__wrapped__") for fn in _traced_targets())


def test_runner_fails_without_the_package_source(workdir):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, os.path.join(workdir, "perfbench"), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-n200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
