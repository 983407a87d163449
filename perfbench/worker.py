"""One benchmark process: set up a workload, run it for a while, check it.

Started by run.py. Timed mode runs the user-facing operation (a CLI
subprocess on cli-n200) and reports latencies, set-up time and peak memory.
Traced mode runs the operation in-process, half of the time untraced and
half with the tracer installed, and reports the per-layer metrics. The last
stdout line is a JSON object; a worker that cannot set up exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Every worker runs at least this many operations, whatever its time share,
# so that the pooled latencies of a run always have a tail percentile.
MIN_OPS = 10
# Reasons kept per worker for failed operations.
MAX_REASONS = 5


class Failure(str):
    """Record of an operation that raised instead of returning."""


def run_phase(workload, seconds, in_process, tracer=None, health=None):
    """Closed loop, one operation at a time, until seconds and MIN_OPS are met.

    A phase stops only at the end of a cycle of the operation mix, so every
    item of the mix weighs the same in the latency median and counts per
    operation repeat exactly between runs.
    """
    cycle = workload.cycle
    records, latencies = [], []
    start = time.perf_counter()
    while True:
        item = cycle[len(records) % len(cycle)]
        if tracer is not None:
            tracer.op = len(records)
            span = tracer.open(workload.label(item))
        began = time.perf_counter()
        try:
            result = workload.run(item, in_process)
        except Exception as exc:  # a raising operation is counted as failed
            result = Failure(f"{type(exc).__name__}: {exc}")
        ended = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
            tracer.op = -1
        latencies.append(ended - began)
        if not isinstance(result, Failure):
            result = workload.record(item, result, health)
        records.append(result)
        done = ended - start >= seconds and len(records) >= MIN_OPS
        if done and len(records) % len(cycle) == 0:
            return records, latencies, time.perf_counter() - start


def check_all(workload, records, health):
    reasons = []
    for record in records:
        if isinstance(record, Failure):
            reason = str(record)
        else:
            try:
                reason = workload.check(record, health)
            except Exception as exc:  # a check that cannot run fails the operation
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            reasons.append(reason)
    return reasons


def per_layer(totals, ops, iterations, trial_steps, health, warning_count):
    """Per-layer metrics of the traced phase; times and counts are per operation."""

    def duration(*names, key="duration"):
        return sum(totals.get(name, {}).get(key, 0.0) for name in names)

    def count(name):
        return totals.get(name, {}).get("count", 0)

    def per_call(name):
        return duration(name) / count(name) if count(name) else 0.0

    drivers = ("design.grow_simple", "design.sparsify", "design.grow_by_sensitivity")
    simulate_s = duration("simulate.simulate")
    z_scores = health.z_scores
    values = {
        "fileio.load_s": duration(
            "fileio.load_graph", "fileio.load_candidates", "fileio.load_matrix"
        ) / ops,
        "fileio.report_s": duration("fileio.report_json") / ops,
        "graphs.eigh_calls": count("graphs.eigendecompose") / ops,
        "graphs.eigh_s": duration("graphs.eigendecompose") / ops,
        "graphs.cache_build_s": duration("graphs.EdgeFormCaches.build") / ops,
        "design.from_graph_s": duration("design.DesignState.from_graph") / ops,
        "graphs.rank_one_updates": count("graphs.sherman_morrison_update") / ops,
        "graphs.rank_one_update_s": duration("graphs.sherman_morrison_update") / ops,
        "design.iterations": iterations / ops,
        "design.iter_s": duration(*drivers) / iterations if iterations else 0.0,
        "graphs.edit_s": duration(
            "graphs.WeightedGraph.with_edge", "graphs.WeightedGraph.without_edge"
        ) / ops,
        "design.validate_s": duration("design.CandidateSet.validate_against") / ops,
        "design.grow_self_s": duration(
            "design.grow_simple", "design.grow_by_sensitivity", key="self"
        ) / ops,
        "design.sparsify_self_s": duration("design.sparsify", key="self") / ops,
        "design.sensitivity_calls": count("performance.sensitivity") / ops,
        "design.sensitivity_s": duration("performance.sensitivity") / ops,
        "performance.report_s": duration("performance.performance_report") / ops,
        "performance.rho_exact_calls": count("performance.rho_exact") / ops,
        "design.audit_s": duration("design.DesignState.audit_values") / ops,
        "simulate.call_s": per_call("simulate.simulate"),
        "simulate.trial_steps_per_s": trial_steps / simulate_s if simulate_s else 0.0,
        "graphs.cache_drift_max": health.cache_drift_max,
        "design.fit_rel_err": health.fit_rel_err,
        "simulate.z_mean": statistics.fmean(z_scores) if z_scores else 0.0,
        "simulate.ci99_hit_ratio": (
            health.ci99_hits / health.ci99_total if health.ci99_total else 0.0
        ),
        "numpy.runtime_warnings": warning_count / ops,
    }
    for command in ("analyze", "grow", "sparsify", "reweight", "sweep"):
        values[f"cli.{command}_s"] = per_call(f"cli.{command}")
    return values


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_vendor = "unknown"
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas_vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    began = time.perf_counter()
    import tdconsensus

    import_s = time.perf_counter() - began
    source = os.path.join(ROOT, "src", "tdconsensus")
    if os.path.dirname(os.path.abspath(tdconsensus.__file__)) != source:
        print(f"tdconsensus imported from {tdconsensus.__file__}, not {source}", file=sys.stderr)
        return 2

    from tracing import Tracer, summarize
    from workloads import WORKLOADS, Health

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir, ROOT)
        in_process = args.traced
        workload.run(workload.cycle[0], in_process)
        setup_s = time.monotonic() - args.started
        health = Health()
        result = {
            "setup_s": setup_s,
            "import_s": import_s,
            "env": environment(),
            "why": workload.why,
        }
        if not args.traced:
            records, latencies, wall = run_phase(workload, args.seconds, in_process)
            who = resource.RUSAGE_CHILDREN if workload.name == "cli-n200" else resource.RUSAGE_SELF
            peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
            result.update(latencies=latencies, wall_s=wall, peak_rss_mb=peak_mb)
            reasons = check_all(workload, records, health)
        else:
            half = args.seconds / 2.0
            base, base_latencies, _ = run_phase(workload, half, in_process)
            tracer = Tracer()
            tracer.install()
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    traced, latencies, _ = run_phase(workload, half, in_process, tracer, health)
            finally:
                tracer.uninstall()
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.write(spans_path)
            records = base + traced
            reasons = check_all(workload, records, health)
            good = [r for r in traced if not isinstance(r, Failure)]
            layers = per_layer(
                summarize(tracer.spans),
                len(traced),
                sum(workload.iterations(r) for r in good),
                sum(workload.trial_steps(r) for r in good),
                health,
                sum(issubclass(w.category, RuntimeWarning) for w in caught),
            )
            untraced_rate = len(base) / sum(base_latencies)
            layers["trace.overhead_ratio"] = len(traced) / sum(latencies) / untraced_rate
            layers["cli.import_s"] = import_s
            result.update(latencies=latencies, per_layer=layers, spans=spans_path)
        result.update(attempted=len(records), failed=len(reasons), reasons=reasons[:MAX_REASONS])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
