"""Benchmark of tdconsensus: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py for why each was chosen): cli-n200, grow-n800
and simulate-small; "all" runs each in turn and prefixes the metric names
of the last line with the workload name. Each is a closed loop with one client in one
process, one operation at a time, with BLAS threads capped at the number of
usable cores. All inputs are generated from --seed.

--trace 0 starts three fresh worker processes one after another, each
setting up from scratch and measuring a third of --seconds, and prints the
end-to-end metrics: latency median and tail, throughput, set-up time
(median of the three), peak memory (median) and the success ratio.
--trace 1 starts one worker that runs the operation in-process, first
untraced and then with spans recorded around the package's public
functions, and prints the per-layer metrics.

Every operation's output is checked outside its timed interval. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics; the full result, with the environment, is written under
perfbench/out/. Exits non-zero, printing no result, when the package
source is missing or a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cli-n200", "grow-n800", "simulate-small")
# Fresh processes per timed run; set-up time and peak memory are their medians.
SETUPS_PER_RUN = 3
# A run must end well inside three minutes, including every set-up.
RUN_DEADLINE_S = 170.0
# The tail percentile is the highest one with at least this many samples above it.
TAIL_BEYOND = 10

END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)

PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.analyze_s", "s"),
    ("cli.grow_s", "s"),
    ("cli.sparsify_s", "s"),
    ("cli.reweight_s", "s"),
    ("cli.sweep_s", "s"),
    ("fileio.load_s", "s"),
    ("fileio.report_s", "s"),
    ("graphs.eigh_calls", "count"),
    ("graphs.eigh_s", "s"),
    ("graphs.cache_build_s", "s"),
    ("design.from_graph_s", "s"),
    ("graphs.rank_one_updates", "count"),
    ("graphs.rank_one_update_s", "s"),
    ("design.iterations", "count"),
    ("design.iter_s", "s"),
    ("graphs.edit_s", "s"),
    ("design.validate_s", "s"),
    ("design.grow_self_s", "s"),
    ("design.sparsify_self_s", "s"),
    ("design.sensitivity_calls", "count"),
    ("design.sensitivity_s", "s"),
    ("performance.report_s", "s"),
    ("performance.rho_exact_calls", "count"),
    ("design.audit_s", "s"),
    ("simulate.call_s", "s"),
    ("simulate.trial_steps_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("graphs.cache_drift_max", "ratio"),
    ("design.fit_rel_err", "ratio"),
    ("simulate.z_mean", "sigma"),
    ("simulate.ci99_hit_ratio", "ratio"),
    ("numpy.runtime_warnings", "count"),
)


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def tail_percentile(samples):
    """(percentile, value) of the highest nearest-rank percentile that has at
    least TAIL_BEYOND samples above it, or None with too few samples.

    With N samples that is rank N - 10: p50 at 20 samples, p90 at 100 and
    p99 at 1000.
    """
    count = len(samples)
    if count <= TAIL_BEYOND:
        return None
    rank = count - TAIL_BEYOND
    return 100.0 * rank / count, sorted(samples)[rank - 1]


def usable_cores():
    return len(os.sched_getaffinity(0))


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(usable_cores())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def run_worker(workload, seed, seconds, traced, size, deadline):
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--size", size,
        "--started", repr(time.monotonic()),
    ]
    if traced:
        command.append("--traced")
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} worker passed the run deadline") from None
    finally:
        # Stop whatever still runs in the worker's session, then reap the worker.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
    if process.returncode != 0:
        raise BenchmarkError(
            f"{workload} worker exited with {process.returncode}:\n{stderr[-2000:]}"
        )
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchmarkError(f"{workload} worker printed no result:\n{stderr[-2000:]}") from None


def measure(workload, seed, seconds, trace, size="full"):
    """One benchmark run of one workload; returns (result line, details)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        workers = [run_worker(workload, seed, seconds, True, size, deadline)]
    else:
        share = seconds / SETUPS_PER_RUN
        workers = [
            run_worker(workload, seed, share, False, size, deadline)
            for _ in range(SETUPS_PER_RUN)
        ]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    latencies = [x for w in workers for x in w["latencies"]]
    tail = tail_percentile(latencies)
    if trace:
        values = workers[0]["per_layer"]
        units = PER_LAYER
    else:
        if tail is None:
            raise BenchmarkError(f"{workload}: {len(latencies)} samples leave no tail percentile")
        values = {
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail[1],
            "throughput_ops_s": len(latencies) / sum(w["wall_s"] for w in workers),
            "setup_s": statistics.median(w["setup_s"] for w in workers),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
            "success_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    details = {
        "workload": workload,
        "why": workers[0]["why"],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "git_commit": git_commit(),
            "python": platform.python_version(),
            **workers[0]["env"],
            "nproc": usable_cores(),
            "cpu_model": cpu_model(),
        },
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail[0] if tail else None,
        "setup_s_each": [w["setup_s"] for w in workers],
        "failures": [reason for w in workers for reason in w["reasons"]],
        "spans": workers[0].get("spans"),
        **line,
    }
    return line, details


def report(line, details):
    """Prints the human-readable lines and writes the full result file."""
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{details['workload']}-seed{details['seed']}-trace{details['trace']}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=2)
    print(f"# {details['workload']}: {details['why']}")
    print(f"# environment {json.dumps(details['environment'])}")
    if details["latency_tail_percentile"] is not None and not details["trace"]:
        print(
            f"# latency_tail_s is p{details['latency_tail_percentile']:.1f} "
            f"of {details['latency_samples']} samples"
        )
    for reason in details["failures"]:
        print(f"# failed: {reason}")
    for metric, entry in line["metrics"].items():
        print(f"{details['workload']} {metric} {entry['value']!r} {entry['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    # On SIGTERM, unwind through run_worker so that the worker is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "tdconsensus", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            line, details = measure(name, args.seed, args.seconds, args.trace, args.size)
            report(line, details)
            lines[name] = line
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, l in lines.items()
                for metric, entry in l["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
