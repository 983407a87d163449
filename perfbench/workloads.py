"""The workloads: seeded inputs, one operation, and its correctness check.

Every input is generated from the workload seed by this module; the
program under test only sees the generated files and objects. Graphs,
thresholds and oracles are computed here with numpy, so a check does not
rest on the code it checks (the analyze oracle uses the package's own
frequency-domain quadrature, an independent route to the same value; the
design check evaluates the package's rho_approx on a fresh
eigendecomposition, since what it checks is the rank-one tracking).
Each workload exposes:

* ``cycle``: the fixed list of items one pass of the operation mix runs;
* ``run(item, in_process)``: the timed operation;
* ``record(item, result, health)``: the small summary the checks need,
  taken outside the timed interval;
* ``check(record, health)``: ``None`` when the output is correct, else a
  one-line reason.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance of the analyze check against the per-mode quadrature.
QUADRATURE_REL_TOL = 1e-7
# Relative tolerance of a tracked design fit against a fresh eigendecomposition.
FIT_REL_TOL = 1e-8
# A simulated estimate passes when |estimate / exact - 1| stays below this.
# Over 72 estimates on these graphs the relative error had mean +0.9 %
# (the Euler bias of the default 25 substeps), standard deviation 1.0 % and
# maximum +4.0 %, larger on the 8-node graphs; 0.10 keeps a correct
# simulator clear of it by about five deviations, while a wrong noise scale,
# a dropped delay or a wrong drift is off by tens of percent.
SIMULATE_REL_BOUND = 0.10


@dataclass
class Health:
    """Numerics-health values gathered by the checks; reported, never filtered."""

    fit_rel_err: float = 0.0
    cache_drift_max: float = 0.0
    z_scores: list = field(default_factory=list)
    ci99_hits: int = 0
    ci99_total: int = 0


class Workload:
    """Defaults for what a workload's records do not carry."""

    def label(self, item):
        """Name of the span around one traced operation."""
        return "op"

    def iterations(self, record):
        """Greedy design iterations the operation ran."""
        return 0

    def trial_steps(self, record):
        """Simulated trial-steps the operation ran."""
        return 0


# --- input generation --------------------------------------------------


def random_connected_edges(rng, n, edge_count, low=0.5, high=1.5):
    """Random recursive tree plus uniformly drawn extra edges, random weights."""
    edges = {}
    for v in range(1, n):
        edges[(int(rng.integers(0, v)), v)] = float(rng.uniform(low, high))
    while len(edges) < edge_count:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        key = (min(u, v), max(u, v))
        if u != v and key not in edges:
            edges[key] = float(rng.uniform(low, high))
    return edges


def absent_pairs(rng, n, count, taken):
    """count distinct node pairs outside taken; taken is extended in place."""
    pairs = []
    while len(pairs) < count:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        key = (min(u, v), max(u, v))
        if u != v and key not in taken:
            taken.add(key)
            pairs.append(key)
    return pairs


def laplacian(n, edges):
    lap = np.zeros((n, n))
    for (u, v), w in edges.items():
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


def threshold(n, edges):
    """Stability threshold pi / (2 lambda_max) of the delayed network."""
    return math.pi / (2.0 * float(np.linalg.eigvalsh(laplacian(n, edges))[-1]))


def centering_modes(n, edges):
    """Nonzero Laplacian eigenvalues and their centering-output weights."""
    lam, vectors = np.linalg.eigh(laplacian(n, edges))
    weights = 1.0 - vectors.sum(axis=0) ** 2 / n
    return lam[1:], weights[1:]


def exact_rho(n, edges, delay):
    """Closed-form steady-state variance for the centering output."""
    lam, weights = centering_modes(n, edges)
    x = lam * delay
    return float(np.sum(weights * np.cos(x) / (2.0 * lam * (1.0 - np.sin(x)))))


def as_graph(n, edges):
    from tdconsensus import WeightedGraph

    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))


def write_graph(path, n, edges):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n {n}\n")
        for (u, v), w in edges.items():
            handle.write(f"{u} {v} {w!r}\n")


def write_candidates(path, candidates):
    with open(path, "w", encoding="utf-8") as handle:
        for u, v, w in candidates:
            handle.write(f"{u} {v} {w!r}\n")


def relative_error(value, reference):
    return abs(value - reference) / abs(reference)


# --- cli-n200 ----------------------------------------------------------


class CliWorkload(Workload):
    name = "cli-n200"
    why = (
        "what a CLI user waits for: a fresh interpreter per command, so import, "
        "parsing and reports dominate and linear-algebra gains should barely move it"
    )
    sizes = {"full": (200, 60), "tiny": (12, 6)}

    def __init__(self, seed, size, workdir, root):
        import tdconsensus.cli

        self.cli = tdconsensus.cli
        self.root = root
        n, candidate_count = self.sizes[size]
        rng = np.random.default_rng([seed, 200])
        self.n = n
        self.edges = random_connected_edges(rng, n, 2 * n)
        taken = set(self.edges)
        candidates = [
            (u, v, float(rng.uniform(0.2, 0.8)))
            for u, v in absent_pairs(rng, n, candidate_count, taken)
        ]
        cycle_edges = {(i, i + 1): 1.0 for i in range(n - 1)}
        cycle_edges[(0, n - 1)] = 1.0
        graph = os.path.join(workdir, "graph.txt")
        cands = os.path.join(workdir, "candidates.txt")
        ring = os.path.join(workdir, "cycle.txt")
        write_graph(graph, n, self.edges)
        write_candidates(cands, candidates)
        write_graph(ring, n, cycle_edges)
        edge_tau = threshold(n, self.edges)
        self.tau_mid = 0.3 * edge_tau
        mid, near = repr(self.tau_mid), repr(0.97 * edge_tau)
        self.cycle = [
            ("analyze", ["analyze", graph, "--tau", mid]),
            ("grow", ["grow", graph, "--tau", mid, "--candidates", cands, "-k", "8"]),
            ("sparsify", ["sparsify", graph, "--tau", near, "-k", "8"]),
            ("reweight", ["reweight", graph, "--tau", mid]),
            ("sweep", ["sweep-tau", graph, ring]),
        ]
        self._oracle = None

    def run(self, item, in_process):
        _, argv = item
        if in_process:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(list(argv))
            return code, out.getvalue()
        done = subprocess.run(
            [sys.executable, "-m", "tdconsensus.cli", *argv],
            capture_output=True,
            text=True,
            cwd=self.root,
            timeout=120,
        )
        return done.returncode, done.stdout

    def label(self, item):
        return f"cli.{item[0]}"

    def record(self, item, result, health):
        return item[0], result

    def iterations(self, record):
        command, (code, stdout) = record
        if code != 0 or command not in ("grow", "sparsify"):
            return 0
        return len(json.loads(stdout)["trace"])

    def oracle(self):
        """Analyze's rho by per-mode frequency-domain quadrature, once per input."""
        if self._oracle is None:
            from tdconsensus import mode_variance_quadrature

            lam, weights = centering_modes(self.n, self.edges)
            self._oracle = sum(
                float(w) * mode_variance_quadrature(float(m), self.tau_mid)
                for m, w in zip(lam, weights)
            )
        return self._oracle

    def check(self, record, health):
        command, (code, stdout) = record
        if code != 0:
            return f"{command}: exit code {code}"
        if command == "sweep":
            return check_sweep_csv(stdout)
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{command}: report is not JSON ({exc})"
        if command == "analyze":
            rho = report["performance"]["rho_exact"]
            if not relative_error(rho, self.oracle()) <= QUADRATURE_REL_TOL:
                return f"analyze: rho_exact {rho!r} disagrees with quadrature {self.oracle()!r}"
        return None


def check_sweep_csv(text):
    lines = text.splitlines()
    if not lines or lines[0] != "tau,rho_first,rho_second,difference":
        return "sweep: unexpected CSV header"
    rows = [line for line in lines[1:] if not line.startswith("#")]
    try:
        values = [[float(cell) for cell in row.split(",")] for row in rows]
    except ValueError:
        return "sweep: non-numeric CSV cell"
    if not values or any(len(row) != 4 or not all(map(math.isfinite, row)) for row in values):
        return "sweep: malformed CSV rows"
    if not any(line.startswith("# crossover") for line in lines):
        return "sweep: no crossover line"
    return None


# --- grow-n800 ----------------------------------------------------------


class GrowWorkload(Workload):
    """Library design: from_graph plus greedy growing, and a sensitivity pass.

    A ("grow", i) operation is DesignState.from_graph then grow_simple on
    instance i. The ("sensitivity", 0) operation runs grow_by_sensitivity on
    the state the grow operation before it left. Three operations in four
    are grow operations, so they hold the latency median and tail.
    A record is (item, selection, final graph, tracked fit).
    """

    name = "grow-n800"
    why = (
        "spectral caches dominate: from_graph (3 eigh) takes 3x the 8 greedy "
        "iterations, so one-eigh caches, BLAS rank-2 updates and cache memory show; "
        "every 4th op is a sensitivity pass"
    )
    # (nodes, weighted candidates, sensitivity pairs)
    sizes = {"full": (800, 60, 300), "tiny": (30, 10, 10)}
    cycle = [("grow", 0), ("sensitivity", 0), ("grow", 1), ("grow", 2)]
    budget = 8
    sensitivity_budget = 4

    def __init__(self, seed, size, workdir, root):
        import tdconsensus as td

        self.td = td
        n, candidate_count, pair_count = self.sizes[size]
        rng = np.random.default_rng([seed, 800])
        self.graphs, self.taus, self.candidates, self.pairs = [], [], [], []
        for _ in range(1 + max(index for _, index in self.cycle)):
            edges = random_connected_edges(rng, n, 2 * n)
            taken = set(edges)
            self.graphs.append(as_graph(n, edges))
            self.taus.append(0.3 * threshold(n, edges))
            self.candidates.append(
                tuple((u, v, 0.5) for u, v in absent_pairs(rng, n, candidate_count, taken))
            )
            self.pairs.append(absent_pairs(rng, n, pair_count, taken))
        self.out = td.OutputSpec.centering(n)
        self.grown = None
        self.first_selection = {}
        self.fresh_fit = {}
        self.drift_measured = set()

    def run(self, item, in_process):
        td = self.td
        kind, index = item
        if kind == "sensitivity":
            state, self.grown = self.grown, None
            if state is None:
                raise RuntimeError("no grown state to refine")
            return state, td.grow_by_sensitivity(state, self.pairs[index], self.sensitivity_budget)
        self.grown = None
        state = td.DesignState.from_graph(
            self.graphs[index], self.out, self.taus[index], audit=False
        )
        trace = td.grow_simple(state, td.CandidateSet(self.candidates[index], self.budget))
        self.grown = state
        return state, trace

    def label(self, item):
        return f"op.{item[0]}"

    def record(self, item, result, health):
        state, trace = result
        selection = tuple((e.action, e.edge, e.weight) for e in trace.entries)
        if health is not None and (item, selection) not in self.drift_measured:
            # Repeats of one operation make identical caches: rebuild once.
            self.drift_measured.add((item, selection))
            health.cache_drift_max = max(health.cache_drift_max, cache_drift(state))
        return item, selection, state.graph, state.rho_fit

    def iterations(self, record):
        return len(record[1])

    def check(self, record, health):
        item, selection, graph, rho_fit = record
        first = self.first_selection.setdefault(item, selection)
        if selection != first:
            return f"{item}: edge selection differs between repeats"
        key = (item, selection)
        if key not in self.fresh_fit:
            td = self.td
            spectrum = td.eigendecompose(graph.laplacian())
            try:
                self.fresh_fit[key] = td.rho_approx(spectrum, self.out, self.taus[item[1]])
            except td.UnstableNetwork:
                self.fresh_fit[key] = None
        reference = self.fresh_fit[key]
        if reference is None:
            return f"{item}: final graph is unstable"
        err = relative_error(rho_fit, reference)
        if math.isnan(err) or err > health.fit_rel_err:
            health.fit_rel_err = err
        if not err <= FIT_REL_TOL:
            return f"{item}: tracked rho_fit {rho_fit!r} vs fresh {reference!r}"
        return None


def cache_drift(state):
    """Largest relative entry drift of the updated caches from a rebuild."""
    from tdconsensus import EdgeFormCaches

    caches = state.caches
    fresh = EdgeFormCaches.build(caches.laplacian, caches.output_gram, caches.delay)
    drift = 0.0
    for name in ("lap_pinv", "shift_pinv", "lap_pinv_gram", "shift_pinv_gram"):
        ours = getattr(getattr(caches, name), "matrix", getattr(caches, name))
        ref = getattr(getattr(fresh, name), "matrix", getattr(fresh, name))
        drift = max(drift, float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref))))
    return drift


# --- simulate-small ----------------------------------------------------


def banded_graph(rng, n, low, high):
    """Random connected graph with lambda_max / lambda_2 in [low, high].

    Grows a random tree one random edge at a time until the ratio drops to
    high or below, and starts over when it skipped past low.
    """
    while True:
        edges = random_connected_edges(rng, n, n - 1)
        lap = laplacian(n, edges)
        taken = set(edges)
        while True:
            lam = np.linalg.eigvalsh(lap)
            if lam[-1] / lam[1] <= high or len(edges) == n * (n - 1) // 2:
                break
            (u, v), = absent_pairs(rng, n, 1, taken)
            w = edges[(u, v)] = float(rng.uniform(0.5, 1.5))
            lap[[u, v], [u, v]] += w
            lap[[u, v], [v, u]] -= w
        if low <= lam[-1] / lam[1] <= high:
            return edges, lam


class SimulateWorkload(Workload):
    name = "simulate-small"
    why = (
        "the Python Euler-Maruyama loop is nearly the whole call and no design layer "
        "runs, so only simulator changes should move it"
    )
    # (node counts, lambda_max / lambda_2 band); the band fixes the step count
    # of the default horizon at about 6366 times the ratio.
    sizes = {"full": ((8, 16, 32), (5.4, 5.6)), "tiny": ((4, 5, 6), (1.5, 3.0))}
    trials = 8

    def __init__(self, seed, size, workdir, root):
        import tdconsensus as td

        self.td = td
        node_counts, (low, high) = self.sizes[size]
        rng = np.random.default_rng([seed, 32])
        self.graphs, self.taus, self.exact = [], [], []
        for n in node_counts:
            edges, lam = banded_graph(rng, n, low, high)
            tau = 0.5 * math.pi / (2.0 * float(lam[-1]))
            self.graphs.append(as_graph(n, edges))
            self.taus.append(tau)
            self.exact.append(exact_rho(n, edges, tau))
        self.cycle = list(range(len(node_counts)))
        self.seed = seed
        self.calls = 0

    def run(self, item, in_process):
        td = self.td
        graph = self.graphs[item]
        self.calls += 1
        config = td.SimulationConfig(
            delay=self.taus[item], trials=self.trials, seed=self.seed * 100_000 + self.calls
        )
        return td.simulate(graph, td.OutputSpec.centering(graph.node_count), config)

    def record(self, item, result, health):
        return item, result

    def trial_steps(self, record):
        return record[1].trials * record[1].total_steps

    def check(self, record, health):
        index, estimate = record
        exact = self.exact[index]
        health.z_scores.append((estimate.mean - exact) / estimate.std_error)
        health.ci99_total += 1
        health.ci99_hits += int(estimate.ci99_low <= exact <= estimate.ci99_high)
        if not relative_error(estimate.mean, exact) <= SIMULATE_REL_BOUND:
            return f"graph {index}: estimate {estimate.mean!r} vs exact {exact!r}"
        return None


WORKLOADS = {
    cls.name: cls
    for cls in (CliWorkload, GrowWorkload, SimulateWorkload)
}
