"""Shared test helpers: random instances and from-scratch oracles.

The oracles here deliberately avoid the library's fast paths (rank-one
updates, cached quadratic forms) so agreement is evidence, not tautology.
"""

import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import tdconsensus
from tdconsensus import (
    EdgeFormCaches,
    OutputKind,
    OutputSpec,
    SpectralCache,
    WeightedGraph,
    eigendecompose,
    rho_approx,
    rho_exact,
)

# Property tests replay one fixed example sequence and write no example
# database, so runs are repeatable.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from local modules on
    # disk; keep that cache in a temporary directory removed at exit.
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def random_connected_graph(
    rng: np.random.Generator,
    min_nodes: int = 3,
    max_nodes: int = 10,
    extra_edge_prob: float = 0.3,
    weight_low: float = 0.2,
    weight_high: float = 2.0,
) -> WeightedGraph:
    """Random spanning tree plus a sprinkling of extra edges."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, float(rng.uniform(weight_low, weight_high))))
    present = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra_edge_prob:
                edges.append((u, v, float(rng.uniform(weight_low, weight_high))))
    return WeightedGraph(node_count=n, edges=tuple(edges))


def stable_delay(graph: WeightedGraph, fraction: float = 0.5) -> float:
    """Delay at the given fraction of the stability threshold."""
    lam_max = eigendecompose(graph.laplacian()).lambda_max
    return fraction * math.pi / (2.0 * lam_max)


def bridge_oracle(graph: WeightedGraph) -> set[tuple[int, int]]:
    """All bridges by the classic DFS low-link pass (iterative)."""
    n = graph.node_count
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in graph.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    order = [-1] * n
    low = [0] * n
    bridges: set[tuple[int, int]] = set()
    counter = 0
    for root in range(n):
        if order[root] != -1:
            continue
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            node, parent, child_index = stack.pop()
            if child_index == 0:
                order[node] = low[node] = counter
                counter += 1
            if child_index < len(adjacency[node]):
                stack.append((node, parent, child_index + 1))
                nxt = adjacency[node][child_index]
                if order[nxt] == -1:
                    stack.append((nxt, node, 0))
                elif nxt != parent:
                    low[node] = min(low[node], order[nxt])
            elif parent != -1:
                low[parent] = min(low[parent], low[node])
                if low[node] > order[parent]:
                    bridges.add((min(parent, node), max(parent, node)))
    return bridges


def grounded_pinv(matrix: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of a symmetric matrix whose kernel is span(1), by
    np.linalg.eigh of the grounded matrix A + J/n, minus J/n.

    A + J/n maps the ones vector to itself and agrees with A elsewhere, so no
    kernel eigenpair has to be found: the check shares no code with the
    library's spectral path.
    """
    n = matrix.shape[0]
    ones = np.full((n, n), 1.0 / n)
    lam, vectors = np.linalg.eigh(matrix + ones)
    return (vectors / lam) @ vectors.T - ones


def centering_matrix(n: int) -> np.ndarray:
    """Projector onto the subspace orthogonal to the all-ones vector, the
    gram of a named output up to its scale; the library never forms it."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def output_matrix(out: OutputSpec) -> np.ndarray:
    """The explicit output matrix C of any output spec, built row by row.

    The library never forms C for a named kind; this is the oracle its
    scale-based gram, design caches and simulator squares are checked
    against.
    """
    n = out.node_count
    if out.kind is OutputKind.CENTERING:
        return centering_matrix(n)
    if out.kind is OutputKind.COMPLETE_INCIDENCE:
        rows = []
        for u in range(n):
            for v in range(u + 1, n):
                row = np.zeros(n)
                row[u], row[v] = 1.0, -1.0
                rows.append(row)
        return np.array(rows)
    if out.kind is OutputKind.ORTHONORMAL:
        # Helmert rows: row k has k leading entries 1, then -k, then zeros,
        # normalized; they are orthonormal and orthogonal to the ones vector.
        rows = []
        for k in range(1, n):
            row = np.zeros(n)
            row[:k] = 1.0
            row[k] = -k
            rows.append(row / math.sqrt(k * (k + 1)))
        return np.array(rows)
    return out.matrix


def fresh_caches(graph: WeightedGraph, out: OutputSpec, delay: float) -> EdgeFormCaches:
    """Caches rebuilt from scratch without the library's build, the reference
    for incremental updates: explicit pseudo-inverses and P @ CᵀC @ P from
    the explicit C, whatever the output kind."""
    n = graph.node_count
    lap = graph.laplacian()
    c = output_matrix(out)
    gram = c.T @ c
    shift = (math.pi / 2.0) * centering_matrix(n) - delay * lap
    lap_pinv, shift_pinv = grounded_pinv(lap), grounded_pinv(shift)
    return EdgeFormCaches(
        laplacian=lap,
        output_gram=gram,
        delay=delay,
        lap_pinv=lap_pinv,
        shift_pinv=shift_pinv,
        lap_pinv_gram=lap_pinv @ gram @ lap_pinv,
        shift_pinv_gram=shift_pinv @ gram @ shift_pinv,
    )


def spectrum_of(graph: WeightedGraph) -> SpectralCache:
    return eigendecompose(graph.laplacian())


def exact_measure(graph: WeightedGraph, out: OutputSpec, delay: float) -> float:
    return rho_exact(spectrum_of(graph), out, delay)


def fit_measure(graph: WeightedGraph, out: OutputSpec, delay: float) -> float:
    return rho_approx(spectrum_of(graph), out, delay)


def tracked_matrices(caches: EdgeFormCaches) -> tuple[np.ndarray, ...]:
    """Every matrix a rank-one update writes."""
    return (
        caches.laplacian,
        caches.lap_pinv,
        caches.shift_pinv,
        caches.lap_pinv_gram,
        caches.shift_pinv_gram,
    )


def max_cache_drift(incremental: EdgeFormCaches, reference: EdgeFormCaches) -> float:
    """Largest entrywise difference across all tracked matrices."""
    pairs = zip(tracked_matrices(incremental), tracked_matrices(reference))
    return max(float(np.max(np.abs(a - b))) for a, b in pairs)


def fresh_interpreter_output(code: str, env: dict[str, str] | None = None) -> str:
    """Stripped stdout of code run by a new interpreter on this package, with
    env's variables added to this process's environment."""
    src = str(Path(tdconsensus.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": path},
        timeout=120,
        check=True,
    )
    return done.stdout.strip()
