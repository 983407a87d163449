"""Shared test helpers: random instances and from-scratch oracles.

The oracles here deliberately avoid the library's fast paths (rank-one
updates, cached quadratic forms) so agreement is evidence, not tautology.
"""

import functools
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import mpmath
import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import tdconsensus
from tdconsensus import (
    FIT_OFFSET,
    FIT_SLOPE,
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


def spread_weights(rng: np.random.Generator, graph: WeightedGraph, decades: float) -> WeightedGraph:
    """The graph with every weight scaled by its own 10^U(-decades, 0)."""
    scales = 10.0 ** rng.uniform(-decades, 0.0, graph.edge_count)
    edges = tuple((u, v, w * s) for (u, v, w), s in zip(graph.edges, scales))
    return WeightedGraph(graph.node_count, edges)


def stable_delay(graph: WeightedGraph, fraction: float = 0.5) -> float:
    """Delay at the given fraction of the stability threshold."""
    lam_max = eigendecompose(graph.laplacian()).lambda_max
    return fraction * math.pi / (2.0 * lam_max)


def format_graph(graph: WeightedGraph) -> str:
    """The graph file text parse_graph_text reads back to the same graph."""
    lines = [f"n {graph.node_count}"]
    lines.extend(f"{u} {v} {w:.17g}" for u, v, w in graph.edges)
    return "\n".join(lines) + "\n"


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


def delay_shift_matrix(laplacian: np.ndarray, delay: float) -> np.ndarray:
    """The delay-shifted operator (pi/2) * centering - delay * Laplacian,
    formed entry by entry; the library never forms it. Positive definite on
    the centered subspace exactly when the delayed network is stable."""
    return (math.pi / 2.0) * centering_matrix(laplacian.shape[0]) - delay * laplacian


def fresh_caches(graph: WeightedGraph, out: OutputSpec, delay: float) -> EdgeFormCaches:
    """Caches rebuilt from scratch without the library's build, the reference
    for incremental updates: explicit pseudo-inverses and P @ CᵀC @ P from
    the explicit C, whatever the output kind."""
    lap = graph.laplacian()
    c = output_matrix(out)
    gram = c.T @ c
    lap_pinv, shift_pinv = grounded_pinv(lap), grounded_pinv(delay_shift_matrix(lap, delay))
    return _explicit_caches(lap, delay, gram, [lap_pinv, shift_pinv])


def _explicit_caches(lap, delay, gram, pinvs) -> EdgeFormCaches:
    """Caches on these pseudo-inverses of a dense gram, each operator's
    sandwich set to the explicit product P @ gram @ P."""
    caches = EdgeFormCaches(laplacian=lap, delay=delay, output_gram=gram, inverses=pinvs)
    for pair, pinv in zip((caches._lap, caches._shift), pinvs):
        pair.sandwich = pinv @ gram @ pinv
    return caches


# Digits of the high-precision references below, and the largest graph they
# take: mpmath's LU of a 24 x 24 matrix at 40 digits takes about 0.1 s.
REFERENCE_DIGITS = 40
REFERENCE_NODE_LIMIT = 24


def _mp_laplacian(graph: WeightedGraph) -> mpmath.matrix:
    """The Laplacian in mpmath, from the same binary weights; call inside
    mpmath.workdps."""
    n = graph.node_count
    lap = mpmath.zeros(n, n)
    for u, v, w in graph.edges:
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


def _mp_pinv(operator: np.ndarray) -> np.ndarray:
    """(A + J/n)⁻¹ - J/n of a symmetric A with kernel span(1), given and
    returned as an object array of mpf: Gauss-Jordan inversion in place,
    without pivoting, since A + J/n is positive definite. Call inside
    mpmath.workdps."""
    n = len(operator)
    ones = mpmath.mpf(1) / n
    inverse = operator + ones
    for k in range(n):
        pivot = 1 / inverse[k, k]
        inverse[k, k] = 1
        inverse[k] *= pivot
        column = inverse[:, k].copy()
        column[k] = 0
        inverse[:, k] = 0
        inverse[k, k] = pivot
        inverse -= np.outer(column, inverse[k])
    return inverse - ones


def oracle_40_digits(graph: WeightedGraph, tau: float):
    """(exact measure, fit, nonzero eigenvalues ascending) at 40 digits, for
    a named output of scale 1. The Laplacian is diagonalized by mpmath's
    Jacobi solver (no LAPACK); the eigenvalue nearest zero is dropped and
    the modal terms of the exact measure and of the closed-form fit are
    summed in 40-digit arithmetic."""
    with mpmath.workdps(REFERENCE_DIGITS):
        n = graph.node_count
        eigenvalues = mpmath.eigsy(_mp_laplacian(graph), eigvals_only=True)
        lam = sorted(eigenvalues[i] for i in range(n))[1:]
        t = mpmath.mpf(tau)
        half_pi = mpmath.pi / 2
        exact = sum(mpmath.cos(x * t) / (1 - mpmath.sin(x * t)) / (2 * x) for x in lam)
        fit = t * sum(
            (1 / (x * t) + (4 / mpmath.pi) / (half_pi - x * t) + FIT_OFFSET + FIT_SLOPE * x * t) / 2
            for x in lam
        )
        return exact, fit, lam


@functools.lru_cache(maxsize=16)
def _reference_pinvs(graph: WeightedGraph, delay: float) -> tuple:
    """L⁺ and S⁺ at 40 digits, rounded to float64 once, for reference_caches:
    the shifted operator (pi/2)(I - J/n) - delay L is formed at 40 digits
    from the binary delay and weights, and each pseudo-inverse is _mp_pinv.
    Kept for the graph and delay that several outputs share."""
    n = graph.node_count
    assert n <= REFERENCE_NODE_LIMIT, n
    with mpmath.workdps(REFERENCE_DIGITS):
        lap = np.array(_mp_laplacian(graph).tolist(), dtype=object)
        projector = np.full((n, n), -mpmath.mpf(1) / n, dtype=object)
        projector[np.diag_indices(n)] += 1
        shift = (mpmath.pi / 2) * projector - mpmath.mpf(delay) * lap
        return tuple(_mp_pinv(operator).astype(float) for operator in (lap, shift))


def reference_caches(graph: WeightedGraph, out: OutputSpec, delay: float) -> EdgeFormCaches:
    """fresh_caches with the pseudo-inverses taken at 40 digits
    (_reference_pinvs) and rounded once, for n <= REFERENCE_NODE_LIMIT. A
    float64 inverse loses up to kappa eps, which on six-decade weights
    passes 1e-10; the sandwiches P @ CᵀC @ P, float64 products of the
    rounded inverses, lose only about n eps of their norm."""
    c = output_matrix(out)
    return _explicit_caches(graph.laplacian(), delay, c.T @ c, _reference_pinvs(graph, delay))


def spectrum_of(graph: WeightedGraph) -> SpectralCache:
    return eigendecompose(graph.laplacian())


def eigenvalues_of(graph: WeightedGraph) -> SpectralCache:
    """The eigenvalues-only spectrum that a named output's entry points read."""
    return eigendecompose(graph.laplacian(), vectors=False)


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


def held_matrices(caches: EdgeFormCaches) -> list:
    """Each operator's held pseudo-inverse and sandwich (None until formed),
    the objects themselves: lap_pinv, lap_pinv_gram, shift_pinv and
    shift_pinv_gram, in that order."""
    return [m for pair in (caches._lap, caches._shift) for m in (pair.inverse, pair.sandwich)]


def holds(caches: EdgeFormCaches, held: list) -> bool:
    """Whether each operator still holds these held_matrices, object for object."""
    return all(ours is theirs for ours, theirs in zip(held_matrices(caches), held))


def sandwiches_formed(caches: EdgeFormCaches) -> bool:
    """Whether the two operators' sandwiches are formed; they are formed together."""
    formed = [pair.sandwich is not None for pair in (caches._lap, caches._shift)]
    assert formed[0] == formed[1], formed
    return formed[0]


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
