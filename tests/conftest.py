"""Shared test helpers: random instances and from-scratch oracles.

The oracles here deliberately avoid the library's fast paths (rank-one
updates, cached quadratic forms) so agreement is evidence, not tautology.
"""

import math

import numpy as np

from tdconsensus import (
    EdgeFormCaches,
    OutputSpec,
    SpectralCache,
    WeightedGraph,
    eigendecompose,
    rho_approx,
    rho_exact,
)


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


def fresh_caches(graph: WeightedGraph, out: OutputSpec, delay: float) -> EdgeFormCaches:
    """Caches rebuilt from scratch, the reference for incremental updates."""
    return EdgeFormCaches.build(graph.laplacian(), out.gram(), delay)


def spectrum_of(graph: WeightedGraph) -> SpectralCache:
    return eigendecompose(graph.laplacian())


def exact_measure(graph: WeightedGraph, out: OutputSpec, delay: float) -> float:
    return rho_exact(spectrum_of(graph), out, delay)


def fit_measure(graph: WeightedGraph, out: OutputSpec, delay: float) -> float:
    return rho_approx(spectrum_of(graph), out, delay)


def max_cache_drift(incremental: EdgeFormCaches, reference: EdgeFormCaches) -> float:
    """Largest entrywise difference across all tracked matrices."""
    pairs = (
        (incremental.laplacian, reference.laplacian),
        (incremental.lap_pinv, reference.lap_pinv),
        (incremental.shift_pinv, reference.shift_pinv),
        (incremental.lap_pinv_gram, reference.lap_pinv_gram),
        (incremental.shift_pinv_gram, reference.shift_pinv_gram),
    )
    return max(float(np.max(np.abs(a - b))) for a, b in pairs)
