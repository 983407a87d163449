"""Weighted graphs, Laplacian spectra, and rank-one cache updates.

Conventions used throughout the package:

* graphs are undirected, edges are stored as (u, v, weight) with u < v,
  node indices are 0-based, weights are strictly positive;
* the Laplacian is dense and symmetric positive semidefinite with the
  all-ones vector in its kernel;
* a connected graph's Laplacian and its delay-shifted operator both have
  kernel exactly span(1): spectral code deflates the one eigenpair whose
  eigenvector is most aligned with the all-ones vector, not a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceFailure,
    DisconnectedGraph,
    EdgeNotInGraph,
    IndexOutOfRange,
    SingularUpdate,
)

# Relative scale for the singular-update denominator guard.
SINGULAR_UPDATE_SCALE = 1e-12

Edge = tuple[int, int]


def _check_endpoints(node_count: int, u: int, v: int) -> Edge:
    if not (0 <= u < node_count and 0 <= v < node_count):
        raise IndexOutOfRange(
            f"edge endpoint ({u}, {v}) out of range for {node_count} nodes"
        )
    if u == v:
        raise ValueError(f"self-loop at node {u} is not allowed")
    return (u, v) if u < v else (v, u)


class _UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable undirected graph with positive edge weights.

    Edges are canonicalized to (min, max) endpoint order and sorted
    lexicographically, so equal graphs compare equal and iteration order
    is deterministic.
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    # Edge key -> weight, so lookups need no scan of the edge tuple.
    _weights: dict[Edge, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        seen: dict[Edge, float] = {}
        for u, v, w in self.edges:
            key = _check_endpoints(self.node_count, int(u), int(v))
            w = float(w)
            if not 0.0 < w < np.inf:
                raise ValueError(f"edge {key} needs a positive finite weight, got {w}")
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen[key] = w
        canonical = sorted((u, v, w) for (u, v), w in seen.items())
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(self, "_weights", seen)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_keys(self) -> tuple[Edge, ...]:
        return tuple((u, v) for u, v, _ in self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _check_endpoints(self.node_count, u, v) in self._weights

    def weight(self, u: int, v: int) -> float:
        key = _check_endpoints(self.node_count, u, v)
        if key not in self._weights:
            raise EdgeNotInGraph(f"edge {key} not in graph")
        return self._weights[key]

    def with_edge(self, u: int, v: int, weight: float) -> "WeightedGraph":
        key = _check_endpoints(self.node_count, u, v)
        if self.has_edge(*key):
            raise ValueError(f"edge {key} already present")
        return WeightedGraph(self.node_count, self.edges + ((key[0], key[1], float(weight)),))

    def without_edge(self, u: int, v: int) -> "WeightedGraph":
        key = _check_endpoints(self.node_count, u, v)
        remaining = tuple(e for e in self.edges if (e[0], e[1]) != key)
        if len(remaining) == len(self.edges):
            raise EdgeNotInGraph(f"edge {key} not in graph")
        return WeightedGraph(self.node_count, remaining)

    def scaled(self, factor: float) -> "WeightedGraph":
        if not 0.0 < factor < np.inf:
            raise ValueError("scale factor must be positive and finite")
        return WeightedGraph(
            self.node_count, tuple((u, v, w * factor) for u, v, w in self.edges)
        )

    def laplacian(self) -> np.ndarray:
        lap = np.zeros((self.node_count, self.node_count))
        for u, v, w in self.edges:
            lap[u, u] += w
            lap[v, v] += w
            lap[u, v] -= w
            lap[v, u] -= w
        return lap

    def is_connected(self) -> bool:
        if self.node_count == 1:
            return True
        uf = _UnionFind(self.node_count)
        for u, v, _ in self.edges:
            uf.union(u, v)
        root = uf.find(0)
        return all(uf.find(i) == root for i in range(1, self.node_count))

    def max_weighted_degree(self) -> float:
        degree = np.zeros(self.node_count)
        for u, v, w in self.edges:
            degree[u] += w
            degree[v] += w
        return float(degree.max()) if self.node_count else 0.0

    @classmethod
    def path(cls, n: int, weight: float = 1.0) -> "WeightedGraph":
        return cls(n, tuple((i, i + 1, weight) for i in range(n - 1)))

    @classmethod
    def cycle(cls, n: int, weight: float = 1.0) -> "WeightedGraph":
        if n < 3:
            raise ValueError("cycle needs at least three nodes")
        edges = tuple((i, i + 1, weight) for i in range(n - 1)) + ((0, n - 1, weight),)
        return cls(n, edges)

    @classmethod
    def star(cls, n: int, weight: float = 1.0) -> "WeightedGraph":
        return cls(n, tuple((0, i, weight) for i in range(1, n)))

    @classmethod
    def complete(cls, n: int, weight: float = 1.0) -> "WeightedGraph":
        return cls(n, tuple((u, v, weight) for u in range(n) for v in range(u + 1, n)))


def centering_matrix(n: int) -> np.ndarray:
    """Projector onto the subspace orthogonal to the all-ones vector."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def delay_shift_matrix(laplacian: np.ndarray, delay: float) -> np.ndarray:
    """Stability-shifted operator (pi/2) * centering - delay * Laplacian.

    Positive definite on the centered subspace exactly when the delayed
    network is stable.
    """
    n = laplacian.shape[0]
    return (np.pi / 2.0) * centering_matrix(n) - delay * laplacian


def _zero_floor(eigenvalues: np.ndarray) -> float:
    """n * eps * max|lambda|, the backward-error floor of eigh: no eigenvalue
    this small in magnitude can be told apart from zero."""
    return len(eigenvalues) * np.finfo(float).eps * float(np.abs(eigenvalues).max(initial=0.0))


@dataclass(frozen=True)
class SpectralCache:
    """Eigendecomposition of a symmetric matrix with the ones vector in its kernel.

    Eigenvalues are ascending. kernel_index is the eigenpair whose vector is
    most aligned with the all-ones vector: found by its eigenvector, it
    cannot be hidden by tiny or negative eigenvalues elsewhere.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    kernel_index: int

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def lambda_2(self) -> float:
        """Smallest eigenvalue outside the kernel eigenpair.

        Raises DisconnectedGraph unless it clears _zero_floor.
        """
        rest = np.delete(self.eigenvalues, self.kernel_index)
        floor = _zero_floor(self.eigenvalues)
        if len(rest) == 0 or rest[0] <= floor:
            raise DisconnectedGraph(f"second kernel direction below {floor:.3e}: disconnected")
        return float(rest[0])


def eigendecompose(matrix: np.ndarray) -> SpectralCache:
    """Full symmetric eigendecomposition and its kernel eigenpair, argmax |1ᵀq|."""
    try:
        eigenvalues, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    kernel = int(np.argmax(np.abs(vectors.sum(axis=0))))
    return SpectralCache(eigenvalues=eigenvalues, vectors=vectors, kernel_index=kernel)


def pseudo_inverse(cache: SpectralCache) -> np.ndarray:
    """Inverse of every eigenpair but the kernel one, which maps to zero.

    Raises DisconnectedGraph when another eigenvalue is within _zero_floor
    of zero, as on a disconnected graph's Laplacian. The test is on |lambda|,
    so a shift past the stability boundary still inverts.
    """
    lam = cache.eigenvalues
    outside = np.arange(len(lam)) != cache.kernel_index
    floor = _zero_floor(lam)
    if np.any(np.abs(lam[outside]) <= floor):
        raise DisconnectedGraph(f"second kernel direction below {floor:.3e}: not invertible")
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=outside)
    return (cache.vectors * inv) @ cache.vectors.T


def edge_quadratic_form(matrix: np.ndarray, u: int, v: int) -> float:
    """Quadratic form of the endpoint difference vector: P_uu + P_vv - 2 P_uv."""
    n = matrix.shape[0]
    u, v = _check_endpoints(n, u, v)
    return float(matrix[u, u] + matrix[v, v] - 2.0 * matrix[u, v])


def edge_quadratic_forms(matrix: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """edge_quadratic_form for every pair (us[i], vs[i]); endpoints unchecked."""
    return matrix[us, us] + matrix[vs, vs] - 2.0 * matrix[us, vs]


def is_bridge(graph: WeightedGraph, edge: Edge) -> bool:
    """Whether removing the edge separates its endpoints: union-find over
    every other edge, so no weight enters the test."""
    key = _check_endpoints(graph.node_count, *edge)
    if not graph.has_edge(*key):
        raise EdgeNotInGraph(f"edge {key} not in graph")
    uf = _UnionFind(graph.node_count)
    for u, v, _ in graph.edges:
        if (u, v) != key:
            uf.union(u, v)
    return uf.find(key[0]) != uf.find(key[1])


@dataclass
class EdgeFormCaches:
    """The four matrices whose edge quadratic forms drive topology design.

    Roles:
      lap_pinv         pseudo-inverse of the Laplacian
      shift_pinv       pseudo-inverse of the delay-shifted operator
      lap_pinv_gram    lap_pinv @ output_gram @ lap_pinv
      shift_pinv_gram  shift_pinv @ output_gram @ shift_pinv

    The Laplacian itself and the output gram ride along so trace-form
    evaluations need no extra state.
    """

    laplacian: np.ndarray
    output_gram: np.ndarray
    delay: float
    lap_pinv: np.ndarray = field(repr=False)
    shift_pinv: np.ndarray = field(repr=False)
    lap_pinv_gram: np.ndarray = field(repr=False)
    shift_pinv_gram: np.ndarray = field(repr=False)

    @classmethod
    def build(
        cls, laplacian: np.ndarray, output_gram: np.ndarray, delay: float
    ) -> "EdgeFormCaches":
        lp = pseudo_inverse(eigendecompose(laplacian))
        sp = pseudo_inverse(eigendecompose(delay_shift_matrix(laplacian, delay)))
        return cls(
            laplacian=laplacian.copy(),
            output_gram=output_gram,
            delay=delay,
            lap_pinv=lp,
            shift_pinv=sp,
            lap_pinv_gram=lp @ output_gram @ lp,
            shift_pinv_gram=sp @ output_gram @ sp,
        )


def _rank_one_pair_update(
    inverse: np.ndarray,
    gram_sandwich: np.ndarray,
    u: int,
    v: int,
    coefficient: float,
    guard_scale: float,
) -> None:
    """Update P = inverse and Y = P @ gram @ P in place for A += c * b bᵀ.

    b is the endpoint difference vector of (u, v), which is orthogonal to
    the all-ones kernel, so the Sherman-Morrison identity applies to these
    pseudo-inverses unchanged.
    """
    p = inverse[:, u] - inverse[:, v]
    quad = p[u] - p[v]
    denom = 1.0 + coefficient * quad
    if abs(denom) <= SINGULAR_UPDATE_SCALE * max(1.0, abs(coefficient * quad), guard_scale):
        raise SingularUpdate(
            f"rank-one update denominator {denom:.3e} vanishes for edge ({u}, {v})"
        )
    alpha = coefficient / denom
    z = gram_sandwich[:, u] - gram_sandwich[:, v]
    sandwich_quad = z[u] - z[v]
    # Y_new = Y - alpha (p zᵀ + z pᵀ) + alpha² (bᵀYb) p pᵀ, folded into two
    # symmetric rank-one terms.
    corr = -alpha * z + (0.5 * alpha * alpha * sandwich_quad) * p
    gram_sandwich += np.outer(p, corr)
    gram_sandwich += np.outer(corr, p)
    inverse -= alpha * np.outer(p, p)


def sherman_morrison_update(caches: EdgeFormCaches, edge: Edge, dweight: float) -> None:
    """Apply a weight change on one edge to all four cached matrices, O(n^2).

    dweight > 0 adds weight, dweight < 0 removes it. Raises SingularUpdate
    when a denominator vanishes: weight at the edge-level stability bound on
    the shifted side, or removal of a full bridge weight on the Laplacian
    side.
    """
    n = caches.laplacian.shape[0]
    u, v = _check_endpoints(n, *edge)
    if dweight == 0.0:
        return
    _rank_one_pair_update(
        caches.lap_pinv,
        caches.lap_pinv_gram,
        u,
        v,
        dweight,
        guard_scale=abs(dweight),
    )
    if caches.delay > 0.0:
        # The shifted operator changes by -delay * dweight on the same edge.
        _rank_one_pair_update(
            caches.shift_pinv,
            caches.shift_pinv_gram,
            u,
            v,
            -caches.delay * dweight,
            guard_scale=abs(caches.delay * dweight),
        )
    lap = caches.laplacian
    lap[u, u] += dweight
    lap[v, v] += dweight
    lap[u, v] -= dweight
    lap[v, u] -= dweight
