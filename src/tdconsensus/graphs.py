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

import bisect
from dataclasses import dataclass, field
from numbers import Integral

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
# Rows per block of the in-place cache updates: a block's rank-two product is
# a small temporary that stays in cache, and no n x n temporary is formed.
UPDATE_BLOCK_ROWS = 128

Edge = tuple[int, int]


def _check_endpoints(node_count: int, u: int, v: int) -> Edge:
    if not (0 <= u < node_count and 0 <= v < node_count):
        raise IndexOutOfRange(
            f"edge endpoint ({u}, {v}) out of range for {node_count} nodes"
        )
    if u == v:
        raise ValueError(f"self-loop at node {u} is not allowed")
    return (u, v) if u < v else (v, u)


def _checked_weight(key: Edge, weight: float) -> float:
    w = float(weight)
    if not 0.0 < w < np.inf:
        raise ValueError(f"edge {key} needs a positive finite weight, got {w}")
    return w


def _edge_arrays(entries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(us, vs, weights) of (u, v, w) triples, in their order."""
    table = np.array(entries, dtype=float).reshape(-1, 3)
    return table[:, 0].astype(np.intp), table[:, 1].astype(np.intp), table[:, 2]


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
        if not isinstance(self.node_count, Integral):
            raise ValueError(f"node count must be an integer, got {self.node_count!r}")
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        seen: dict[Edge, float] = {}
        for u, v, w in self.edges:
            key = _check_endpoints(self.node_count, int(u), int(v))
            w = _checked_weight(key, w)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen[key] = w
        canonical = sorted((u, v, w) for (u, v), w in seen.items())
        object.__setattr__(self, "edges", tuple(canonical))
        object.__setattr__(self, "_weights", seen)

    def _edited(
        self, edges: tuple[tuple[int, int, float], ...], weights: dict[Edge, float]
    ) -> "WeightedGraph":
        """A graph on already canonical, sorted and validated edges, unchecked."""
        graph = object.__new__(type(self))
        object.__setattr__(graph, "node_count", self.node_count)
        object.__setattr__(graph, "edges", edges)
        object.__setattr__(graph, "_weights", weights)
        return graph

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
        """This graph plus one edge, in O(E): a sorted insert, no re-sort."""
        key = _check_endpoints(self.node_count, int(u), int(v))
        if key in self._weights:
            raise ValueError(f"edge {key} already present")
        edge = (key[0], key[1], _checked_weight(key, weight))
        at = bisect.bisect_left(self.edges, edge)
        weights = dict(self._weights)
        weights[key] = edge[2]
        return self._edited(self.edges[:at] + (edge,) + self.edges[at:], weights)

    def without_edge(self, u: int, v: int) -> "WeightedGraph":
        """This graph minus one edge, in O(E)."""
        key = _check_endpoints(self.node_count, int(u), int(v))
        if key not in self._weights:
            raise EdgeNotInGraph(f"edge {key} not in graph")
        weights = dict(self._weights)
        at = bisect.bisect_left(self.edges, (key[0], key[1], weights.pop(key)))
        return self._edited(self.edges[:at] + self.edges[at + 1 :], weights)

    def scaled(self, factor: float) -> "WeightedGraph":
        if not 0.0 < factor < np.inf:
            raise ValueError("scale factor must be positive and finite")
        return WeightedGraph(
            self.node_count, tuple((u, v, w * factor) for u, v, w in self.edges)
        )

    def _weighted_degrees(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(weighted degrees, _edge_arrays); bincount adds each node's weights
        in edge order, as a per-edge loop does."""
        us, vs, ws = arrays = _edge_arrays(self.edges)
        ends = np.stack((us, vs), axis=1).ravel()
        return np.bincount(ends, np.repeat(ws, 2), minlength=self.node_count), arrays

    def laplacian(self) -> np.ndarray:
        degrees, (us, vs, ws) = self._weighted_degrees()
        lap = np.diag(degrees)
        lap[us, vs] = lap[vs, us] = -ws
        return lap

    def is_connected(self) -> bool:
        uf = _UnionFind(self.node_count)
        for u, v, _ in self.edges:
            uf.union(u, v)
        root = uf.find(0)
        return all(uf.find(i) == root for i in range(1, self.node_count))

    def max_weighted_degree(self) -> float:
        return float(self._weighted_degrees()[0].max())

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


def delay_shift_matrix(laplacian: np.ndarray, delay: float) -> np.ndarray:
    """Stability-shifted operator (pi/2) * centering - delay * Laplacian, built
    in place with every entry rounded as that formula rounds it.

    Positive definite on the centered subspace exactly when the delayed
    network is stable.
    """
    n = laplacian.shape[0]
    shift = np.multiply(laplacian, -delay)
    diagonal = shift.diagonal() + (np.pi / 2.0) * (1.0 - 1.0 / n)
    shift += (np.pi / 2.0) * (-1.0 / n)
    np.fill_diagonal(shift, diagonal)
    return shift


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
    so a shift past the stability boundary still inverts (one signed GEMM);
    otherwise the inverse is W Wᵀ, W = V diag(sqrt(inv)), which BLAS syrk forms.
    """
    lam = cache.eigenvalues
    outside = np.arange(len(lam)) != cache.kernel_index
    floor = _zero_floor(lam)
    if np.any(np.abs(lam[outside]) <= floor):
        raise DisconnectedGraph(f"second kernel direction below {floor:.3e}: not invertible")
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=outside)
    if inv.min() < 0.0:
        return (cache.vectors * inv) @ cache.vectors.T
    scaled = cache.vectors * np.sqrt(inv)
    return scaled @ scaled.T


def _gram_sandwich(pinv: np.ndarray, output_gram: np.ndarray | float) -> np.ndarray:
    """pinv @ gram @ pinv; pinv annihilates the ones vector, so a scale s (s times
    the centering projector) gives s pinv pinvᵀ, one BLAS syrk, not two GEMMs."""
    if np.ndim(output_gram) == 0:
        sandwich = pinv @ pinv.T
        sandwich *= output_gram
        return sandwich
    return pinv @ output_gram @ pinv


def edge_quadratic_form(matrix: np.ndarray | float, u: int, v: int) -> float:
    """Quadratic form of the endpoint difference vector: P_uu + P_vv - 2 P_uv.
    A scale s, which has no size to check the endpoints against, gives 2 s."""
    u, v = _check_endpoints(np.shape(matrix)[0] if np.ndim(matrix) else np.inf, u, v)
    return float(edge_quadratic_forms(matrix, u, v))


def edge_quadratic_forms(
    matrix: np.ndarray | float, us: np.ndarray | int, vs: np.ndarray | int
) -> np.ndarray:
    """edge_quadratic_form for every pair (us[i], vs[i]), or for one pair of
    nodes; endpoints unchecked. A scale s stands for s times the centering
    projector: every form is 2 s."""
    if np.ndim(matrix) == 0:
        return np.full(np.shape(us), 2.0 * matrix)
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

    The Laplacian and the output gram ride along so trace-form evaluations
    need no extra state. output_gram is a custom output's dense CᵀC, or a
    named output's scale s: s times the centering projector is never formed.
    """

    laplacian: np.ndarray
    output_gram: np.ndarray | float
    delay: float
    lap_pinv: np.ndarray = field(repr=False)
    shift_pinv: np.ndarray = field(repr=False)
    lap_pinv_gram: np.ndarray = field(repr=False)
    shift_pinv_gram: np.ndarray = field(repr=False)

    @classmethod
    def build(
        cls, laplacian: np.ndarray, output_gram: np.ndarray | float, delay: float
    ) -> "EdgeFormCaches":
        # The shifted operator first: its matrix and spectrum are freed before
        # the Laplacian's eigh runs, so fewer n x n arrays are live.
        sp = pseudo_inverse(eigendecompose(delay_shift_matrix(laplacian, delay)))
        lp = pseudo_inverse(eigendecompose(laplacian))
        return cls(
            laplacian=laplacian.copy(),
            output_gram=output_gram,
            delay=delay,
            lap_pinv=lp,
            shift_pinv=sp,
            lap_pinv_gram=_gram_sandwich(lp, output_gram),
            shift_pinv_gram=_gram_sandwich(sp, output_gram),
        )


def _edge_forms(caches: EdgeFormCaches, us: np.ndarray | int, vs: np.ndarray | int) -> list:
    """Edge forms of lap_pinv_gram, lap_pinv, shift_pinv_gram, shift_pinv and
    output_gram, in that order, at every pair (us[i], vs[i]) and every delay,
    endpoints unchecked; one pair's as Python floats, whose 1 / (tau s) past
    the float range reads inf where a numpy scalar would warn. Each shift form
    enters the fit with a factor tau, so at zero delay it adds an exact zero."""
    matrices = (
        caches.lap_pinv_gram,
        caches.lap_pinv,
        caches.shift_pinv_gram,
        caches.shift_pinv,
        caches.output_gram,
    )
    forms = [edge_quadratic_forms(matrix, us, vs) for matrix in matrices]
    return [float(form) for form in forms] if np.ndim(us) == 0 else forms


def _update_denominator(coefficient: float, quad: float, edge: Edge) -> float:
    """1 + c q, the Sherman-Morrison denominator of A += c b bᵀ with q = bᵀ A⁺ b;
    SingularUpdate when it is within SINGULAR_UPDATE_SCALE of its largest term."""
    denom = 1.0 + coefficient * quad
    if abs(denom) <= SINGULAR_UPDATE_SCALE * max(1.0, abs(coefficient * quad), abs(coefficient)):
        raise SingularUpdate(f"rank-one update denominator {denom:.3e} vanishes for edge {edge}")
    return denom


def _pair_update_vectors(
    inverse: np.ndarray,
    gram_sandwich: np.ndarray,
    u: int,
    v: int,
    coefficient: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectors (p, alpha p, corr) that update P = inverse and Y = P @ gram @ P
    for A += c * b bᵀ; reads both matrices and writes neither.

    b is the endpoint difference vector of (u, v), which is orthogonal to
    the all-ones kernel, so the Sherman-Morrison identity applies to these
    pseudo-inverses unchanged. Raises SingularUpdate as _update_denominator
    does.
    """
    p = inverse[:, u] - inverse[:, v]
    # The test reads the edge form edge_contribution reads, so the two raise
    # together; alpha keeps this update's own rounding of it, p[u] - p[v].
    _update_denominator(coefficient, edge_quadratic_forms(inverse, u, v), (u, v))
    alpha = coefficient / (1.0 + coefficient * (p[u] - p[v]))
    z = gram_sandwich[:, u] - gram_sandwich[:, v]
    sandwich_quad = z[u] - z[v]
    # Y_new = Y - alpha (p zᵀ + z pᵀ) + alpha² (bᵀYb) p pᵀ, folded into the
    # symmetric rank-two term p corrᵀ + corr pᵀ.
    corr = -alpha * z + (0.5 * alpha * alpha * sandwich_quad) * p
    return p, alpha * p, corr


def _rank_one_pair_update(
    inverse: np.ndarray,
    gram_sandwich: np.ndarray,
    p: np.ndarray,
    alpha_p: np.ndarray,
    corr: np.ndarray,
) -> None:
    """P -= (alpha p) pᵀ and Y += [p corr] @ [corr; p] in place, O(n^2).

    Both run a block of UPDATE_BLOCK_ROWS rows at a time, so neither forms
    an n x n temporary; both triangles stay stored.
    """
    left = np.column_stack((p, corr))
    right = np.vstack((corr, p))
    for start in range(0, len(p), UPDATE_BLOCK_ROWS):
        rows = slice(start, start + UPDATE_BLOCK_ROWS)
        gram_sandwich[rows] += left[rows] @ right
        inverse[rows] -= np.multiply.outer(alpha_p[rows], p)


def sherman_morrison_update(caches: EdgeFormCaches, edge: Edge, dweight: float) -> None:
    """Apply a weight change on one edge to all four cached matrices, O(n^2).

    dweight > 0 adds weight, dweight < 0 removes it. Raises SingularUpdate
    when a denominator vanishes: weight at the edge-level stability bound on
    the shifted side, or removal of a full bridge weight on the Laplacian
    side.
    """
    u, v = _check_endpoints(caches.laplacian.shape[0], *edge)
    if not np.isfinite(dweight):
        raise ValueError(f"weight change on edge {(u, v)} must be finite, got {dweight}")
    # The shifted operator changes by -delay * dweight on the same edge. An
    # operator whose coefficient is zero is left as it is: at zero delay the
    # shifted operator is (pi/2) times the centering projector on every graph.
    operators = [
        (caches.lap_pinv, caches.lap_pinv_gram, dweight),
        (caches.shift_pinv, caches.shift_pinv_gram, -caches.delay * dweight),
    ]
    operators = [operator for operator in operators if operator[2] != 0.0]
    # Both denominators are tested before any entry is written, so a
    # SingularUpdate leaves every cache as it was.
    vectors = [_pair_update_vectors(inv, gram, u, v, c) for inv, gram, c in operators]
    for (inverse, gram_sandwich, _), update in zip(operators, vectors):
        _rank_one_pair_update(inverse, gram_sandwich, *update)
    lap = caches.laplacian
    lap[u, u] += dweight
    lap[v, v] += dweight
    lap[u, v] -= dweight
    lap[v, u] -= dweight
