"""Weighted graphs, Laplacian spectra, and rank-one cache updates.

Conventions used throughout the package:

* graphs are undirected, edges are stored as (u, v, weight) with u < v,
  node indices are 0-based, weights are strictly positive;
* the Laplacian is dense and symmetric positive semidefinite with the
  all-ones vector in its kernel;
* a connected graph's Laplacian has kernel exactly span(1): every spectrum
  puts that kernel pair first, its eigenvalue an exact 0, and the rest
  ascending. A rank-one shift along 1 grounds the kernel's eigenvalue
  below every other, and eigh's kernel vector is the one most aligned with
  the all-ones vector; never by a threshold.

The design caches need no eigendecomposition. They hold the
pseudo-inverses of the Laplacian L and of the delay-shifted operator
S = (pi/2) Π - delay L (Π the centering projector), each from a Cholesky
factor of the operator grounded at one node: without that node's row and
column the operator is positive definite, and the inverse, padded with
zeros and centred, is its pseudo-inverse (_grounded_pinv). Each is formed
in place in one n x n buffer by numpy block recursions. The traces of the
two pseudo-inverses bound lambda_2 and the smallest pi/2 - delay lambda
from below; where those bounds cannot certify the verdict that L's
spectrum would give, EdgeFormCaches.build takes that spectrum, with eigh's
eigenvectors, instead.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import (
    ConvergenceFailure,
    DisconnectedGraph,
    DomainError,
    EdgeNotInGraph,
    IndexOutOfRange,
    SingularUpdate,
    UnstableNetwork,
)

# Relative scale for the singular-update denominator guard.
SINGULAR_UPDATE_SCALE = 1e-12
# Rows per block of every blocked product (_blocks): a fold's rank-k product,
# a pair read's gathered rows, and the Cholesky joins' products each keep a
# temporary of BLOCK_ROWS x n floats, 800 KB at n = 800, where the whole
# product would be an n x n one. 64 rows folded no faster at n = 800.
BLOCK_ROWS = 128
# Sherman-Morrison terms an operator keeps pending before it folds them into
# its pseudo-inverse, and into its sandwich once that is formed; chosen by
# the sweep recorded in CHANGES.md.
PENDING_TERM_CAP = 32
# While an operator's sandwich is unformed, its reads gather rows of its n x n
# pseudo-inverse: two rows per pair for the forms, and one matrix-vector
# product per move for the columns. Measured in the rows of those products
# (n = 400 to 1600, 2 BLAS threads; CHANGES.md), a pair's forms on both
# operators cost about PAIR_READ_ROWS rows, and forming the two sandwiches,
# which are then read in O(1) per pair and O(n) per move, costs about n² / 10
# rows. So the design runs on one EdgeFormCaches may claim
# n² / BASE_READ_DIVISOR rows in all, about one forming's worth: the run whose
# claim passes it forms the sandwiches at its start (EdgeFormCaches._plan).
PAIR_READ_ROWS = 16
BASE_READ_DIVISOR = 10
# Rows of a leaf of the Cholesky recursions (one LAPACK call on a copy).
FACTOR_LEAF_ROWS = 64
# A trace bound certifies a verdict of the grounded factors when it clears
# the rounding band of the spectrum's eigenvalues (_grounded_eigenvalues),
# n * eps times the largest eigenvalue, by this factor.
FACTOR_MARGIN = 1024.0

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
        at = bisect.bisect_left(self.edges, (key[0], key[1], self.weight(*key)))
        weights = dict(self._weights)
        del weights[key]
        return self._edited(self.edges[:at] + self.edges[at + 1 :], weights)

    def scaled(self, factor: float) -> "WeightedGraph":
        if not 0.0 < factor < np.inf:
            raise ValueError("scale factor must be positive and finite")
        return WeightedGraph(
            self.node_count, tuple((u, v, w * factor) for u, v, w in self.edges)
        )

    def _weighted_degrees(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """(weighted degrees as floats, _edge_arrays); bincount adds each
        node's weights in edge order, as a per-edge loop does, and returns
        integers for an empty edge list."""
        us, vs, ws = arrays = _edge_arrays(self.edges)
        ends = np.stack((us, vs), axis=1).ravel()
        return np.bincount(ends, np.repeat(ws, 2), minlength=self.node_count).astype(float), arrays

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


@dataclass(frozen=True)
class SpectralCache:
    """Spectrum of a symmetric matrix with the ones vector in its kernel, in
    eigendecompose's one form: the kernel pair at index 0, its eigenvalue an
    exact 0, the rest ascending. The eigenvalues are the same with or
    without eigenvectors; vectors is None for a spectrum taken without them.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray | None

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def nonzero_eigenvalues(self) -> np.ndarray:
        """Eigenvalues past the kernel, ascending. Raises DisconnectedGraph when
        one is within n * eps * max|eigenvalue| of zero, the backward-error
        floor of eigvalsh, and DomainError when one is negative, which
        no Laplacian eigenvalue is."""
        eigenvalues = self.eigenvalues
        values = eigenvalues[1:]
        floor = len(eigenvalues) * np.finfo(float).eps * np.abs(eigenvalues).max(initial=0.0)
        if len(values) == 0 or np.abs(values).min() <= floor:
            raise DisconnectedGraph(f"second kernel direction below {floor:.3e}: disconnected")
        if values[0] < 0.0:
            raise DomainError(f"eigenvalue {values[0]:.3e} is negative: not a Laplacian spectrum")
        return values

    @property
    def lambda_2(self) -> float:
        """Smallest eigenvalue past the kernel."""
        return float(self.nonzero_eigenvalues[0])

    @property
    def nonzero_eigenvectors(self) -> np.ndarray:
        """The eigenvectors of nonzero_eigenvalues, as columns; DomainError for
        a spectrum taken without eigenvectors."""
        if self.vectors is None:
            raise DomainError("this spectrum has no eigenvectors: eigendecompose it with vectors")
        return self.vectors[:, 1:]


def _grounded_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric A with A 1 = 0, the kernel's as an exact 0
    first. eigvalsh of A - (c/n) 11ᵀ, c = max|A_ii| plus twice the largest row
    sum of positive off-diagonal entries, has the kernel's 0 at -c, below
    every other eigenvalue (Gershgorin). On a Laplacian c is the largest
    weighted degree, at most lambda_max, so the norm and the solver's error
    stay. One n x n array holds the positive part, then the shifted copy."""
    shifted = np.maximum(matrix, 0.0)
    np.fill_diagonal(shifted, 0.0)
    with np.errstate(over="raise", invalid="raise"):
        positive = shifted.sum(axis=1).max(initial=0.0)
        ground = np.abs(matrix.diagonal()).max(initial=0.0) + 2.0 * positive
        np.subtract(matrix, ground / matrix.shape[0], out=shifted)
    eigenvalues = np.linalg.eigvalsh(shifted)
    eigenvalues[0] = 0.0
    return eigenvalues


def eigendecompose(matrix: np.ndarray, *, vectors: bool = True) -> SpectralCache:
    """Symmetric eigendecomposition in SpectralCache's form. The eigenvalues
    always come from _grounded_eigenvalues, so every spectrum of a matrix
    reads one lambda_max; with vectors=True, eigh supplies the eigenvectors
    only, its kernel vector, the one most aligned with the all-ones vector
    (argmax |1ᵀq|), rotated to the front in place. Raises DomainError when a
    value leaves the float range."""
    try:
        eigenvalues, basis = _grounded_eigenvalues(matrix), None
        if vectors:
            basis = np.linalg.eigh(matrix)[1]
            # Columns 0 to kernel move up by one: an n x (kernel + 1) temporary.
            k = int(np.argmax(np.abs(basis.sum(axis=0)))) + 1
            basis[:, :k] = np.roll(basis[:, :k], 1, axis=1)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    except FloatingPointError as exc:
        raise DomainError("the weights leave the float range in the grounded matrix") from exc
    if not np.isfinite(eigenvalues).all():
        raise DomainError("an eigenvalue is not finite: the weights leave the float range")
    return SpectralCache(eigenvalues=eigenvalues, vectors=basis)


def _gram_sandwich(pinv: np.ndarray, output_gram: np.ndarray | float) -> np.ndarray:
    """pinv @ gram @ pinv; pinv annihilates the ones vector, so a scale s (s times
    the centering projector) gives s pinv pinvᵀ, one BLAS syrk, not two GEMMs."""
    if np.ndim(output_gram) == 0:
        sandwich = pinv @ pinv.T
        sandwich *= output_gram
        return sandwich
    return pinv @ output_gram @ pinv


def edge_quadratic_forms(
    matrix: np.ndarray | float, us: np.ndarray | int, vs: np.ndarray | int
) -> np.ndarray:
    """Quadratic form bᵀ P b = P_uu + P_vv - 2 P_uv of the endpoint difference
    vector b of every pair (us[i], vs[i]), or of one pair of nodes;
    endpoints unchecked. A scale s stands for s times the centering
    projector: every form is 2 s."""
    if np.ndim(matrix) == 0:
        return np.full(np.shape(us), 2.0 * matrix)
    return matrix[us, us] + matrix[vs, vs] - 2.0 * matrix[us, vs]


def is_bridge(graph: WeightedGraph, edge: Edge) -> bool:
    """Whether removing the edge separates its endpoints: union-find over
    every other edge, so no weight enters the test."""
    key = _check_endpoints(graph.node_count, *edge)
    graph.weight(*key)  # EdgeNotInGraph for an absent edge
    uf = _UnionFind(graph.node_count)
    for u, v, _ in graph.edges:
        if (u, v) != key:
            uf.union(u, v)
    return uf.find(key[0]) != uf.find(key[1])


def _blocks(n: int, *, reverse: bool = False):
    """(start, end) of the BLOCK_ROWS-row blocks of range(n), last first if reverse."""
    starts = range(0, n, BLOCK_ROWS)
    for start in reversed(starts) if reverse else starts:
        yield start, min(start + BLOCK_ROWS, n)


def _invert_cholesky_factor(a: np.ndarray) -> None:
    """Overwrite a symmetric positive definite matrix, read from its lower
    triangle, with W = C⁻¹, C its lower Cholesky factor: W's lower triangle
    and zeros above it. A 2 x 2 block recursion: a leaf of FACTOR_LEAF_ROWS
    rows or fewer is np.linalg.cholesky then inv, and a join, with C21 =
    A21 W11ᵀ, forms the Schur complement A22 - C21 C21ᵀ, recurses on it and
    writes W21 = -W22 C21 W11 over A21. Each product goes a block of
    BLOCK_ROWS at a time, in the order that leaves every block it
    still reads unwritten, and skips the triangular factors' zero halves, so
    no temporary is larger than a block. Raises LinAlgError where a leaf is
    not numerically positive definite."""
    n = len(a)
    if n <= FACTOR_LEAF_ROWS:
        a[...] = np.tril(np.linalg.inv(np.linalg.cholesky(a)))
        return
    h = n // 2
    a11, a21, a22 = a[:h, :h], a[h:, :h], a[h:, h:]
    _invert_cholesky_factor(a11)
    # C21 = A21 W11ᵀ: column block [s, e) reads A21's columns below e.
    for start, end in _blocks(h, reverse=True):
        a21[:, start:end] = a21[:, :end] @ a11[start:end, :end].T
    # The Schur complement's lower triangle.
    for start, end in _blocks(n - h):
        a22[start:end, :end] -= a21[start:end] @ a21[:end].T
    _invert_cholesky_factor(a22)
    # C21 W11: column block [s, e) reads A21's columns from s on.
    for start, end in _blocks(h):
        a21[:, start:end] = a21[:, start:] @ a11[start:, start:end]
    # -W22 (C21 W11): row block [s, e) reads the rows below e.
    for start, end in _blocks(n - h, reverse=True):
        np.negative(a22[start:end, :end] @ a21[:end], out=a21[start:end])
    a[:h, h:] = 0.0


def _factor_gram(w: np.ndarray) -> None:
    """Overwrite a lower triangular W (zeros above) with WᵀW in its lower
    triangle, the upper left unspecified: W11ᵀW11 + W21ᵀW21, W22ᵀW21 and
    W22ᵀW22 by the same recursion, blocks and order as
    _invert_cholesky_factor."""
    n = len(w)
    if n <= FACTOR_LEAF_ROWS:
        w[...] = w.T @ w
        return
    h = n // 2
    w11, w21, w22 = w[:h, :h], w[h:, :h], w[h:, h:]
    _factor_gram(w11)
    for start, end in _blocks(h):
        w11[start:end, :end] += w21[:, start:end].T @ w21[:, :end]
    # W22ᵀW21: row block [s, e) reads W21's rows from s on.
    for start, end in _blocks(n - h):
        w21[start:end] = w22[start:, start:end].T @ w21[start:]
    _factor_gram(w22)


def _grounded_pinv(matrix: np.ndarray) -> np.ndarray:
    """The pseudo-inverse of a symmetric matrix A with kernel span(1),
    written over it. Grounded at the node k of its largest diagonal entry,
    A without row and column k is positive definite; its inverse G, padded
    with a zero row and column at k, gives A⁺ = Π G Π. Node k is swapped to
    the last row and column and back, G is (C⁻¹)ᵀC⁻¹ from the Cholesky
    factor C, and Π G Π is centred in place, so A's buffer is the only
    n x n array. Raises LinAlgError as _invert_cholesky_factor does."""
    n = len(matrix)
    k, last = int(np.argmax(matrix.diagonal())), n - 1
    _swap_nodes(matrix, k, last)
    grounded = matrix[:last, :last]
    _invert_cholesky_factor(grounded)
    _factor_gram(grounded)
    # Mirror the lower triangle: G is symmetric to the bit.
    for start, end in _blocks(last):
        grounded[start:end, end:] = grounded[end:, start:end].T
        block = grounded[start:end, start:end]
        upper = np.triu_indices(end - start, 1)
        block[upper] = block.T[upper]
    matrix[last] = 0.0
    matrix[:, last] = 0.0
    _swap_nodes(matrix, k, last)
    # Π G Π = G - (r_i + r_j - mean r), r the row means: symmetric to the bit.
    means = matrix.mean(axis=1)
    mean = means.mean()
    centre = np.empty((BLOCK_ROWS, n))
    for start, end in _blocks(n):
        rows = np.add(means[start:end, None], means, out=centre[: end - start])
        rows -= mean
        matrix[start:end] -= rows
    return matrix


def _swap_nodes(matrix: np.ndarray, i: int, j: int) -> None:
    """Swap rows i and j, then columns i and j, in place."""
    if i != j:
        matrix[[i, j]] = matrix[[j, i]]
        matrix[:, [i, j]] = matrix[:, [j, i]]


def _scaled_projector(scale: float, n: int) -> np.ndarray:
    """scale times the n x n centering projector Π, formed: each entry is
    scale (1 - 1/n) or scale (-1/n)."""
    matrix = np.full((n, n), scale * (-1.0 / n))
    np.fill_diagonal(matrix, scale * (1.0 - 1.0 / n))
    return matrix


class _DeferredPair:
    """One operator's pseudo-inverse P and sandwich Y = P @ gram @ P, each as
    it was last formed or folded plus the Sherman-Morrison terms since, and
    the current diag(gram @ P), kept term by term. P is an n x n array, or
    at zero delay the shifted operator's scale 2/pi, standing for (2/pi) Π
    as a named output's gram scale s stands for s Π. Y is None until formed
    (form): until then held Y is s P P, its edge form s ‖P[u] - P[v]‖² and
    its column s P (P b), read from held P's rows; a custom output's dense
    gram forms it at once. Pending term j is two n-vectors, p_j and corr_j,
    and a scalar alpha_j:

        P = held P - sum_j alpha_j p_j p_jᵀ
        Y = held Y + sum_j (p_j corr_jᵀ + corr_j p_jᵀ)

    Reads add the terms themselves and change nothing: a whole matrix is
    read as a new copy. add_term keeps a term; once PENDING_TERM_CAP are
    pending, sherman_morrison_update folds them (fold): P's into P, and Y's
    into Y once formed, by one blocked rank-k product each. An unformed Y
    is read from the folded P, so its terms lapse with the fold.
    """

    def __init__(self, inverse: np.ndarray | float, gram: np.ndarray | float, n: int) -> None:
        self.inverse = inverse
        self.gram = gram
        self.sandwich = None
        # terms[j] holds the rows p_j and corr_j, so terms[:k] is the
        # contiguous 2k x n factor of the sandwich's terms. np.empty leaves
        # pages no term has reached unwritten.
        self.terms = np.empty((PENDING_TERM_CAP, 2, n))
        self.alphas = np.empty(PENDING_TERM_CAP)
        self.count = 0
        if np.ndim(gram):
            self.form()
        self.diagonal = self._gram_diagonal()

    def form(self) -> None:
        """Form Y, with P as an n x n array first if it is a scale: one BLAS
        syrk for a named output's gram."""
        if self.sandwich is None:
            if np.ndim(self.inverse) == 0:
                self.inverse = _scaled_projector(self.inverse, self.terms.shape[2])
            self.sandwich = _gram_sandwich(self.inverse, self.gram)

    def _gram_diagonal(self) -> np.ndarray:
        """diag(gram @ held P) as a new array: s diag P for a scale s."""
        inverse, n = self.inverse, self.terms.shape[2]
        if np.ndim(inverse) == 0:
            return np.full(n, self.gram * (inverse * (1.0 - 1.0 / n)))
        if np.ndim(self.gram) == 0:
            return self.gram * inverse.diagonal()
        return np.einsum("ij,ji->i", self.gram, inverse)

    def forms(self, us: np.ndarray | int, vs: np.ndarray | int) -> tuple:
        """Edge forms of the current Y and P at the pairs: O(1) per pair once
        Y is formed, else O(n) for Y's, whose rows of P are gathered a block
        of pairs at a time (_blocks), so the temporaries stay BLOCK_ROWS rows
        whatever the number of pairs; O(k) more for k pending terms."""
        inverse = self.inverse
        if self.sandwich is not None:
            sandwich = edge_quadratic_forms(self.sandwich, us, vs)
        elif np.ndim(inverse) == 0:
            # s (c Π)² = s c² Π.
            sandwich = edge_quadratic_forms(self.gram * inverse * inverse, us, vs)
        else:
            pairs_u, pairs_v = np.ravel(us), np.ravel(vs)
            sandwich = np.empty(len(pairs_u))
            for start, end in _blocks(len(pairs_u)):
                diff = inverse[pairs_u[start:end]] - inverse[pairs_v[start:end]]
                sandwich[start:end] = np.einsum("ij,ij->i", diff, diff)
            sandwich *= self.gram
            sandwich = sandwich.reshape(np.shape(us))
        inverse = edge_quadratic_forms(inverse, us, vs)
        k = self.count
        if k:
            # bᵀp_j and bᵀcorr_j for every term and pair.
            diff = self.terms[:k, :, us] - self.terms[:k, :, vs]
            dp, dc = diff[:, 0], diff[:, 1]
            sandwich = sandwich + 2.0 * np.sum(dp * dc, axis=0)
            inverse = inverse - self.alphas[:k] @ (dp * dp)
        return sandwich, inverse

    def columns(self, u: int, v: int) -> np.ndarray:
        """P b and Y b of the current matrices, b the endpoint difference
        vector of (u, v): column slices once Y is formed, else P's rows
        P[u] - P[v] (P is symmetric, to its last bits after a fold) and one
        matrix-vector product s P (P b); O(n k) more for k pending terms."""
        inverse, k = self.inverse, self.count
        # Row 0 of steps holds the held matrices' columns and row j + 1
        # what term j adds, -alpha_j (bᵀp_j) p_j and (bᵀcorr_j) p_j + (bᵀp_j)
        # corr_j. numpy sums the rows one at a time in order, as updating the
        # matrices move by move would add them: when a term cancels most of
        # the held matrix, the terms after it keep their digits, where a sum
        # of the terms formed first would round them to the cancelled size.
        steps = np.empty((2, k + 1, len(self.diagonal)))
        if self.sandwich is not None:
            # A fold leaves the matrices short of bit-symmetric: read columns.
            steps[0, 0] = inverse[:, u] - inverse[:, v]
            steps[1, 0] = self.sandwich[:, u] - self.sandwich[:, v]
        elif np.ndim(inverse) == 0:
            # c Π b = c b, and s (c Π)² b = s c² b.
            steps[:, 0] = 0.0
            steps[:, 0, u] = inverse, self.gram * inverse * inverse
            steps[:, 0, v] = -steps[:, 0, u]
        else:
            column = inverse[u] - inverse[v]
            steps[0, 0], steps[1, 0] = column, self.gram * (inverse @ column)
        if k:
            dp, dc = (self.terms[:k, :, u] - self.terms[:k, :, v]).T
            ps, corrs = self.terms[:k, 0], self.terms[:k, 1]
            np.multiply((-self.alphas[:k] * dp)[:, None], ps, out=steps[0, 1:])
            np.multiply(dc[:, None], ps, out=steps[1, 1:])
            steps[1, 1:] += dp[:, None] * corrs
        return steps.sum(axis=1)

    def update_term(
        self, u: int, v: int, coefficient: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Term (p, corr, alpha) of A += c b bᵀ, b the endpoint
        difference vector of (u, v), from the columns p = P b and z = Y b;
        reads the caches and writes nothing.

        b is orthogonal to the all-ones kernel, so the Sherman-Morrison
        identity applies to these pseudo-inverses unchanged. Callers test the
        denominator first, by _checked_move.
        """
        p, z = self.columns(u, v)
        # alpha keeps this update's own rounding of bᵀP b, p[u] - p[v].
        alpha = coefficient / (1.0 + coefficient * (p[u] - p[v]))
        sandwich_quad = z[u] - z[v]
        # Y_new = Y - alpha (p zᵀ + z pᵀ) + alpha² (bᵀYb) p pᵀ, folded into the
        # symmetric rank-two term p corrᵀ + corr pᵀ.
        corr = -alpha * z + (0.5 * alpha * alpha * sandwich_quad) * p
        return p, corr, alpha

    def add_term(self, p: np.ndarray, corr: np.ndarray, alpha: float) -> None:
        """Keep one update_term, of at most PENDING_TERM_CAP pending."""
        k = self.count
        self.terms[k, 0] = p
        self.terms[k, 1] = corr
        self.alphas[k] = alpha
        # gram @ P loses alpha (gram p) pᵀ; np.dot multiplies by a scale.
        self.diagonal -= (alpha * np.dot(self.gram, p)) * p
        self.count = k + 1

    def fold(self) -> None:
        """Add every pending term to P, and to Y if it is formed: an unformed
        Y is read from P, which now holds its terms."""
        self._add_terms(self.inverse, 0)
        if self.sandwich is not None:
            self._add_terms(self.sandwich, 1)
        self.count = 0
        self.diagonal = self._gram_diagonal()

    def _add_terms(self, matrix: np.ndarray, which: int) -> None:
        """Add the pending terms of P (which 0) or Y (1) to a matrix in place,
        a block of rows at a time (_blocks): P -= (alpha p)ᵀ p, or Y +=
        [p; corr]ᵀ [corr; p] over the stacked terms. Both triangles stay
        stored."""
        k = self.count
        if not k:
            return
        n = self.terms.shape[2]
        if which == 0:
            # P -= x and P += (-x) round alike.
            ps = self.terms[:k, 0]
            left, right = self.alphas[:k, None] * ps, -ps
        else:
            left = self.terms[:k].reshape(2 * k, n)
            right = self.terms[:k, ::-1].reshape(2 * k, n)
        for start, end in _blocks(n):
            matrix[start:end] += left[:, start:end].T @ right

    def current(self, which: int) -> np.ndarray:
        """A new copy of P (which 0) or Y (1) with its pending terms, as a
        fold now would leave it; Y by _gram_sandwich while unformed."""
        held = self.sandwich if which else self.inverse
        if held is not None and np.ndim(held):
            matrix = held.copy()
        else:
            inverse = self.inverse
            if np.ndim(inverse) == 0:
                inverse = _scaled_projector(inverse, self.terms.shape[2])
            matrix = _gram_sandwich(inverse, self.gram) if which else inverse
        self._add_terms(matrix, which)
        return matrix

    def gram_trace(self) -> float:
        """Tr[gram @ P], O(n): the sum of the kept diagonal, on which a term
        that cancels most of an entry leaves later terms their digits."""
        return float(self.diagonal.sum())


class EdgeFormCaches:
    """The four matrices whose edge quadratic forms drive topology design.

    Roles:
      lap_pinv         pseudo-inverse of the Laplacian
      shift_pinv       pseudo-inverse of the delay-shifted operator
      lap_pinv_gram    lap_pinv @ output_gram @ lap_pinv
      shift_pinv_gram  shift_pinv @ output_gram @ shift_pinv

    Each operator holds its own pseudo-inverse and sandwich plus the pending
    terms of the updates since its last fold (_DeferredPair). A named
    output's sandwiches start unformed, read from the pseudo-inverse, across
    folds too, in O(n) per pair and one O(n^2) product per move; a custom
    output's are formed at construction. One rule forms a named output's:
    both together, the pending terms left pending, at the start of the
    design run whose claim takes the rows claimed on these caches past
    n² / BASE_READ_DIVISOR (_plan). Short runs that score few pairs never
    form them, and a long or wide one forms them at its start. Nothing else
    forms them: a fold, or a read, whether of forms, of a move's columns or
    of the four attributes (new copies of the current matrices), changes
    nothing that a later read or move sees. The design loop never reads the
    attributes, since its reads add the pending terms themselves.

    The Laplacian, edited in place by every update, and the output gram
    ride along so trace-form evaluations need no extra state. output_gram
    is a custom output's dense CᵀC, or a named output's scale s: s times
    the centering projector is never formed. inverses holds L⁺ and S⁺ (S⁺
    the scale 2/pi at zero delay); DomainError when s Tr(L⁺²) or a custom
    output's sandwich leaves the float range, as for weights below about
    1e-154.
    """

    def __init__(
        self, laplacian: np.ndarray, delay: float, output_gram: np.ndarray | float,
        inverses: list,
    ) -> None:
        self.laplacian = laplacian
        self.output_gram = output_gram
        self.delay = delay
        # Reads the design runs' plans have claimed, in rows (_plan).
        self._claimed = 0
        message = "the weights leave the float range in the design caches"
        with _typed_overflow(message, DomainError):
            if np.ndim(output_gram) == 0:
                flat = inverses[0].ravel()
                if not np.isfinite(output_gram * np.dot(flat, flat)):
                    raise DomainError(message)
            n = len(laplacian)
            self._lap, self._shift = (_DeferredPair(p, output_gram, n) for p in inverses)

    @property
    def lap_pinv(self) -> np.ndarray:
        return self._lap.current(0)

    @property
    def shift_pinv(self) -> np.ndarray:
        return self._shift.current(0)

    @property
    def lap_pinv_gram(self) -> np.ndarray:
        return self._lap.current(1)

    @property
    def shift_pinv_gram(self) -> np.ndarray:
        return self._shift.current(1)

    def _plan(self, moves: int, pairs: int) -> None:
        """Claim the reads that `moves` moves scoring `pairs` pairs each would
        make, in rows of a move's products (PAIR_READ_ROWS a pair, n a
        move), and form the sandwiches now once the claims on these caches
        pass n² / BASE_READ_DIVISOR rows: the matrices serve the rest for
        less."""
        n = len(self.laplacian)
        self._claimed += moves * (PAIR_READ_ROWS * pairs + n)
        if self._claimed > n * n / BASE_READ_DIVISOR:
            self._lap.form()
            self._shift.form()

    @classmethod
    def build(
        cls, laplacian: np.ndarray, output_gram: np.ndarray | float, delay: float
    ) -> "EdgeFormCaches":
        """The caches of a Laplacian L at a delay, without an eigendecomposition
        of L where its grounded Cholesky factors certify the verdict
        (_pseudo_inverses). The caches edit a copy of the Laplacian."""
        return cls(laplacian.copy(), delay, output_gram, _pseudo_inverses(laplacian, delay))


def _pseudo_inverses(laplacian: np.ndarray, delay: float) -> list:
    """[L⁺, S⁺] of a Laplacian L at a delay, S⁺ the scale 2/pi at zero delay;
    the Laplacian is only read.

    S = (pi/2) Π - delay L (Π the centering projector) has L's eigenvectors
    and eigenvalues mu = pi/2 - delay lambda, every one > 0 exactly when
    check_stability finds the delay stable. Both are factored grounded
    (_grounded_pinv), and the factors' pseudo-inverses are kept when both
    factors succeed and their traces certify the spectrum's verdict:
    1/Tr(L⁺) <= lambda_2 clears the n eps lambda_max floor of
    SpectralCache.nonzero_eigenvalues, and 1/Tr(S⁺) <= min mu clears the
    n eps (pi/2) band of the rounding of delay lambda_max, each by
    FACTOR_MARGIN (_factored_inverses). Otherwise they are read from L's
    spectrum (eigendecompose: eigh's eigenvectors, and the eigenvalues that
    every spectrum of L reads), after the checks of the spectrum
    (DisconnectedGraph, DomainError) and of the delay (UnstableNetwork): so
    every verdict and error is that of L's spectrum, as check_stability and
    performance_report read it. Raises DomainError on a delay outside
    [0, inf).
    """
    if not 0.0 <= delay < np.inf:
        raise DomainError("delay must be nonnegative")
    inverses = _factored_inverses(laplacian, delay)
    if inverses is None:
        inverses = _spectral_inverses(eigendecompose(laplacian), delay)
    return inverses


def _factored_inverses(laplacian: np.ndarray, delay: float) -> list | None:
    """[L⁺, S⁺] from the grounded Cholesky factors (S⁺ the scale 2/pi at zero
    delay), or None where a factor fails or its trace bound does not clear
    the spectrum's rounding band by FACTOR_MARGIN (EdgeFormCaches.build).
    lambda_max is bounded by the largest absolute row sum (Gershgorin)."""
    n = len(laplacian)
    if n < 2:
        return None
    band = FACTOR_MARGIN * n * np.finfo(float).eps
    with np.errstate(all="ignore"):
        try:
            row_bound = np.abs(laplacian).sum(axis=1).max()
            lap_pinv = _grounded_pinv(laplacian.copy())
            if not 1.0 / np.trace(lap_pinv) > band * row_bound:
                return None
            if delay == 0.0:
                return [lap_pinv, 2.0 / np.pi]
            shift = np.multiply(laplacian, -delay)
            shift -= (np.pi / 2.0) / n
            shift.flat[:: n + 1] += np.pi / 2.0
            shift_pinv = _grounded_pinv(shift)
        except np.linalg.LinAlgError:
            return None
        if not 1.0 / np.trace(shift_pinv) > band * (np.pi / 2.0):
            return None
    return [lap_pinv, shift_pinv]


def _spectral_inverses(spectrum: SpectralCache, delay: float) -> list:
    """[L⁺, S⁺] read from L's spectrum, eigenvalues lambda and eigenvectors V
    (S⁺ the scale 2/pi at zero delay), each V diag(g) Vᵀ by BLAS syrk, after
    the spectrum's checks and the delay's: L⁺ has g = 1/lambda, and S⁺ =
    (2/pi) Π + V diag(a) Vᵀ with a = (2/pi) delay lambda / mu, Π's entries
    added in place."""
    lam = spectrum.nonzero_eigenvalues
    shifted = np.pi / 2.0 - delay * lam
    if shifted.min() <= 0.0:
        raise UnstableNetwork(
            f"delay {delay} exceeds the stability threshold {np.pi / (2.0 * lam[-1])}"
        )
    c = 2.0 / np.pi
    with _typed_overflow("the weights leave the float range in the design caches", DomainError):
        inverse = 1.0 / lam
        a = c * delay * lam / shifted
    vectors = spectrum.nonzero_eigenvectors
    inverses = []
    for weights in (inverse, a) if delay else (inverse,):
        scaled = vectors * np.sqrt(weights)
        inverses.append(scaled @ scaled.T)
    if not delay:
        return inverses + [c]
    shift_pinv, n = inverses[1], len(vectors)
    diagonal = shift_pinv.diagonal() + c * (1.0 - 1.0 / n)
    shift_pinv += c * (-1.0 / n)
    np.fill_diagonal(shift_pinv, diagonal)
    return inverses


@contextmanager
def _typed_overflow(message: str, error: type = SingularUpdate):
    """Re-raise an overflow, NaN or division by zero in the block as error."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise error(message) from exc


def _edge_forms(caches: EdgeFormCaches, us: np.ndarray | int, vs: np.ndarray | int) -> list:
    """Edge forms of lap_pinv_gram, lap_pinv, shift_pinv_gram, shift_pinv and
    output_gram, in that order, at every pair (us[i], vs[i]) and every delay,
    endpoints unchecked; one pair's as Python floats, whose 1 / (tau s) past
    the float range reads inf where a numpy scalar would warn. Each shift form
    enters the fit with a factor tau, so at zero delay it adds an exact zero. A read
    that overflows, as after many moves at the stability bound, raises SingularUpdate."""
    with _typed_overflow("the cached edge forms leave the float range"):
        lap_gram, lap = caches._lap.forms(us, vs)
        shift_gram, shift = caches._shift.forms(us, vs)
    forms = [lap_gram, lap, shift_gram, shift, edge_quadratic_forms(caches.output_gram, us, vs)]
    return [float(form) for form in forms] if np.ndim(us) == 0 else forms


def _refused(delay, weights, q_lap, q_shift):
    """Whether a move of weight w, c b bᵀ on the Laplacian (c = w) and on the
    shifted operator (c = -delay w), leaves either singular or indefinite on 1⊥:
    whether some denominator 1 + c q, q = bᵀ A⁺ b, is at or below
    SINGULAR_UPDATE_SCALE times its largest term; elementwise."""
    refused = False
    for coefficient, quad in ((weights, q_lap), (-delay * weights, q_shift)):
        product = coefficient * quad
        scale = np.maximum(np.maximum(1.0, np.abs(product)), np.abs(coefficient))
        refused = refused | (1.0 + product <= SINGULAR_UPDATE_SCALE * scale)
    return refused


def _checked_move(caches: EdgeFormCaches, edge: Edge, dweight: float) -> tuple[Edge, list]:
    """The canonical edge and its five _edge_forms, once dweight on it passes,
    in order: endpoints, a finite change, a present weight -laplacian[u, v]
    (exact: every edit negates a graph-weight sum) that falls to zero at most
    and never from an absent pair, and _refused. A zero change always passes."""
    key = _check_endpoints(caches.laplacian.shape[0], *edge)
    if not np.isfinite(dweight):
        raise ValueError(f"weight change on edge {key} must be finite, got {dweight}")
    weight = -caches.laplacian[key]
    if dweight < 0.0 and weight == 0.0:
        raise EdgeNotInGraph(f"edge {key} not in graph")
    if weight + dweight < 0.0:
        raise ValueError(f"{dweight} on edge {key} of weight {weight} leaves it negative")
    forms = _edge_forms(caches, *key)
    if _refused(caches.delay, dweight, forms[1], forms[3]):
        raise SingularUpdate(f"{dweight} on edge {key} leaves an operator singular or indefinite")
    return key, forms


def sherman_morrison_update(caches: EdgeFormCaches, edge: Edge, dweight: float) -> None:
    """Apply a weight change on one edge to all four cached matrices.

    dweight > 0 adds weight, dweight < 0 removes it, down to zero at most and
    never from an absent pair; a zero change writes nothing. Each operator
    keeps the change as one pending term of n-vectors, O(n k) with k terms
    pending, past its held matrices' columns (one O(n^2) product while its
    sandwich is not formed). Every PENDING_TERM_CAP-th update folds the
    terms into the pseudo-inverse, and into the sandwich if it is formed,
    O(n^2 k); a fold forms nothing. The Laplacian is edited in place.
    Raises what _checked_move (and so edge_contribution) raises, and
    SingularUpdate for an overflow or NaN forming the terms, changing nothing.
    """
    (u, v), _ = _checked_move(caches, edge, dweight)
    if dweight == 0.0:
        return
    # An operator whose coefficient is zero is left as it is: at zero delay the
    # shifted operator is (pi/2) times the centering projector on every graph.
    coefficients = ((caches._lap, dweight), (caches._shift, -caches.delay * dweight))
    # Both terms are formed before either is kept, so an error leaves every cache as it was.
    with _typed_overflow(f"{dweight} on edge {u, v} leaves a cached term non-finite"):
        terms = [(pair, pair.update_term(u, v, c)) for pair, c in coefficients if c != 0.0]
    for pair, term in terms:
        pair.add_term(*term)
        if pair.count == PENDING_TERM_CAP:
            pair.fold()
    lap = caches.laplacian
    lap[u, u] += dweight
    lap[v, v] += dweight
    lap[u, v] -= dweight
    lap[v, u] -= dweight
