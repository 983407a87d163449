"""Greedy topology design driven by rank-one performance differences.

Adding weight w on edge e changes the performance fit by a closed-form
amount computable from four cached edge quadratic forms, so each greedy
iteration costs O(n^2 + candidates) after one upfront eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DisconnectedGraph,
    DomainError,
    NoFeasibleCandidate,
    SingularUpdate,
)
from .graphs import (
    BRIDGE_TOLERANCE,
    EdgeFormCaches,
    WeightedGraph,
    _check_endpoints,
    edge_quadratic_form,
    edge_quadratic_forms,
    eigendecompose,
    sherman_morrison_update,
)
from .performance import (
    FIT_SLOPE,
    OutputSpec,
    check_stability,
    cosine_fixed_point,
    require_stable,
    rho_approx_from_caches,
    rho_exact,
    sensitivities,
)

# Candidate weights must stay below (1 - EPS_STABILITY) times the edge
# stability bound.
EPS_STABILITY = 1e-6
# Audit mode (exact-measure recomputation per iteration) defaults on up to
# this many nodes.
AUDIT_NODE_LIMIT = 200


@dataclass(frozen=True)
class CandidateSet:
    """Weighted candidate edges plus an iteration budget.

    Entries are canonicalized and sorted lexicographically, which fixes the
    deterministic tie-break order of the greedy loops. Budget 0 is allowed
    and yields an empty trace.
    """

    entries: tuple[tuple[int, int, float], ...]
    budget: int

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        seen: set[tuple[int, int]] = set()
        canonical = []
        for u, v, w in self.entries:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError(f"candidate self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if w <= 0.0:
                raise ValueError(f"candidate {key} has non-positive weight {w}")
            if key in seen:
                raise ValueError(f"duplicate candidate {key}")
            seen.add(key)
            canonical.append((key[0], key[1], w))
        canonical.sort()
        object.__setattr__(self, "entries", tuple(canonical))

    def validate_against(self, graph: WeightedGraph) -> None:
        for u, v, _ in self.entries:
            _check_endpoints(graph.node_count, u, v)
            if graph.has_edge(u, v):
                raise ValueError(f"candidate ({u}, {v}) is already an edge")


@dataclass(frozen=True)
class TraceEntry:
    """One design iteration: what changed and the certified values after."""

    iteration: int
    action: str  # "add", "remove", or "skip" (zero-weight placeholder pick)
    edge: tuple[int, int] | None
    weight: float
    contribution: float
    improvement: float
    rho_fit: float
    rho_exact: float | None
    stability_margin: float | None
    sensitivity: float | None = None


@dataclass
class DesignTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    termination: str = "budget exhausted"


class DesignState:
    """Mutable design loop state: graph, caches, and the tracked fit value.

    With audit enabled, every mutation re-eigendecomposes the Laplacian to
    record the exact measure and stability margin; without it the loop
    relies on the edge stability bound and costs O(n^2) per step.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        out: OutputSpec,
        delay: float,
        caches: EdgeFormCaches,
        rho_fit: float,
        audit: bool,
    ) -> None:
        self.graph = graph
        self.out = out
        self.delay = delay
        self.caches = caches
        self.rho_fit = rho_fit
        self.audit = audit

    @classmethod
    def from_graph(
        cls,
        graph: WeightedGraph,
        out: OutputSpec,
        delay: float,
        audit: bool | None = None,
    ) -> "DesignState":
        if out.node_count != graph.node_count:
            raise ValueError("output spec and graph disagree on the node count")
        if delay < 0.0:
            raise DomainError("delay must be nonnegative")
        if not graph.is_connected():
            raise DisconnectedGraph("design requires a connected graph")
        require_stable(eigendecompose(graph.laplacian()), delay)
        caches = EdgeFormCaches.build(graph.laplacian(), out.gram(), delay)
        if audit is None:
            audit = graph.node_count <= AUDIT_NODE_LIMIT
        return cls(graph, out, delay, caches, rho_approx_from_caches(caches), audit)

    def audit_values(self) -> tuple[float | None, float | None]:
        """(exact measure, stability margin) after a mutation, audit mode only."""
        if not self.audit:
            return None, None
        spectrum = eigendecompose(self.caches.laplacian)
        stability = require_stable(spectrum, self.delay)
        return rho_exact(spectrum, self.out, self.delay), stability.margin


def _contribution_terms(
    state: DesignState,
    us: np.ndarray,
    vs: np.ndarray,
    weights: np.ndarray,
    gram_forms: np.ndarray,
) -> np.ndarray:
    """Vectorized fit change for adding weights[i] on edge (us[i], vs[i]).

    Negative weights evaluate the removal direction. Callers keep
    denominators away from zero (stability bound on one side, bridge
    exclusion on the other).
    """
    tau = state.delay
    q1 = edge_quadratic_forms(state.caches.lap_pinv_gram, us, vs)
    q2 = edge_quadratic_forms(state.caches.lap_pinv, us, vs)
    resistance_term = -q1 / (2.0 / weights + 2.0 * q2)
    if tau == 0.0:
        return resistance_term
    q3 = edge_quadratic_forms(state.caches.shift_pinv_gram, us, vs)
    q4 = edge_quadratic_forms(state.caches.shift_pinv, us, vs)
    return (
        resistance_term
        + 0.5 * FIT_SLOPE * tau * tau * weights * gram_forms
        - (2.0 * tau / math.pi) * q3 / (-1.0 / (weights * tau) + q4)
    )


def edge_contribution(state: DesignState, edge: tuple[int, int], weight: float) -> float:
    """Fit change from adding weight on the edge; exact rank-one difference.

    Zero weight contributes zero. A negative weight evaluates removing that
    much weight from a present edge.
    """
    u, v = _check_endpoints(state.graph.node_count, *edge)
    if weight == 0.0:
        return 0.0
    tau = state.delay
    q2 = edge_quadratic_form(state.caches.lap_pinv, u, v)
    d1 = 2.0 / weight + 2.0 * q2
    if abs(d1) < 1e-14 * max(1.0, q2):
        raise SingularUpdate("contribution denominator vanishes (bridge removal)")
    if tau > 0.0:
        q4 = edge_quadratic_form(state.caches.shift_pinv, u, v)
        d3 = -1.0 / (weight * tau) + q4
        if abs(d3) < 1e-14 * max(1.0, q4):
            raise SingularUpdate("contribution denominator vanishes (stability bound)")
    gram_form = state.out.gram_edge_form(u, v)
    return float(
        _contribution_terms(
            state,
            np.array([u]),
            np.array([v]),
            np.array([float(weight)]),
            np.array([gram_form]),
        )[0]
    )


def edge_stability_bound(state: DesignState, edge: tuple[int, int]) -> float:
    """Largest addable weight on the edge keeping the delayed network stable.

    The added weight w preserves stability iff w < bound, with equality
    already unstable. Unbounded (+inf) at zero delay.
    """
    u, v = _check_endpoints(state.graph.node_count, *edge)
    if state.delay == 0.0:
        return math.inf
    return 1.0 / (state.delay * edge_quadratic_form(state.caches.shift_pinv, u, v))


def contribution_upper_bound(state: DesignState, edge: tuple[int, int]) -> float:
    """Weight-free ceiling on the improvement any feasible weight can bring."""
    u, v = _check_endpoints(state.graph.node_count, *edge)
    q1 = edge_quadratic_form(state.caches.lap_pinv_gram, u, v)
    q2 = edge_quadratic_form(state.caches.lap_pinv, u, v)
    bound = q1 / (2.0 * q2)
    if state.delay > 0.0:
        q4 = edge_quadratic_form(state.caches.shift_pinv, u, v)
        bound -= FIT_SLOPE * state.delay / q4
    return bound


def _move_arrays(
    entries: Sequence[tuple[int, int, float]], out: OutputSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(us, vs, weights, gram forms) of weighted edges."""
    us = np.array([e[0] for e in entries], dtype=int)
    vs = np.array([e[1] for e in entries], dtype=int)
    ws = np.array([e[2] for e in entries], dtype=float)
    gram_forms = np.array([out.gram_edge_form(u, v) for u, v, _ in entries])
    return us, vs, ws, gram_forms


def _improvements(
    state: DesignState,
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray,
    gram_forms: np.ndarray,
    eligible: np.ndarray,
) -> np.ndarray:
    """Fit improvement of each move (us[i], vs[i], ws[i]); -inf where not eligible.

    Only the moves in the eligible mask whose weight stays below
    (1 - EPS_STABILITY) times the edge stability bound are scored. A
    removal (negative weight) passes that test on any stable network;
    callers keep bridges out of the mask.
    """
    idx = np.flatnonzero(eligible)
    if state.delay > 0.0:
        q4 = edge_quadratic_forms(state.caches.shift_pinv, us[idx], vs[idx])
        idx = idx[ws[idx] < (1.0 - EPS_STABILITY) * (1.0 / (state.delay * q4))]
    improvement = np.full(len(ws), -np.inf)
    improvement[idx] = -_contribution_terms(state, us[idx], vs[idx], ws[idx], gram_forms[idx])
    return improvement


# A move is (action, edge, signed weight, contribution, improvement,
# sensitivity); a string instead ends the run with that termination reason.
Move = tuple[str, tuple[int, int] | None, float, float, float, float | None]


def _greedy(
    state: DesignState, budget: int, next_move: Callable[[int], Move | str]
) -> DesignTrace:
    """The loop every driver shares: ask for a move, apply it, record it.

    An "add" or "remove" move updates the caches by one Sherman-Morrison
    pair update, edits the graph, and advances the tracked fit; a "skip"
    move changes nothing but still takes an iteration and a trace entry.
    """
    trace = DesignTrace()
    for iteration in range(1, budget + 1):
        move = next_move(iteration)
        if isinstance(move, str):
            trace.termination = move
            return trace
        action, edge, weight, contribution, improvement, slope = move
        if action != "skip":
            sherman_morrison_update(state.caches, edge, weight)
            if action == "add":
                state.graph = state.graph.with_edge(*edge, weight)
            else:
                state.graph = state.graph.without_edge(*edge)
            state.rho_fit += contribution
        exact_after, margin_after = state.audit_values()
        trace.entries.append(
            TraceEntry(
                iteration=iteration,
                action=action,
                edge=edge,
                weight=weight,
                contribution=contribution,
                improvement=improvement,
                rho_fit=state.rho_fit,
                rho_exact=exact_after,
                stability_margin=margin_after,
                sensitivity=slope,
            )
        )
    return trace


def grow_simple(state: DesignState, candidates: CandidateSet) -> DesignTrace:
    """Greedy growing: repeatedly add the feasible candidate with the best
    immediate improvement; stop early when none improves.

    Mutates state; returns the per-iteration trace. Raises
    NoFeasibleCandidate only when the first iteration has no feasible
    candidate; a feasible set that empties mid-run just terminates.
    """
    candidates.validate_against(state.graph)
    us, vs, ws, gram_forms = _move_arrays(candidates.entries, state.out)
    active = np.ones(len(ws), dtype=bool)

    def next_move(iteration: int) -> Move | str:
        improvement = _improvements(state, us, vs, ws, gram_forms, active)
        if np.isneginf(improvement).all():
            if iteration == 1:
                raise NoFeasibleCandidate(
                    "every candidate weight violates the stability bound"
                )
            return "no feasible candidate"
        # Candidates are pre-sorted lexicographically, so the first argmax
        # is the lowest-(u, v) tie-break winner.
        best = int(np.argmax(improvement))
        best_h = float(improvement[best])
        if best_h <= 0.0:
            return "no improving candidate"
        active[best] = False
        return "add", (int(us[best]), int(vs[best])), float(ws[best]), -best_h, best_h, None

    return _greedy(state, candidates.budget, next_move)


def grow_random(
    state: DesignState, candidates: CandidateSet, seed: int | None = None
) -> DesignTrace:
    """Randomized greedy growing: pick uniformly from the top-budget
    improvement set each iteration.

    The pool is padded with 2*budget - 1 zero-improvement placeholder
    members; selecting one consumes an iteration without changing the
    graph, which makes the number of real additions adapt to how many
    candidates actually help. Runs exactly budget iterations, no early
    break. With budget 1 the top-1 set is the argmax, so the result
    matches grow_simple.
    """
    candidates.validate_against(state.graph)
    rng = np.random.default_rng(seed)
    k = candidates.budget
    placeholders_left = 2 * k - 1
    us, vs, ws, gram_forms = _move_arrays(candidates.entries, state.out)
    active = np.ones(len(ws), dtype=bool)

    def next_move(iteration: int) -> Move:
        nonlocal placeholders_left
        improvement = _improvements(state, us, vs, ws, gram_forms, active)
        # Stable descending sort keeps the lexicographic candidate order on
        # ties; placeholders (improvement 0) rank after equal-value reals,
        # and unscored moves (-inf) never enter the pool.
        ranked = np.argsort(-improvement, kind="stable")[:k]
        reals = [int(i) for i in ranked if improvement[i] >= 0.0]
        top = (reals + [None] * placeholders_left)[:k]
        pick = top[int(rng.integers(len(top)))]
        if pick is None:
            placeholders_left -= 1
            return "skip", None, 0.0, 0.0, 0.0, None
        best_h = float(improvement[pick])
        active[pick] = False
        return "add", (int(us[pick]), int(vs[pick])), float(ws[pick]), -best_h, best_h, None

    return _greedy(state, k, next_move)


def sparsify(state: DesignState, budget: int) -> DesignTrace:
    """Greedy edge removal: drop the edge whose removal improves the fit
    most, never touching bridges, until nothing improves or budget runs out.

    Removal only shrinks eigenvalues, so stability is preserved for free;
    skipping bridges preserves connectivity.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")

    def next_move(iteration: int) -> Move | str:
        if not state.graph.edges:
            return "no removable edge"
        us, vs, ws, gram_forms = _move_arrays(state.graph.edges, state.out)
        q2 = edge_quadratic_forms(state.caches.lap_pinv, us, vs)
        removable = np.abs(ws * q2 - 1.0) > BRIDGE_TOLERANCE
        if not removable.any():
            return "all edges are bridges"
        improvement = _improvements(state, us, vs, -ws, gram_forms, removable)
        best = int(np.argmax(improvement))
        best_h = float(improvement[best])
        if best_h <= 0.0:
            return "no improving removal"
        return "remove", (int(us[best]), int(vs[best])), -float(ws[best]), -best_h, best_h, None

    return _greedy(state, budget, next_move)


def golden_section_min(
    fn: Callable[[float], float], lo: float, hi: float, width: float
) -> float:
    """Minimizer of a unimodal function, bracket shrunk below width."""
    if hi < lo:
        raise ValueError("empty bracket")
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def grow_by_sensitivity(
    state: DesignState, pairs: Sequence[tuple[int, int]], budget: int
) -> DesignTrace:
    """Gradient-guided growing for weightless candidates.

    Each iteration picks the absent pair with the most negative fit
    derivative, then optimizes its weight over (0, stability bound) by
    golden-section search. Stops when no pair has a negative derivative.
    """
    if state.delay <= 0.0:
        raise DomainError(
            "weight optimization needs a positive delay; at zero delay more "
            "weight always helps and no interior optimum exists"
        )
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    seen: set[tuple[int, int]] = set()
    canonical = []
    for u, v in pairs:
        key = _check_endpoints(state.graph.node_count, u, v)
        if key in seen:
            raise ValueError(f"duplicate candidate pair {key}")
        if state.graph.has_edge(*key):
            raise ValueError(f"candidate pair {key} is already an edge")
        seen.add(key)
        canonical.append(key)
    canonical.sort()
    us = np.array([u for u, _ in canonical], dtype=int)
    vs = np.array([v for _, v in canonical], dtype=int)
    active = np.ones(len(canonical), dtype=bool)

    def next_move(iteration: int) -> Move | str:
        idx = np.flatnonzero(active)
        slopes = sensitivities(state.caches, us[idx], vs[idx])
        if not (slopes < 0.0).any():
            return "no negative sensitivity"
        # The first argmin is the lowest-(u, v) pair among equal slopes.
        pos = int(np.argmin(slopes))
        best = int(idx[pos])
        best_pair, best_slope = canonical[best], float(slopes[pos])
        bound = edge_stability_bound(state, best_pair)
        hi = (1.0 - EPS_STABILITY) * bound
        weight = golden_section_min(
            lambda w: edge_contribution(state, best_pair, w),
            1e-12 * hi,
            hi,
            1e-10 * bound,
        )
        contribution = edge_contribution(state, best_pair, weight)
        if contribution >= 0.0:
            return "no improving weight"
        active[best] = False
        return "add", best_pair, weight, contribution, -contribution, best_slope

    return _greedy(state, budget, next_move)


@dataclass(frozen=True)
class ReweightResult:
    """Optimal uniform rescaling of all edge weights at a fixed delay."""

    kappa_star: float
    rho_before: float
    rho_after: float
    bracket: tuple[float, float]


def reweight_scale(graph: WeightedGraph, out: OutputSpec, delay: float) -> ReweightResult:
    """Best global weight scale: minimize the exact measure of kappa * L.

    Uses one eigendecomposition; each probe is an O(n) eigen-sum. Each mode
    is happiest at kappa = z / (delay * lambda) (z the cosine fixed point),
    so the minimizer lies between the extreme modes' optima, clamped below
    the scaled stability boundary. The input graph need not be stable at
    scale 1; rho_before is +inf then.
    """
    if delay <= 0.0:
        raise DomainError(
            "rescaling needs a positive delay; at zero delay smaller scales "
            "always lose and larger always win"
        )
    if not graph.is_connected():
        raise DisconnectedGraph("rescaling requires a connected graph")
    spectrum = eigendecompose(graph.laplacian())
    lam = spectrum.eigenvalues
    zero = np.abs(lam) < spectrum.zero_tolerance
    modes = lam[~zero]
    weights = out.modal_weights(spectrum.vectors)[~zero]
    lam2, lam_max = float(modes[0]), float(modes[-1])
    z = cosine_fixed_point()
    if z * delay >= math.pi / 2.0:
        raise DomainError("delay too large: the scaling bracket is entirely unstable")
    lo = z / (delay * lam_max)
    hi = min(z / (delay * lam2), (1.0 - 1e-12) * math.pi / (2.0 * delay * lam_max))

    def scaled_measure(kappa: float) -> float:
        x = kappa * modes * delay
        half_gap = 0.5 * (math.pi / 2.0 - x)
        profile = np.cos(half_gap) / np.sin(half_gap)
        return float(np.sum(weights * profile / (2.0 * kappa * modes)))

    width = 1e-8 * lo
    if hi - lo <= width:
        kappa_star = 0.5 * (lo + hi)
    else:
        kappa_star = golden_section_min(scaled_measure, lo, hi, width)
    rho_before = (
        rho_exact(spectrum, out, delay)
        if check_stability(spectrum, delay).stable
        else math.inf
    )
    return ReweightResult(
        kappa_star=kappa_star,
        rho_before=rho_before,
        rho_after=scaled_measure(kappa_star),
        bracket=(lo, hi),
    )
