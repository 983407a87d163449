"""Greedy topology design driven by rank-one performance differences.

Adding weight w on edge e changes the performance fit by a closed-form
amount computable from five cached edge quadratic forms. The caches hold
the pseudo-inverses of the Laplacian and of the delay-shifted operator,
each from the Cholesky factor of the operator grounded at one node, with
no eigendecomposition where the factors certify the stability verdict
(EdgeFormCaches.build). Each operator keeps the moves as pending
Sherman-Morrison terms of n-vectors. With k terms pending, a greedy
iteration costs O((n + candidates) k) for the terms, plus, until the
sandwiches P @ gram @ P are formed, O(n) per candidate for its forms and
one O(n^2) product per operator for the move's columns. The caches form
both sandwiches, in O(n^3), at the start of the run whose reads, added to
those its predecessors claimed, would cost more than that, and nowhere
else: every PENDING_TERM_CAP moves a fold adds the terms to each
pseudo-inverse, and to each sandwich once formed, in O(n^2 k). Neither a
fold nor a read forms them, so reading the caches changes no later move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NoFeasibleCandidate,
)
from .graphs import (
    EdgeFormCaches,
    WeightedGraph,
    _checked_move,
    _edge_arrays,
    _edge_forms,
    _pseudo_inverses,
    _refused,
    is_bridge,
    sherman_morrison_update,
)
from .performance import (
    FIT_SLOPE,
    OutputSpec,
    _checked_laplacian,
    _fit_slope,
    _modal_sum,
    _nonzero_modes,
    _sign_change,
    _spectrum,
    check_stability,
    cosine_fixed_point,
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


def _check_budget(budget: int) -> None:
    """Raises ValueError unless budget is a nonnegative integer; numpy integers pass."""
    if not isinstance(budget, Integral) or budget < 0:
        raise ValueError("budget must be a nonnegative integer")


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
        _check_budget(self.budget)
        seen: set[tuple[int, int]] = set()
        canonical = []
        for u, v, w in self.entries:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError(f"candidate self-loop at node {u}")
            key = (u, v) if u < v else (v, u)
            if not 0.0 < w < math.inf:
                raise ValueError(f"candidate {key} needs a positive finite weight, got {w}")
            if key in seen:
                raise ValueError(f"duplicate candidate {key}")
            seen.add(key)
            canonical.append((key[0], key[1], w))
        canonical.sort()
        object.__setattr__(self, "entries", tuple(canonical))

    def validate_against(self, graph: WeightedGraph) -> None:
        for u, v, _ in self.entries:
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
    rho_fit: float
    rho_exact: float | None
    stability_margin: float | None
    sensitivity: float | None = None


@dataclass
class DesignTrace:
    entries: list[TraceEntry] = field(default_factory=list)
    termination: str = "budget exhausted"


class DesignState:
    """Mutable design loop state: graph and caches, from which the fit is read.

    from_graph builds the caches from the grounded Cholesky factors of the
    Laplacian and of the delay-shifted operator, and takes the Laplacian's
    spectrum (its eigenvalues and eigh's eigenvectors) only where the
    factors cannot certify its verdict. With audit enabled, every mutation
    re-eigendecomposes the Laplacian to record the exact measure and
    stability margin; without it the loop relies on the edge stability
    bound. A step then costs O((n + m) k) for
    m candidates and k pending update terms, plus O(n m + n^2) for the
    sandwiches' forms and columns until the caches form them (a custom
    output's, formed at build, and its dense gram add O(n^2)), and
    O(n^2 k) once every PENDING_TERM_CAP steps, when the caches fold their
    terms.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        out: OutputSpec,
        caches: EdgeFormCaches,
        audit: bool,
    ) -> None:
        self.graph = graph
        self.out = out
        self.caches = caches
        self.audit = audit

    @property
    def delay(self) -> float:
        """The delay the caches were built for."""
        return self.caches.delay

    @property
    def rho_fit(self) -> float:
        """The fit, read from the caches on every access: a move that removes
        most of it cancels no digits, as a sum over moves would."""
        return rho_approx_from_caches(self.caches)

    @classmethod
    def from_graph(
        cls,
        graph: WeightedGraph,
        out: OutputSpec,
        delay: float,
        audit: bool | None = None,
    ) -> "DesignState":
        lap = _checked_laplacian(graph, out)
        # The caches own this Laplacian and edit it: no copy, as build makes.
        caches = EdgeFormCaches(lap, delay, out.gram(), _pseudo_inverses(lap, delay))
        if audit is None:
            audit = graph.node_count <= AUDIT_NODE_LIMIT
        return cls(graph, out, caches, audit)

    def audit_values(self) -> tuple[float | None, float | None]:
        """(exact measure, stability margin) after a mutation, audit mode only."""
        if not self.audit:
            return None, None
        spectrum = _spectrum(self.caches.laplacian, self.out)
        exact = rho_exact(spectrum, self.out, self.delay)  # raises when unstable
        return exact, check_stability(spectrum, self.delay).margin


def _fit_change(forms: list, tau: float, weights: np.ndarray | float) -> np.ndarray | float:
    """Exact fit change from adding weights (negative: removing) on the pairs of
    these _edge_forms; callers keep both denominators positive (_refused). Every
    delay term carries tau, so at zero delay only the resistance term is left."""
    q_lap_gram, q_lap, q_shift_gram, q_shift, gram_form = forms
    # The shift term in terms of w * tau, which stays finite at subnormal
    # delays where 1 / (w * tau) would overflow.
    scaled = weights * tau
    return (
        -q_lap_gram / (2.0 / weights + 2.0 * q_lap)
        + 0.5 * FIT_SLOPE * tau * tau * weights * gram_form
        + (2.0 * tau / math.pi) * q_shift_gram * scaled / (1.0 - scaled * q_shift)
    )


def edge_contribution(state: DesignState, edge: tuple[int, int], weight: float) -> float:
    """Fit change from adding weight on the edge; exact rank-one difference.

    A negative weight evaluates removing that much from the edge's present
    weight, down to zero at most and never from an absent pair; zero weight
    contributes zero. Raises as the update's checks (graphs._checked_move)
    would on this move; only the update's overflow test is its own.
    """
    forms = _checked_move(state.caches, edge, weight)[1]
    return 0.0 if weight == 0.0 else float(_fit_change(forms, state.delay, weight))


def edge_stability_bound(state: DesignState, edge: tuple[int, int]) -> float:
    """Largest addable weight on the edge keeping the delayed network stable.

    The added weight w preserves stability iff w < bound, with equality
    already unstable. Unbounded (+inf) at zero delay.
    """
    q_shift = _checked_move(state.caches, edge, 0.0)[1][3]
    return math.inf if state.delay == 0.0 else 1.0 / (state.delay * q_shift)


def _fit_changes(
    state: DesignState,
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray,
    eligible: np.ndarray,
) -> np.ndarray:
    """Fit change of each move (us[i], vs[i], ws[i]); +inf where not scored.

    An eligible move is scored when its weight stays below (1 - EPS_STABILITY)
    times the edge stability bound, as every removal does on a stable network,
    and the update's rule, _refused, accepts it, as it does every addition.
    """
    idx = np.flatnonzero(eligible)
    forms = _edge_forms(state.caches, us[idx], vs[idx])
    _, q_lap, _, q_shift, _ = forms
    weights = ws[idx]
    scored = ~_refused(state.delay, weights, q_lap, q_shift)
    scored &= weights * (state.delay * q_shift) < 1.0 - EPS_STABILITY
    changes = np.full(len(ws), np.inf)
    changes[idx[scored]] = _fit_change(
        [form[scored] for form in forms], state.delay, weights[scored]
    )
    return changes


# A move is (action, edge, signed weight, contribution, sensitivity); a string
# instead ends the run with that termination reason.
Move = tuple[str, tuple[int, int] | None, float, float, float | None]


def _greedy(
    state: DesignState, budget: int, width: int, next_move: Callable[[int], Move | str]
) -> DesignTrace:
    """The loop every driver shares: ask for a move, apply it, record it.

    An "add" or "remove" move updates the caches by one Sherman-Morrison
    pair update and edits the graph; a "skip" move changes nothing but still
    takes an iteration and a trace entry. Each entry's fit is read from the
    caches after its move. A run of up to budget moves that each score up to
    width pairs first claims those reads on the caches (_plan), which form
    their sandwiches now once the claims of every run on them pass about one
    forming's cost; within the run nothing forms them, folds included.
    """
    state.caches._plan(budget, width)
    trace = DesignTrace()
    for iteration in range(1, budget + 1):
        move = next_move(iteration)
        if isinstance(move, str):
            trace.termination = move
            return trace
        action, edge, weight, contribution, slope = move
        if action != "skip":
            sherman_morrison_update(state.caches, edge, weight)
            if action == "add":
                state.graph = state.graph.with_edge(*edge, weight)
            else:
                state.graph = state.graph.without_edge(*edge)
        exact_after, margin_after = state.audit_values()
        trace.entries.append(
            TraceEntry(
                iteration=iteration,
                action=action,
                edge=edge,
                weight=weight,
                contribution=contribution,
                rho_fit=state.rho_fit,
                rho_exact=exact_after,
                stability_margin=margin_after,
                sensitivity=slope,
            )
        )
    return trace


def grow_simple(state: DesignState, candidates: CandidateSet) -> DesignTrace:
    """Greedy growing: repeatedly add the feasible candidate whose fit change
    is most negative; stop early when none lowers the fit.

    Mutates state; returns the per-iteration trace. Raises
    NoFeasibleCandidate only when the first iteration has no feasible
    candidate; a feasible set that empties mid-run just terminates.
    """
    candidates.validate_against(state.graph)
    us, vs, ws = _edge_arrays(candidates.entries)
    active = np.ones(len(ws), dtype=bool)

    def next_move(iteration: int) -> Move | str:
        changes = _fit_changes(state, us, vs, ws, active)
        if np.isposinf(changes).all():
            if iteration == 1:
                raise NoFeasibleCandidate(
                    "every candidate weight violates the stability bound"
                )
            return "no feasible candidate"
        # Candidates are pre-sorted lexicographically, so the first argmin
        # is the lowest-(u, v) tie-break winner.
        best = int(np.argmin(changes))
        change = float(changes[best])
        if change >= 0.0:
            return "no improving candidate"
        active[best] = False
        return "add", (int(us[best]), int(vs[best])), float(ws[best]), change, None

    return _greedy(state, candidates.budget, len(us), next_move)


def grow_random(
    state: DesignState, candidates: CandidateSet, seed: int | None = None
) -> DesignTrace:
    """Randomized greedy growing: pick uniformly from the budget moves with
    the most negative fit changes each iteration.

    The pool is padded with 2*budget - 1 zero-change placeholder
    members; selecting one consumes an iteration without changing the
    graph, which makes the number of real additions adapt to how many
    candidates actually help. Runs exactly budget iterations, no early
    break. With budget 1 the top-1 set is the argmin, so the result
    matches grow_simple.
    """
    if seed is not None and not (isinstance(seed, Integral) and seed >= 0):
        raise ConfigError("seed must be a nonnegative integer")
    candidates.validate_against(state.graph)
    rng = np.random.default_rng(seed)
    k = candidates.budget
    placeholders_left = 2 * k - 1
    us, vs, ws = _edge_arrays(candidates.entries)
    active = np.ones(len(ws), dtype=bool)

    def next_move(iteration: int) -> Move:
        nonlocal placeholders_left
        changes = _fit_changes(state, us, vs, ws, active)
        # Stable ascending sort keeps the lexicographic candidate order on
        # ties; placeholders (change 0) rank after equal-value reals,
        # and unscored moves (+inf) never enter the pool.
        ranked = np.argsort(changes, kind="stable")[:k]
        reals = [int(i) for i in ranked if changes[i] <= 0.0]
        top = (reals + [None] * placeholders_left)[:k]
        pick = top[int(rng.integers(len(top)))]
        if pick is None:
            placeholders_left -= 1
            return "skip", None, 0.0, 0.0, None
        active[pick] = False
        return "add", (int(us[pick]), int(vs[pick])), float(ws[pick]), float(changes[pick]), None

    return _greedy(state, k, len(us), next_move)


def sparsify(state: DesignState, budget: int) -> DesignTrace:
    """Greedy edge removal: drop the edge whose removal lowers the fit most,
    never touching bridges, until no removal lowers it or budget runs out.

    Removal only shrinks eigenvalues, so stability is preserved for free;
    a union-find check on each pick keeps every bridge, so connectivity too.
    """
    _check_budget(budget)

    def next_move(iteration: int) -> Move | str:
        us, vs, ws = _edge_arrays(state.graph.edges)
        changes = _fit_changes(state, us, vs, -ws, np.ones(len(ws), dtype=bool))
        if np.isposinf(changes).all():
            return "all edges are bridges"
        while True:
            best = int(np.argmin(changes))
            change = float(changes[best])
            if change >= 0.0:
                return "no improving removal"
            edge = (int(us[best]), int(vs[best]))
            if not is_bridge(state.graph, edge):
                return "remove", edge, -float(ws[best]), change, None
            changes[best] = np.inf

    return _greedy(state, budget, state.graph.edge_count, next_move)


def grow_by_sensitivity(
    state: DesignState, pairs: Sequence[tuple[int, int]], budget: int
) -> DesignTrace:
    """Gradient-guided growing for weightless candidates.

    Each iteration picks the absent pair with the most negative fit
    derivative. The fit change is convex in the pair's weight, so its
    minimizer below (1 - EPS_STABILITY) times the stability bound is where
    its slope turns nonnegative, or that cap. Stops when no pair has a
    negative derivative.
    """
    if state.delay <= 0.0:
        raise DomainError(
            "weight optimization needs a positive delay; at zero delay more "
            "weight always helps and no interior optimum exists"
        )
    # Weight 1.0 only fills the entry: the slope's root below picks each weight.
    candidates = CandidateSet(tuple((u, v, 1.0) for u, v in pairs), budget)
    candidates.validate_against(state.graph)
    us, vs, _ = _edge_arrays(candidates.entries)
    active = np.ones(len(us), dtype=bool)

    def next_move(iteration: int) -> Move | str:
        idx = np.flatnonzero(active)
        slopes = sensitivities(state.caches, us[idx], vs[idx])
        if not (slopes < 0.0).any():
            return "no negative sensitivity"
        # The first argmin is the lowest-(u, v) pair among equal slopes.
        pos = int(np.argmin(slopes))
        best = int(idx[pos])
        best_pair, best_slope = (int(us[best]), int(vs[best])), float(slopes[pos])
        forms = _edge_forms(state.caches, *best_pair)
        # edge_stability_bound, from the forms just read.
        bound = 1.0 / (state.delay * forms[3])
        if bound == math.inf:
            raise DomainError(
                f"delay {state.delay} too small: the stability bound on pair "
                f"{best_pair} overflows a float"
            )
        # The slope at weight 0 is the pair's sensitivity, negative.
        weight = _sign_change(
            lambda w: _fit_slope(forms, state.delay, w), 0.0, (1.0 - EPS_STABILITY) * bound
        )
        contribution = float(_fit_change(forms, state.delay, weight))
        if contribution >= 0.0:
            return "no improving weight"
        # A spectrum reads a graph as disconnected past lambda_max / lambda_2 = 1 / (n eps);
        # lambda_max >= max degree and lambda_2 <= n min degree / (n - 1) put it there.
        degrees = state.caches.laplacian.diagonal().copy()
        degrees[list(best_pair)] += weight
        if (len(degrees) - 1) * np.finfo(float).eps * degrees.max() >= degrees.min():
            raise DomainError(
                f"delay {state.delay} too small: weight {weight:.3e} on pair "
                f"{best_pair} would leave the graph numerically disconnected"
            )
        active[best] = False
        return "add", best_pair, weight, contribution, best_slope

    return _greedy(state, budget, len(us), next_move)


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
    the scaled stability boundary. The measure is convex in kappa there, so
    the minimizer is where its slope turns nonnegative, or the clamp. The
    input graph need not be stable at scale 1; rho_before is +inf then.
    """
    if not 0.0 < delay < math.inf:
        raise DomainError(
            "rescaling needs a positive delay; at zero delay smaller scales "
            "always lose and larger always win"
        )
    spectrum = _spectrum(_checked_laplacian(graph, out), out)
    modes, weights = _nonzero_modes(spectrum, out)
    lam2, lam_max = float(modes[0]), float(modes[-1])
    z = cosine_fixed_point()
    lo = z / (delay * lam_max)
    hi = min(z / (delay * lam2), (1.0 - 1e-12) * math.pi / (2.0 * delay * lam_max))
    if hi * lam_max == math.inf:
        raise DomainError(f"delay {delay} too small: the optimal scale overflows a float")
    # Subnormal scales lose the digits that keep the clamp's top mode stable.
    if lo < np.finfo(float).tiny:
        raise DomainError(f"delay {delay} too large: the optimal scale underflows a float")

    def scaled_slope(kappa: float) -> float:
        # The measure is delay * sum w g(x), x = kappa delay lambda, with
        # g(x) = cos x / (2 x (1 - sin x)) and g'(x) = (x - cos x) /
        # (4 x^2 sin^2((pi/2 - x)/2)): this is its slope in kappa up to the
        # positive factor delay / (4 kappa).
        x = kappa * modes * delay
        half_gap = 0.5 * (math.pi / 2.0 - x)
        return float(np.sum(weights * (x - np.cos(x)) / (x * np.sin(half_gap) ** 2)))

    kappa_star = _sign_change(scaled_slope, lo, hi)
    rho_before = (
        _modal_sum(modes, weights, delay) if check_stability(spectrum, delay).stable else math.inf
    )
    return ReweightResult(
        kappa_star=kappa_star,
        rho_before=rho_before,
        rho_after=_modal_sum(kappa_star * modes, weights, delay),
        bracket=(lo, hi),
    )
