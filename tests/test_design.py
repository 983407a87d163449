"""Design loop: contributions, bounds, greedy growth, sparsify, reweight."""

import copy
import math
import warnings

import numpy as np
import pytest

from tdconsensus import (
    CandidateSet,
    ConfigError,
    DesignState,
    DisconnectedGraph,
    DomainError,
    EPS_STABILITY,
    IndexOutOfRange,
    NoFeasibleCandidate,
    OutputSpec,
    SingularUpdate,
    UnstableNetwork,
    WeightedGraph,
    contribution_upper_bound,
    cosine_fixed_point,
    edge_contribution,
    edge_quadratic_form,
    edge_stability_bound,
    eigendecompose,
    golden_section_min,
    grow_by_sensitivity,
    grow_random,
    grow_simple,
    make_output_spec,
    reweight_scale,
    rho_approx,
    rho_approx_from_caches,
    rho_exact,
    sherman_morrison_update,
    sparsify,
)
from conftest import (
    bridge_oracle,
    exact_measure,
    fit_measure,
    fresh_caches,
    random_connected_graph,
    spectrum_of,
    stable_delay,
    tracked_matrices,
)


def _absent_pairs(g: WeightedGraph) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u in range(g.node_count)
        for v in range(u + 1, g.node_count)
        if not g.has_edge(u, v)
    ]


def _fit(graph: WeightedGraph, out: OutputSpec, tau: float) -> float:
    """From-scratch fit value; exact measure at zero delay."""
    if tau == 0.0:
        return exact_measure(graph, out, 0.0)
    return fit_measure(graph, out, tau)


def test_from_graph_fit_on_weights_nine_decades_apart():
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1e-9)))
    out = OutputSpec.centering(3)
    state = DesignState.from_graph(g, out, 0.1)
    assert state.rho_fit == pytest.approx(fit_measure(g, out, 0.1), rel=1e-9)
    assert state.rho_fit > 3e8


def test_from_graph_fit_at_a_relative_margin_of_1e_10():
    # The shift operator's smallest nonzero eigenvalue is ~1e-10 of its
    # largest; it must be inverted, not classified as a kernel eigenvalue.
    g = WeightedGraph.path(4)
    out = OutputSpec.centering(4)
    tau = (1.0 - 1e-10) * math.pi / (2.0 * spectrum_of(g).lambda_max)
    state = DesignState.from_graph(g, out, tau)
    assert state.rho_fit == pytest.approx(fit_measure(g, out, tau), rel=1e-4)


# --- candidate sets ---


def test_candidate_set_canonicalizes_and_sorts():
    c = CandidateSet(entries=((3, 1, 2.0), (2, 0, 1.0)), budget=5)
    assert c.entries == ((0, 2, 1.0), (1, 3, 2.0))


def test_candidate_set_validation():
    with pytest.raises(ValueError):
        CandidateSet(entries=(), budget=-1)
    with pytest.raises(ValueError):
        CandidateSet(entries=((1, 1, 1.0),), budget=1)
    with pytest.raises(ValueError):
        CandidateSet(entries=((0, 1, 1.0), (1, 0, 2.0)), budget=1)
    with pytest.raises(ValueError):
        CandidateSet(entries=((0, 1, 0.0),), budget=1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            CandidateSet(entries=((0, 1, bad),), budget=1)
    g = WeightedGraph.path(3)
    with pytest.raises(ValueError):
        CandidateSet(entries=((0, 1, 1.0),), budget=1).validate_against(g)
    with pytest.raises(Exception):
        CandidateSet(entries=((0, 7, 1.0),), budget=1).validate_against(g)


# --- design state ---


def test_from_graph_rejects_bad_inputs():
    g = WeightedGraph.path(4)
    out = OutputSpec.centering(4)
    with pytest.raises(ValueError):
        DesignState.from_graph(g, OutputSpec.centering(5), 0.1)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            DesignState.from_graph(g, out, bad)
    with pytest.raises(DisconnectedGraph):
        DesignState.from_graph(WeightedGraph(4, ((0, 1, 1.0),)), out, 0.1)
    with pytest.raises(UnstableNetwork):
        DesignState.from_graph(WeightedGraph.complete(4), out, math.pi / 8.0)


def test_from_graph_tracks_the_fit():
    g = WeightedGraph.cycle(5)
    out = OutputSpec.centering(5)
    tau = stable_delay(g, 0.5)
    state = DesignState.from_graph(g, out, tau)
    assert state.rho_fit == pytest.approx(fit_measure(g, out, tau), rel=1e-12)
    assert state.audit  # small graph: audit defaults on
    off = DesignState.from_graph(g, out, tau, audit=False)
    assert off.audit_values() == (None, None)


# --- contribution formula ---


def test_edge_contribution_zero_weight_is_zero():
    g = WeightedGraph.path(4)
    state = DesignState.from_graph(g, OutputSpec.centering(4), 0.1)
    assert edge_contribution(state, (0, 2), 0.0) == 0.0


def test_edge_contribution_matches_recompute_all_kinds():
    rng = np.random.default_rng(21)
    for kind in ("centering", "complete-incidence", "orthonormal"):
        for _ in range(25):
            g = random_connected_graph(rng, max_nodes=9)
            out = make_output_spec(kind, g.node_count)
            tau = stable_delay(g, float(rng.uniform(0.0, 0.8)))
            state = DesignState.from_graph(g, out, tau)
            absent = _absent_pairs(g)
            if not absent:
                continue
            u, v = absent[int(rng.integers(len(absent)))]
            bound = edge_stability_bound(state, (u, v))
            w = float(rng.uniform(0.1, 0.8)) * min(bound, 3.0)
            predicted = edge_contribution(state, (u, v), w)
            actual = _fit(g.with_edge(u, v, w), out, tau) - _fit(g, out, tau)
            assert predicted == pytest.approx(actual, rel=1e-7, abs=1e-10)


def test_edge_contribution_matches_recompute_custom_output():
    rng = np.random.default_rng(22)
    g = random_connected_graph(rng, min_nodes=6, max_nodes=6)
    raw = rng.normal(size=(4, 6))
    out = OutputSpec.custom(raw - raw.mean(axis=1, keepdims=True))
    tau = stable_delay(g, 0.5)
    state = DesignState.from_graph(g, out, tau)
    u, v = _absent_pairs(g)[0]
    w = 0.4 * min(edge_stability_bound(state, (u, v)), 3.0)
    predicted = edge_contribution(state, (u, v), w)
    actual = _fit(g.with_edge(u, v, w), out, tau) - _fit(g, out, tau)
    assert predicted == pytest.approx(actual, rel=1e-8)


def test_design_loops_never_rebuild_a_custom_output_gram(monkeypatch):
    rng = np.random.default_rng(24)
    g = random_connected_graph(rng, min_nodes=7, max_nodes=7, extra_edge_prob=0.5)
    raw = rng.normal(size=(5, 7))
    out = OutputSpec.custom(raw - raw.mean(axis=1, keepdims=True))
    pairs = _absent_pairs(g)
    candidates = CandidateSet(tuple((u, v, 0.3) for u, v in pairs), budget=3)
    # (delay as a fraction of the stability threshold, design run); removals
    # only help near the threshold.
    runs = {
        "grow_simple": (0.5, lambda state: grow_simple(state, candidates)),
        "sparsify": (0.95, lambda state: sparsify(state, 3)),
        "grow_by_sensitivity": (0.5, lambda state: grow_by_sensitivity(state, pairs, 3)),
    }
    calls = []
    gram = OutputSpec.gram
    for name, (fraction, run) in runs.items():
        state = DesignState.from_graph(g, out, stable_delay(g, fraction), audit=False)
        monkeypatch.setattr(OutputSpec, "gram", lambda self: calls.append(name) or gram(self))
        assert run(state).entries
        monkeypatch.setattr(OutputSpec, "gram", gram)
    # The caches hold the gram from from_graph; the design loops read it there.
    assert calls == []


def test_edge_contribution_removal_direction():
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = random_connected_graph(rng, min_nodes=5, max_nodes=9, extra_edge_prob=0.5)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, float(rng.uniform(0.0, 0.7)))
        state = DesignState.from_graph(g, out, tau)
        u, v, w = g.edges[int(rng.integers(g.edge_count))]
        # partial removal never hits the bridge denominator
        dw = -0.5 * w
        predicted = edge_contribution(state, (u, v), dw)
        half = g.without_edge(u, v).with_edge(u, v, 0.5 * w)
        actual = _fit(half, out, tau) - _fit(g, out, tau)
        assert predicted == pytest.approx(actual, rel=1e-7, abs=1e-10)


def test_edge_contribution_full_removal_of_cycle_edge():
    g = WeightedGraph.cycle(6)
    out = OutputSpec.centering(6)
    tau = stable_delay(g, 0.5)
    state = DesignState.from_graph(g, out, tau)
    predicted = edge_contribution(state, (0, 1), -1.0)
    actual = _fit(g.without_edge(0, 1), out, tau) - _fit(g, out, tau)
    assert predicted == pytest.approx(actual, rel=1e-9)


# --- stability bound ---


def test_edge_stability_bound_is_sharp():
    rng = np.random.default_rng(24)
    checked = 0
    while checked < 50:
        g = random_connected_graph(rng, max_nodes=8)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, float(rng.uniform(0.2, 0.9)))
        state = DesignState.from_graph(g, out, tau)
        absent = _absent_pairs(g)
        if not absent:
            continue
        u, v = absent[int(rng.integers(len(absent)))]
        bound = edge_stability_bound(state, (u, v))
        assert bound > 0.0
        for factor, stable in ((0.99, True), (1.01, False)):
            lam_max = eigendecompose(
                g.with_edge(u, v, factor * bound).laplacian()
            ).lambda_max
            assert (tau * lam_max < math.pi / 2.0) == stable
        checked += 1


def test_edge_stability_bound_infinite_at_zero_delay():
    state = DesignState.from_graph(WeightedGraph.path(4), OutputSpec.centering(4), 0.0)
    assert edge_stability_bound(state, (0, 2)) == math.inf


@pytest.mark.parametrize("tau", [1e-311, 1e-300, 0.0])
def test_design_at_a_subnormal_delay_matches_zero_delay(tau):
    # 1 / (w * tau) overflows at tau = 1e-311; the stability test and the
    # shift term are written in w * tau so that the greedy drivers and
    # edge_contribution see the zero-delay limit without a RuntimeWarning.
    g = WeightedGraph.path(4)
    out = OutputSpec.centering(4)
    entries = ((0, 2, 1.0), (0, 3, 1.0), (1, 3, 1.0))

    def picks(trace):
        return [e.edge for e in trace.entries]

    state = DesignState.from_graph(g, out, tau)
    assert picks(grow_simple(state, CandidateSet(entries, 2))) == [(0, 3), (0, 2)]
    state = DesignState.from_graph(g, out, tau)
    assert picks(grow_random(state, CandidateSet(entries, 2), seed=0)) == [(0, 2), (1, 3)]
    state = DesignState.from_graph(g, out, tau)
    assert edge_contribution(state, (0, 3), 1.0) == pytest.approx(-0.625, rel=1e-12)
    assert edge_contribution(state, (0, 1), -0.5) == pytest.approx(0.375, rel=1e-12)


def test_zero_delay_design_formulas_equal_their_delay_free_forms():
    # Every delay term of the fit carries tau, so at zero delay it adds an
    # exact zero: each formula equals its delay-free form bit for bit.
    rng = np.random.default_rng(61)
    for kind in ("centering", "complete-incidence", "orthonormal", "custom"):
        g = random_connected_graph(rng, max_nodes=9)
        n = g.node_count
        if kind == "custom":
            raw = rng.standard_normal((3, n))
            out = OutputSpec.custom(raw - raw.mean(axis=1, keepdims=True))
        else:
            out = make_output_spec(kind, n)
        state = DesignState.from_graph(g, out, 0.0)
        caches = state.caches
        gram, pinv = caches.output_gram, caches.lap_pinv
        if kind == "custom":
            trace = float(np.vdot(gram, pinv))
        else:
            trace = gram * (float(np.trace(pinv)) - float(pinv.sum()) / n)
        assert rho_approx_from_caches(caches) == state.rho_fit == 0.5 * trace
        for u in range(n):
            for v in range(u + 1, n):
                q_gram = edge_quadratic_form(caches.lap_pinv_gram, u, v)
                q_lap = edge_quadratic_form(pinv, u, v)
                assert contribution_upper_bound(state, (u, v)) == q_gram / (2.0 * q_lap)
                weights = [0.3, 2.0] + ([-0.5 * g.weight(u, v)] if g.has_edge(u, v) else [])
                for w in weights:
                    assert edge_contribution(state, (u, v), w) == -q_gram / (2.0 / w + 2.0 * q_lap)


def test_weight_optima_past_the_float_range_raise_domain_error():
    # At a subnormal delay the optimal weight and scale, about 1 / tau,
    # are not finite floats.
    g = WeightedGraph.path(4)
    out = OutputSpec.centering(4)
    state = DesignState.from_graph(g, out, 1e-311)
    with pytest.raises(DomainError, match="overflows"):
        grow_by_sensitivity(state, [(0, 2), (0, 3)], budget=1)
    with pytest.raises(DomainError, match="overflows"):
        reweight_scale(g, out, 1e-311)


@pytest.mark.parametrize("audit", [True, False])
def test_grow_by_sensitivity_refuses_weights_past_the_eigh_floor(audit):
    # Below a delay of about n eps the best weight, near 1 / tau, makes
    # lambda_max / lambda_2 pass 1 / (n eps), where eigh reads the grown graph
    # as disconnected: that move is refused before anything changes.
    g = WeightedGraph.path(4)
    out = OutputSpec.centering(4)
    pairs = [(0, 2), (0, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tau in (1e-6, 1e-10, 1e-15):
            state = DesignState.from_graph(g, out, tau, audit=audit)
            trace = grow_by_sensitivity(state, pairs, budget=2)
            assert trace.termination == "budget exhausted"
            assert [e.edge for e in trace.entries] == [(0, 3), (0, 2)]
            assert exact_measure(state.graph, out, tau) > 0.0
        for tau in (1e-16, 1e-200, 1e-300, 1e-308, 5e-309):
            state = DesignState.from_graph(g, out, tau, audit=audit)
            before = [m.copy() for m in tracked_matrices(state.caches)]
            rho_fit = state.rho_fit
            with pytest.raises(DomainError, match="numerically disconnected"):
                grow_by_sensitivity(state, pairs, budget=2)
            assert state.graph == g
            assert state.rho_fit == rho_fit
            for old, new in zip(before, tracked_matrices(state.caches)):
                assert np.array_equal(old, new)


def test_edge_contribution_raises_exactly_when_the_update_does():
    # Both test the rank-one denominator 1 + c q on the same edge form, so
    # the closed form refuses a move exactly when the cache update would.
    g = WeightedGraph.path(5)
    state = DesignState.from_graph(g, OutputSpec.centering(5), stable_delay(g, 0.5))
    bound = edge_stability_bound(state, (0, 2))
    cases = [
        ((0, 2), f * bound)
        for f in (1 - 1e-6, 1 - 1e-10, 1 - 1e-12, 1 - 3e-13, 1 - 1e-13, 1 - 1e-14, 1.0,
                  1 + 1e-14, 1 + 1e-12)
    ] + [((0, 1), -f * g.weight(0, 1)) for f in (1.0, 1 - 1e-13, 1 - 1e-15)]

    def raises(fn):
        try:
            fn()
        except SingularUpdate:
            return True
        return False

    for edge, weight in cases:
        closed_form = raises(lambda: edge_contribution(state, edge, weight))
        update = raises(
            lambda: sherman_morrison_update(copy.deepcopy(state.caches), edge, weight)
        )
        assert closed_form == update, (edge, weight)
    # A non-finite weight is refused by both before anything is read or written.
    before = [m.copy() for m in tracked_matrices(state.caches)]
    for weight in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            edge_contribution(state, (0, 2), weight)
        with pytest.raises(ValueError, match="finite"):
            sherman_morrison_update(state.caches, (0, 2), weight)
        assert all(np.array_equal(a, b) for a, b in zip(before, tracked_matrices(state.caches)))


# --- contribution upper bound ---


def test_contribution_upper_bound_dominates_every_feasible_weight():
    rng = np.random.default_rng(25)
    for _ in range(25):
        g = random_connected_graph(rng, max_nodes=8)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, float(rng.uniform(0.1, 0.8)))
        state = DesignState.from_graph(g, out, tau)
        absent = _absent_pairs(g)
        if not absent:
            continue
        u, v = absent[int(rng.integers(len(absent)))]
        ceiling = contribution_upper_bound(state, (u, v))
        bound = edge_stability_bound(state, (u, v))
        for frac in np.linspace(0.01, 1.0 - 1e-6, 80):
            improvement = -edge_contribution(state, (u, v), float(frac) * bound)
            assert improvement <= ceiling * (1.0 + 1e-9) + 1e-12


# --- grow_simple ---


def _independent_greedy(graph, out, tau, entries, budget):
    """From-scratch greedy reference: full eigenwork per probe."""
    remaining = sorted((min(u, v), max(u, v), w) for u, v, w in entries)
    picked = []
    for _ in range(budget):
        base = _fit(graph, out, tau)
        best = None
        for u, v, w in remaining:
            if tau > 0.0:
                shift_pinv = np.linalg.pinv(
                    (math.pi / 2.0) * (np.eye(graph.node_count) - 1.0 / graph.node_count)
                    - tau * graph.laplacian()
                )
                b = np.zeros(graph.node_count)
                b[u], b[v] = 1.0, -1.0
                ws = 1.0 / (tau * float(b @ shift_pinv @ b))
                if not w < (1.0 - EPS_STABILITY) * ws:
                    continue
            gain = base - _fit(graph.with_edge(u, v, w), out, tau)
            if best is None or gain > best[0]:
                best = (gain, u, v, w)
    # strict > keeps the first (lexicographically lowest) maximizer
        if best is None or best[0] <= 0.0:
            return graph, picked
        _, u, v, w = best
        graph = graph.with_edge(u, v, w)
        remaining = [e for e in remaining if (e[0], e[1]) != (u, v)]
        picked.append((u, v))
    return graph, picked


def test_grow_simple_matches_independent_greedy():
    rng = np.random.default_rng(26)
    for _ in range(15):
        g = random_connected_graph(rng, min_nodes=5, max_nodes=7, extra_edge_prob=0.15)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, float(rng.uniform(0.1, 0.6)))
        absent = _absent_pairs(g)
        entries = tuple(
            (u, v, float(rng.uniform(0.2, 1.2))) for u, v in absent
        )
        if not entries:
            continue
        budget = int(rng.integers(1, 4))
        state = DesignState.from_graph(g, out, tau)
        try:
            trace = grow_simple(state, CandidateSet(entries=entries, budget=budget))
        except NoFeasibleCandidate:
            ref_graph, ref_picked = _independent_greedy(g, out, tau, entries, budget)
            assert ref_picked == []
            continue
        ref_graph, ref_picked = _independent_greedy(g, out, tau, entries, budget)
        assert [e.edge for e in trace.entries] == ref_picked
        assert state.graph == ref_graph
        assert state.rho_fit == pytest.approx(_fit(ref_graph, out, tau), rel=1e-9)


def test_grow_simple_budget_zero_is_empty():
    g = WeightedGraph.path(4)
    state = DesignState.from_graph(g, OutputSpec.centering(4), 0.1)
    trace = grow_simple(state, CandidateSet(entries=((0, 2, 1.0),), budget=0))
    assert trace.entries == [] and state.graph == g


def test_grow_simple_raises_when_nothing_is_feasible_at_start():
    g = WeightedGraph.path(3)
    out = OutputSpec.centering(3)
    tau = stable_delay(g, 0.9)
    state = DesignState.from_graph(g, out, tau)
    heavy = 10.0 * edge_stability_bound(state, (0, 2))
    with pytest.raises(NoFeasibleCandidate):
        grow_simple(state, CandidateSet(entries=((0, 2, heavy),), budget=1))


def test_grow_simple_stops_when_every_candidate_hurts():
    # near the stability edge, moderate chord weights raise the measure
    g = WeightedGraph.cycle(4)
    state = DesignState.from_graph(g, OutputSpec.centering(4), 0.9 * math.pi / 8.0)
    cands = CandidateSet(entries=((0, 2, 0.3), (1, 3, 0.5)), budget=2)
    trace = grow_simple(state, cands)
    assert trace.entries == []
    assert trace.termination == "no improving candidate"
    assert state.graph == g


def test_grow_simple_mid_run_feasibility_exhaustion():
    # the first addition shrinks the second candidate's stability bound
    # below its weight, so the feasible set empties after one iteration
    g = WeightedGraph.path(4)
    tau = 0.8 * math.pi / (2.0 * spectrum_of(g).lambda_max)
    state = DesignState.from_graph(g, OutputSpec.centering(4), tau)
    cands = CandidateSet(entries=((0, 2, 0.6), (1, 3, 1.183)), budget=2)
    trace = grow_simple(state, cands)
    assert [e.edge for e in trace.entries] == [(0, 2)]
    assert trace.termination == "no feasible candidate"


def test_grow_simple_is_input_order_independent():
    rng = np.random.default_rng(27)
    g = random_connected_graph(rng, min_nodes=6, max_nodes=6, extra_edge_prob=0.1)
    out = OutputSpec.centering(6)
    tau = stable_delay(g, 0.4)
    entries = [(u, v, 0.7) for u, v in _absent_pairs(g)]
    shuffled = list(entries)
    rng.shuffle(shuffled)
    s1 = DesignState.from_graph(g, out, tau)
    s2 = DesignState.from_graph(g, out, tau)
    t1 = grow_simple(s1, CandidateSet(entries=tuple(entries), budget=3))
    t2 = grow_simple(s2, CandidateSet(entries=tuple(shuffled), budget=3))
    assert [e.edge for e in t1.entries] == [e.edge for e in t2.entries]
    assert s1.graph == s2.graph


def test_grow_simple_trace_values_are_audited_and_decreasing():
    g = WeightedGraph.path(6)
    out = OutputSpec.centering(6)
    tau = stable_delay(g, 0.3)
    state = DesignState.from_graph(g, out, tau)
    entries = tuple((u, v, 0.8) for u, v in _absent_pairs(g))
    trace = grow_simple(state, CandidateSet(entries=entries, budget=4))
    assert len(trace.entries) == 4
    replay = g
    last_exact = exact_measure(g, out, tau)
    for entry in trace.entries:
        replay = replay.with_edge(*entry.edge, entry.weight)
        assert entry.rho_exact == pytest.approx(
            exact_measure(replay, out, tau), rel=1e-10
        )
        assert entry.rho_fit == pytest.approx(fit_measure(replay, out, tau), rel=1e-8)
        assert entry.rho_exact < last_exact
        last_exact = entry.rho_exact
        assert entry.stability_margin is not None and entry.stability_margin > 0.0


# --- grow_random ---


def test_grow_random_budget_one_matches_simple_final_graph():
    rng = np.random.default_rng(28)
    for seed in range(8):
        g = random_connected_graph(rng, min_nodes=5, max_nodes=7, extra_edge_prob=0.2)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, 0.4)
        entries = tuple((u, v, 0.6) for u, v in _absent_pairs(g))
        if not entries:
            continue
        s1 = DesignState.from_graph(g, out, tau)
        s2 = DesignState.from_graph(g, out, tau)
        grow_simple(s1, CandidateSet(entries=entries, budget=1))
        grow_random(s2, CandidateSet(entries=entries, budget=1), seed=seed)
        assert s1.graph == s2.graph


def test_grow_random_is_seed_reproducible():
    g = WeightedGraph.path(7)
    out = OutputSpec.centering(7)
    tau = stable_delay(g, 0.4)
    entries = tuple((u, v, 0.5) for u, v in _absent_pairs(g))
    results = []
    for _ in range(2):
        state = DesignState.from_graph(g, out, tau)
        trace = grow_random(state, CandidateSet(entries=entries, budget=4), seed=11)
        results.append((state.graph, [(e.action, e.edge) for e in trace.entries]))
    assert results[0] == results[1]


def test_grow_random_runs_exactly_budget_iterations():
    g = WeightedGraph.path(7)
    out = OutputSpec.centering(7)
    tau = stable_delay(g, 0.4)
    entries = tuple((u, v, 0.5) for u, v in _absent_pairs(g))
    state = DesignState.from_graph(g, out, tau)
    trace = grow_random(state, CandidateSet(entries=entries, budget=4), seed=0)
    assert [e.iteration for e in trace.entries] == [1, 2, 3, 4]
    assert all(e.action in ("add", "skip") for e in trace.entries)
    assert trace.termination == "budget exhausted"


def test_grow_random_rejects_a_negative_seed():
    g = WeightedGraph.path(4)
    state = DesignState.from_graph(g, OutputSpec.centering(4), 0.2)
    for seed in (-1, 2.5, "x"):
        with pytest.raises(ConfigError, match="seed"):
            grow_random(state, CandidateSet(entries=((0, 2, 0.5),), budget=1), seed=seed)
    assert state.graph == g
    # numpy integers are integers.
    grow_random(state, CandidateSet(entries=((0, 2, 0.5),), budget=1), seed=np.int64(3))


def test_grow_random_all_skips_when_every_candidate_hurts():
    g = WeightedGraph.cycle(4)
    state = DesignState.from_graph(g, OutputSpec.centering(4), 0.9 * math.pi / 8.0)
    cands = CandidateSet(entries=((0, 2, 0.3), (1, 3, 0.5)), budget=2)
    trace = grow_random(state, cands, seed=5)
    assert [e.action for e in trace.entries] == ["skip", "skip"]
    assert state.graph == g
    assert all(e.edge is None and e.contribution == 0.0 for e in trace.entries)


def test_grow_random_can_differ_from_simple_on_a_trap():
    # two-step instance where the greedy's first pick blocks the better pair
    g = WeightedGraph.path(4)
    tau = 0.8 * math.pi / (2.0 * spectrum_of(g).lambda_max)
    entries = ((0, 2, 0.6), (1, 3, 1.183))
    outcomes = set()
    for seed in range(12):
        state = DesignState.from_graph(g, OutputSpec.centering(4), tau)
        grow_random(state, CandidateSet(entries=entries, budget=2), seed=seed)
        outcomes.add(state.graph.edge_keys())
    assert len(outcomes) > 1  # randomization actually explores


def test_grow_random_pinned_selections():
    # seeded picks, pinned so that changes to the shared loop keep them
    g = WeightedGraph(
        6, ((0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (3, 4, 0.9), (4, 5, 1.1), (0, 2, 0.5))
    )
    entries = tuple((u, v, 0.3 + 0.1 * ((3 * u + 5 * v) % 9)) for u, v in _absent_pairs(g))
    add, skip = "add", ("skip", None)
    expected = {
        0.8: [
            [(add, (1, 4)), skip, skip, skip],
            [(add, (1, 5)), skip, skip, skip],
            [(add, (1, 4)), skip, (add, (1, 5)), skip],
            [(add, (1, 4)), (add, (1, 5)), skip, skip],
        ],
        0.9: [
            [skip, skip, skip, (add, (0, 5))],
            [(add, (0, 5)), skip, skip, skip],
            [skip, (add, (0, 5)), skip, skip],
            [skip, (add, (1, 5)), skip, skip],
        ],
    }
    for fraction, runs in expected.items():
        tau = stable_delay(g, fraction)
        for seed, picks in enumerate(runs):
            state = DesignState.from_graph(g, OutputSpec.centering(6), tau, audit=False)
            trace = grow_random(state, CandidateSet(entries=entries, budget=4), seed=seed)
            assert [(e.action, e.edge) for e in trace.entries] == picks
            assert trace.termination == "budget exhausted"


# --- sparsify ---


def test_sparsify_on_a_tree_keeps_everything():
    g = WeightedGraph.path(5)
    state = DesignState.from_graph(g, OutputSpec.centering(5), 0.2)
    trace = sparsify(state, budget=3)
    assert trace.entries == []
    assert trace.termination == "all edges are bridges"
    assert state.graph == g


def test_sparsify_keeps_a_tree_with_weights_twelve_decades_apart():
    # The resistance test cannot resolve w * r = 1 on the 1e-12 edges, so
    # only the connectivity check keeps these bridges.
    g = WeightedGraph(4, ((0, 1, 2.12e-12), (0, 2, 4.54e-12), (2, 3, 0.769)))
    tau = 0.3 * math.pi / (2.0 * spectrum_of(g).lambda_max)
    state = DesignState.from_graph(g, OutputSpec.centering(4), tau)
    trace = sparsify(state, 3)
    assert trace.entries == []
    assert state.graph == g


def test_sparsify_never_hurts_at_zero_delay():
    # without delay, removing weight always raises the measure
    state = DesignState.from_graph(WeightedGraph.cycle(5), OutputSpec.centering(5), 0.0)
    trace = sparsify(state, budget=2)
    assert trace.entries == []
    assert trace.termination == "no improving removal"


def test_sparsify_improves_and_preserves_invariants():
    rng = np.random.default_rng(29)
    improved_somewhere = False
    for _ in range(20):
        g = random_connected_graph(rng, min_nodes=6, max_nodes=9, extra_edge_prob=0.6)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, float(rng.uniform(0.6, 0.95)))
        state = DesignState.from_graph(g, out, tau)
        before = state.rho_fit
        trace = sparsify(state, budget=g.edge_count)
        assert state.graph.is_connected()
        replay = g
        for entry in trace.entries:
            assert entry.action == "remove"
            assert entry.contribution < 0.0
            replay = replay.without_edge(*entry.edge)
            assert entry.rho_exact == pytest.approx(
                exact_measure(replay, out, tau), rel=1e-9
            )
            assert entry.stability_margin is not None and entry.stability_margin > 0.0
        assert replay == state.graph
        if trace.entries:
            improved_somewhere = True
            assert state.rho_fit < before
            assert state.rho_fit == pytest.approx(_fit(replay, out, tau), rel=1e-8)
    assert improved_somewhere


def test_sparsify_scores_no_bridge_removal():
    # the pendant edge (0, 3) is a bridge: scoring its removal divides by zero
    g = WeightedGraph(4, WeightedGraph.cycle(3).edges + ((0, 3, 1.0),))
    state = DesignState.from_graph(g, OutputSpec.centering(4), 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        trace = sparsify(state, 2)
    assert state.graph.has_edge(0, 3)
    assert all(e.edge != (0, 3) for e in trace.entries)


def _independent_sparsify(graph, out, tau, budget):
    """From-scratch sparsify reference: DFS bridges, full eigenwork per probe."""
    removed = []
    for _ in range(budget):
        base = _fit(graph, out, tau)
        bridges = bridge_oracle(graph)
        best = None
        for u, v, _ in graph.edges:
            if (u, v) in bridges:
                continue
            gain = base - _fit(graph.without_edge(u, v), out, tau)
            # strict > keeps the first (lexicographically lowest) maximizer
            if best is None or gain > best[0]:
                best = (gain, u, v)
        if best is None or best[0] <= 0.0:
            break
        graph = graph.without_edge(best[1], best[2])
        removed.append((best[1], best[2]))
    return graph, removed


def test_sparsify_matches_independent_reference():
    rng = np.random.default_rng(43)
    removed_somewhere = False
    for _ in range(15):
        g = random_connected_graph(rng, min_nodes=5, max_nodes=8, extra_edge_prob=0.5)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, float(rng.uniform(0.6, 0.95)))
        budget = int(rng.integers(1, 5))
        state = DesignState.from_graph(g, out, tau)
        trace = sparsify(state, budget)
        ref_graph, ref_removed = _independent_sparsify(g, out, tau, budget)
        assert [e.edge for e in trace.entries] == ref_removed
        assert state.graph == ref_graph
        removed_somewhere |= bool(ref_removed)
    assert removed_somewhere


def test_sparsify_budget_validation():
    state = DesignState.from_graph(WeightedGraph.cycle(4), OutputSpec.centering(4), 0.1)
    with pytest.raises(ValueError):
        sparsify(state, budget=-1)
    assert sparsify(state, budget=0).entries == []


# --- golden section ---


def test_golden_section_finds_quadratic_minimum():
    got = golden_section_min(lambda x: (x - 1.7) ** 2, 0.0, 5.0, 1e-10)
    assert got == pytest.approx(1.7, abs=1e-8)
    # A bracket near the float maximum: the midpoint must not overflow.
    huge = golden_section_min(lambda x: -x, 1e308, 1.7e308, 1e300)
    assert 1.7e308 - 1e300 <= huge <= 1.7e308
    with pytest.raises(ValueError):
        golden_section_min(lambda x: x, 1.0, 0.0, 1e-3)
    # A width that no bracket can shrink below would never stop the search.
    for width in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="width"):
            golden_section_min(lambda x: x, 0.0, 1.0, width)


# --- grow_by_sensitivity ---


def test_grow_by_sensitivity_improves_with_near_optimal_weights():
    g = WeightedGraph.path(5)
    out = OutputSpec.centering(5)
    tau = stable_delay(g, 0.5)
    state = DesignState.from_graph(g, out, tau)
    pairs = _absent_pairs(g)
    trace = grow_by_sensitivity(state, pairs, budget=2)
    assert len(trace.entries) == 2
    previous_fit = fit_measure(g, out, tau)
    replay = g
    for entry in trace.entries:
        assert entry.action == "add"
        assert entry.sensitivity is not None and entry.sensitivity < 0.0
        assert entry.contribution < 0.0
        assert entry.weight > 0.0
        replay = replay.with_edge(*entry.edge, entry.weight)
        assert entry.rho_fit == pytest.approx(fit_measure(replay, out, tau), rel=1e-8)
        assert entry.rho_fit < previous_fit
        previous_fit = entry.rho_fit
    # the chosen weight should essentially minimize the one-edge fit
    first = trace.entries[0]
    probe = DesignState.from_graph(g, out, tau)
    bound = edge_stability_bound(probe, first.edge)
    grid = np.linspace(1e-4, 1.0 - 1e-6, 4000) * bound
    best_grid = min(edge_contribution(probe, first.edge, float(w)) for w in grid)
    assert first.contribution <= best_grid + 1e-8 * abs(best_grid)


def test_grow_by_sensitivity_validation():
    g = WeightedGraph.path(4)
    out = OutputSpec.centering(4)
    state = DesignState.from_graph(g, out, 0.0)
    with pytest.raises(DomainError):
        grow_by_sensitivity(state, [(0, 2)], budget=1)
    state = DesignState.from_graph(g, out, 0.2)
    with pytest.raises(ValueError, match="duplicate"):
        grow_by_sensitivity(state, [(0, 2), (2, 0)], budget=1)
    with pytest.raises(ValueError, match="already an edge"):
        grow_by_sensitivity(state, [(1, 0)], budget=1)
    with pytest.raises(ValueError, match="self-loop"):
        grow_by_sensitivity(state, [(2, 2)], budget=1)
    for pair in ((0, 4), (-1, 2)):
        with pytest.raises(IndexOutOfRange):
            grow_by_sensitivity(state, [(0, 2), pair], budget=1)
    with pytest.raises(ValueError):
        grow_by_sensitivity(state, [(0, 2)], budget=-1)
    assert state.graph == g


@pytest.mark.parametrize("budget", [2.5, 2.0])
def test_every_driver_refuses_a_non_integer_budget(budget):
    g = WeightedGraph.path(4)
    state = DesignState.from_graph(g, OutputSpec.centering(4), 0.2)
    # grow_simple and grow_random read their budget from the candidate set.
    with pytest.raises(ValueError, match="nonnegative integer"):
        CandidateSet(entries=((0, 2, 0.5),), budget=budget)
    with pytest.raises(ValueError, match="nonnegative integer"):
        sparsify(state, budget)
    with pytest.raises(ValueError, match="nonnegative integer"):
        grow_by_sensitivity(state, [(0, 2)], budget)
    assert state.graph == g


def test_every_driver_takes_a_numpy_integer_budget():
    g, out, budget = WeightedGraph.path(4), OutputSpec.centering(4), np.int64(2)
    candidates = CandidateSet(entries=((0, 2, 0.5), (1, 3, 0.5)), budget=budget)
    for run in (
        lambda state: grow_simple(state, candidates),
        lambda state: grow_random(state, candidates, seed=0),
        lambda state: sparsify(state, budget),
        lambda state: grow_by_sensitivity(state, [(0, 2), (1, 3)], budget),
    ):
        state = DesignState.from_graph(g, out, 0.2)
        assert len(run(state).entries) <= 2


def test_grow_by_sensitivity_stops_without_negative_slopes():
    # near the stability edge the chord derivative is positive
    g = WeightedGraph.cycle(4)
    state = DesignState.from_graph(g, OutputSpec.centering(4), 0.98 * math.pi / 8.0)
    trace = grow_by_sensitivity(state, [(0, 2), (1, 3)], budget=2)
    assert trace.entries == []
    assert trace.termination == "no negative sensitivity"


def test_grow_by_sensitivity_pinned_selections():
    # pinned picks and stopping reasons at two delays
    g = WeightedGraph(
        6, ((0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (3, 4, 0.9), (4, 5, 1.1), (0, 2, 0.5))
    )
    expected = {
        0.8: ([(0, 5), (1, 5), (0, 4), (1, 3), (1, 4), (2, 4)], "budget exhausted"),
        0.9: ([(0, 5), (1, 5)], "no negative sensitivity"),
    }
    for fraction, (edges, termination) in expected.items():
        state = DesignState.from_graph(g, OutputSpec.centering(6), stable_delay(g, fraction))
        trace = grow_by_sensitivity(state, _absent_pairs(g), budget=6)
        assert [e.edge for e in trace.entries] == edges
        assert all(e.action == "add" for e in trace.entries)
        assert trace.termination == termination


# --- long mixed runs keep the tracked fit honest ---


def test_tracked_fit_matches_rebuild_after_many_operations():
    rng = np.random.default_rng(30)
    g = random_connected_graph(rng, min_nodes=9, max_nodes=12, extra_edge_prob=0.35)
    out = OutputSpec.centering(g.node_count)
    tau = stable_delay(g, 0.35)
    state = DesignState.from_graph(g, out, tau)
    entries = tuple((u, v, 0.5) for u, v in _absent_pairs(g))
    grow_simple(state, CandidateSet(entries=entries, budget=8))
    sparsify(state, budget=8)
    pairs = _absent_pairs(state.graph)[:4]
    if pairs:
        grow_by_sensitivity(state, pairs, budget=2)
    rebuilt = rho_approx_from_caches(fresh_caches(state.graph, out, tau))
    assert abs(state.rho_fit - rebuilt) <= 1e-12 * max(1.0, abs(rebuilt))


def test_each_traced_fit_is_the_cache_read_after_its_move():
    # The fit is read from the caches, not summed over moves: replaying the
    # moves on fresh caches reproduces every traced fit to the bit.
    g = random_connected_graph(
        np.random.default_rng(41), min_nodes=8, max_nodes=10, extra_edge_prob=0.4
    )
    c = np.random.default_rng(42).standard_normal((3, g.node_count))
    tau = stable_delay(g, 0.7)
    entries = tuple((u, v, 0.5) for u, v in _absent_pairs(g))
    drivers = [
        lambda state: grow_simple(state, CandidateSet(entries=entries, budget=3)),
        lambda state: grow_random(state, CandidateSet(entries=entries, budget=3), seed=2),
        lambda state: sparsify(state, budget=3),
        lambda state: grow_by_sensitivity(state, _absent_pairs(g)[:6], budget=3),
    ]
    custom = OutputSpec.custom(c - c.mean(axis=1, keepdims=True))
    for out in (OutputSpec.centering(g.node_count), custom):
        for driver in drivers:
            state = DesignState.from_graph(g, out, tau)
            trace = driver(state)
            assert any(entry.action != "skip" for entry in trace.entries)
            assert state.rho_fit == rho_approx_from_caches(state.caches)
            replay = DesignState.from_graph(g, out, tau).caches
            for entry in trace.entries:
                if entry.action != "skip":
                    sherman_morrison_update(replay, entry.edge, entry.weight)
                assert entry.rho_fit == rho_approx_from_caches(replay)


# --- reweight ---


def test_reweight_complete_graph_hits_the_known_optimum():
    z = cosine_fixed_point()
    n, w0, tau = 6, 0.7, 0.05
    g = WeightedGraph.complete(n, weight=w0)
    result = reweight_scale(g, OutputSpec.centering(n), tau)
    assert result.kappa_star * w0 == pytest.approx(z / (n * tau), rel=1e-6)
    assert result.bracket[0] <= result.kappa_star <= result.bracket[1]
    assert result.rho_after <= result.rho_before
    assert result.rho_after == pytest.approx(
        exact_measure(g.scaled(result.kappa_star), OutputSpec.centering(n), tau),
        rel=1e-12,
    )


def test_reweight_result_is_a_local_minimum():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_connected_graph(rng)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, 0.5)
        result = reweight_scale(g, out, tau)
        center = exact_measure(g.scaled(result.kappa_star), out, tau)
        for factor in (1.0 - 1e-4, 1.0 + 1e-4):
            kappa = result.kappa_star * factor
            assert exact_measure(g.scaled(kappa), out, tau) >= center - 1e-12


def test_reweight_recovers_an_unstable_start():
    g = WeightedGraph.complete(4)  # lambda_max 4, unstable at tau = 0.5
    result = reweight_scale(g, OutputSpec.centering(4), 0.5)
    assert result.rho_before == math.inf
    assert result.kappa_star < 1.0
    assert math.isfinite(result.rho_after)


def test_reweight_domain_errors():
    g = WeightedGraph.path(4)
    out = OutputSpec.centering(4)
    with pytest.raises(DomainError):
        reweight_scale(g, out, 0.0)
    with pytest.raises(DomainError):
        reweight_scale(g, out, 2.2)  # fixed point argument past the boundary
    with pytest.raises(DisconnectedGraph):
        reweight_scale(WeightedGraph(4, ((0, 1, 1.0),)), out, 0.1)
