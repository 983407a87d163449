"""Graph container, spectra, design caches, and rank-one update fidelity."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdconsensus import (
    EPS_STABILITY,
    DesignState,
    DisconnectedGraph,
    DomainError,
    EdgeFormCaches,
    EdgeNotInGraph,
    IndexOutOfRange,
    OutputKind,
    OutputSpec,
    SingularUpdate,
    UnstableNetwork,
    WeightedGraph,
    check_stability,
    edge_contribution,
    edge_stability_bound,
    eigendecompose,
    is_bridge,
    rho_approx,
    rho_approx_from_caches,
    sherman_morrison_update,
)
from conftest import (
    bridge_oracle,
    centering_matrix,
    delay_shift_matrix,
    fresh_caches,
    held_matrices,
    holds,
    max_cache_drift,
    output_matrix,
    random_connected_graph,
    reference_caches,
    sandwiches_formed,
    spread_weights,
    stable_delay,
    tracked_matrices,
)
from tdconsensus.graphs import (
    PAIR_READ_ROWS,
    PENDING_TERM_CAP,
    BASE_READ_DIVISOR,
    _edge_forms,
    edge_quadratic_forms,
)


def test_edges_are_canonicalized_and_sorted():
    g = WeightedGraph(4, ((3, 1, 2.0), (2, 0, 1.0)))
    assert g.edges == ((0, 2, 1.0), (1, 3, 2.0))
    assert g.edge_count == 2
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert g.weight(3, 1) == 2.0


def test_graphs_from_reordered_edges_compare_and_hash_equal():
    a = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 0.5), (1, 2, 2.0)))
    b = WeightedGraph(4, ((3, 2, 0.5), (1, 2, 2.0), (1, 0, 1.0)))
    assert a == b and hash(a) == hash(b) and {a: "x"}[b] == "x"
    assert a != WeightedGraph(4, ((0, 1, 1.0), (2, 3, 0.5), (1, 2, 2.5)))
    assert b.has_edge(2, 3) and not b.has_edge(0, 2)
    assert b.weight(3, 2) == 0.5
    with pytest.raises(EdgeNotInGraph):
        b.weight(0, 2)
    assert repr(a) == "WeightedGraph(node_count=4, edges=((0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)))"


def test_construction_rejects_bad_edges():
    with pytest.raises(IndexOutOfRange):
        WeightedGraph(3, ((0, 3, 1.0),))
    with pytest.raises(IndexOutOfRange):
        WeightedGraph(3, ((-1, 2, 1.0),))
    with pytest.raises(ValueError):
        WeightedGraph(3, ((1, 1, 1.0),))
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1, 0.0),))
    for bad in (-0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            WeightedGraph(3, ((0, 1, bad),))
        with pytest.raises(ValueError):
            WeightedGraph.path(3).scaled(bad)
    with pytest.raises(ValueError):
        WeightedGraph(0, ())
    for count in (3.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="node count"):
            WeightedGraph(count, ((0, 1, 1.0),))
    assert WeightedGraph(np.int64(3), ((0, 1, 1.0),)).laplacian().shape == (3, 3)


def test_edge_mutation_helpers():
    g = WeightedGraph.path(3)
    grown = g.with_edge(2, 0, 0.5)
    assert grown.has_edge(0, 2) and not g.has_edge(0, 2)
    with pytest.raises(ValueError):
        grown.with_edge(0, 2, 1.0)
    shrunk = grown.without_edge(0, 2)
    assert shrunk == g
    with pytest.raises(EdgeNotInGraph):
        g.without_edge(0, 2)
    with pytest.raises(EdgeNotInGraph):
        g.weight(0, 2)
    doubled = g.scaled(2.0)
    assert doubled.weight(0, 1) == 2.0
    with pytest.raises(ValueError):
        g.scaled(0.0)


def _assert_same_graph(edited: WeightedGraph, fresh: WeightedGraph) -> None:
    assert edited == fresh and hash(edited) == hash(fresh)
    assert edited.edges == fresh.edges and repr(edited) == repr(fresh)
    for u, v, w in edited.edges:
        assert (type(u), type(v), type(w)) == (int, int, float)
        assert edited.weight(v, u) == fresh.weight(u, v) == w


_SCALARS = (int, np.int64, np.int32)


@settings(max_examples=60)
@given(
    n=st.integers(2, 9),
    steps=st.lists(
        st.tuples(
            st.integers(0, 8), st.integers(0, 8), st.floats(0.01, 10.0), st.integers(0, 2)
        ),
        max_size=25,
    ),
)
def test_edge_edits_equal_a_fresh_graph_on_the_same_edges(n, steps):
    g = WeightedGraph(n, ())
    edges: dict[tuple[int, int], float] = {}
    for a, b, w, style in steps:
        u, v = _SCALARS[style](a % n), _SCALARS[style](b % n)
        key = (int(min(u, v)), int(max(u, v)))
        if u == v:
            continue
        if key in edges:
            g = g.without_edge(u, v)
            del edges[key]
        else:
            weight = (float, np.float64, np.float32)[style](w)
            g = g.with_edge(u, v, weight)
            edges[key] = float(weight)
        fresh = WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))
        _assert_same_graph(g, fresh)


def test_edge_edits_raise_the_construction_errors():
    g = WeightedGraph.path(4)
    cases = [
        (lambda: g.with_edge(1, 0, 1.0), ValueError, "already present"),
        (lambda: g.with_edge(np.int64(2), np.int64(1), 0.5), ValueError, "already present"),
        (lambda: g.without_edge(0, 2), EdgeNotInGraph, "not in graph"),
        (lambda: g.without_edge(np.int64(3), np.int64(0)), EdgeNotInGraph, "not in graph"),
        (lambda: g.with_edge(0, 4, 1.0), IndexOutOfRange, "out of range"),
        (lambda: g.with_edge(-1, 2, 1.0), IndexOutOfRange, "out of range"),
        (lambda: g.without_edge(0, 4), IndexOutOfRange, "out of range"),
        (lambda: g.with_edge(2, 2, 1.0), ValueError, "self-loop"),
        (lambda: g.without_edge(1, 1), ValueError, "self-loop"),
    ]
    for bad in (0.0, -0.5, math.nan, math.inf, -math.inf, np.float64(math.nan)):
        cases.append((lambda bad=bad: g.with_edge(0, 2, bad), ValueError, "positive finite"))
    for call, error, message in cases:
        with pytest.raises(error, match=message) as excinfo:
            call()
        assert excinfo.type is error
    _assert_same_graph(g, WeightedGraph.path(4))


def test_named_families_and_degree():
    assert WeightedGraph.path(4).edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
    assert WeightedGraph.cycle(4).edge_count == 4
    with pytest.raises(ValueError, match="three nodes"):
        WeightedGraph.cycle(2)
    assert WeightedGraph.star(4).edges == ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0))
    assert WeightedGraph.complete(5).edge_count == 10
    assert WeightedGraph.star(5, weight=0.5).max_weighted_degree() == 2.0


def test_connectivity():
    assert WeightedGraph.path(6).is_connected()
    assert WeightedGraph(1, ()).is_connected()
    assert not WeightedGraph(3, ((0, 1, 1.0),)).is_connected()
    assert not WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))).is_connected()


def _laplacian_loop(graph: WeightedGraph) -> np.ndarray:
    """The per-edge loop the vectorized Laplacian must reproduce bit for bit."""
    lap = np.zeros((graph.node_count, graph.node_count))
    for u, v, w in graph.edges:
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


def test_laplacian_and_degrees_equal_the_per_edge_loop_bit_for_bit():
    rng = np.random.default_rng(12)
    graphs = [WeightedGraph(1, ()), WeightedGraph(3, ()), WeightedGraph.complete(6)]
    for _ in range(40):
        # Weights across twelve decades make the summation order visible.
        g = random_connected_graph(rng, max_nodes=30, extra_edge_prob=0.4)
        spread = tuple((u, v, w * 10.0 ** rng.uniform(-6, 6)) for u, v, w in g.edges)
        graphs.append(WeightedGraph(g.node_count, spread))
    for g in graphs:
        loop = _laplacian_loop(g)
        assert np.array_equal(g.laplacian(), loop)
        assert g.max_weighted_degree() == float(loop.diagonal().max())


def test_an_edgeless_laplacian_is_float():
    # With no weight to sum, the degrees were an integer array.
    for n in (1, 3):
        lap = WeightedGraph(n, ()).laplacian()
        assert lap.dtype == np.float64 and not lap.any()


def test_zero_delay_shift_caches_are_the_same_on_every_graph():
    # At zero delay S = (pi/2) Π on every graph, and build forms its
    # pseudo-inverse in closed form: (2/pi) Π to the bit, whatever the weights.
    rng = np.random.default_rng(17)
    for n in (3, 7, 16):
        graphs = [WeightedGraph.path(n), WeightedGraph.complete(n, 3.5)]
        graphs += [random_connected_graph(rng, min_nodes=n, max_nodes=n) for _ in range(3)]
        closed_form = (2.0 / np.pi) * centering_matrix(n)
        for g in graphs:
            caches = EdgeFormCaches.build(g.laplacian(), 1.0, 0.0)
            assert np.array_equal(caches.shift_pinv, closed_form)
            assert np.array_equal(caches.shift_pinv_gram, closed_form @ closed_form.T)


def test_zero_delay_updates_leave_the_shift_caches_as_they_are():
    g = WeightedGraph.cycle(6)
    caches = EdgeFormCaches.build(g.laplacian(), 1.0, 0.0)
    shift_pinv, shift_gram = caches.shift_pinv.copy(), caches.shift_pinv_gram.copy()
    sherman_morrison_update(caches, (0, 3), 0.7)
    sherman_morrison_update(caches, (1, 2), -0.4)
    assert np.array_equal(caches.shift_pinv, shift_pinv)
    assert np.array_equal(caches.shift_pinv_gram, shift_gram)
    # A fresh build on the edited graph forms the very same shift caches.
    rebuilt = EdgeFormCaches.build(caches.laplacian, 1.0, 0.0)
    assert np.array_equal(rebuilt.shift_pinv, shift_pinv)
    assert np.array_equal(rebuilt.shift_pinv_gram, shift_gram)


def test_zero_delay_shift_forms_are_their_offsets_to_the_bit():
    # At zero delay S⁺ is (2/pi) Π, which build keeps as the scale 2/pi and
    # never factors or forms, so every pair's shift forms are Π's
    # alone: 2 (2/pi) = 4/pi and 2 s (2/pi)², which is 8 s / pi² as floats
    # round it. Moves leave them as they are, and these wide reads leave
    # the sandwiches unformed.
    rng = np.random.default_rng(19)
    c = 2.0 / np.pi
    named = [kind for kind in OutputKind if kind is not OutputKind.CUSTOM]
    for n in (3, 7, 16):
        us, vs = np.triu_indices(n, 1)
        for g in (WeightedGraph.path(n), random_connected_graph(rng, min_nodes=n, max_nodes=n)):
            for kind in named:
                s = OutputSpec(kind, n).gram()
                expected = (np.full(len(us), 2.0 * (s * c * c)), np.full(len(us), 2.0 * c))
                caches = EdgeFormCaches.build(g.laplacian(), s, 0.0)
                held = held_matrices(caches)
                assert not sandwiches_formed(caches)
                assert caches._shift.inverse == c
                for ours, exact in zip(caches._shift.forms(us, vs), expected):
                    assert np.array_equal(ours, exact)
                u, v, w = g.edges[0]
                sherman_morrison_update(caches, (u, v), -0.5 * w)
                sherman_morrison_update(caches, (0, n - 1), 0.7)
                for ours, exact in zip(_edge_forms(caches, us, vs)[2:4], expected):
                    assert np.array_equal(ours, exact)
                assert holds(caches, held)


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_connected_graph(rng)
        lap = g.laplacian()
        assert np.allclose(lap, lap.T)
        assert np.allclose(lap @ np.ones(g.node_count), 0.0)
        off = lap[~np.eye(g.node_count, dtype=bool)]
        assert np.all(off <= 0.0)


def test_path_three_spectrum():
    spec = eigendecompose(WeightedGraph.path(3).laplacian())
    assert np.allclose(spec.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)
    assert spec.lambda_2 == pytest.approx(1.0, abs=1e-12)
    assert spec.lambda_max == pytest.approx(3.0, abs=1e-12)


def _lap_pinv(g: WeightedGraph) -> np.ndarray:
    """The Laplacian's pseudo-inverse as EdgeFormCaches.build forms it."""
    return EdgeFormCaches.build(g.laplacian(), 1.0, 0.0).lap_pinv


def test_complete_three_pseudo_inverse_is_centering_over_three():
    pinv = _lap_pinv(WeightedGraph.complete(3))
    assert np.allclose(pinv, centering_matrix(3) / 3.0, atol=1e-13)


def test_pseudo_inverse_properties_random():
    # Both operators' pseudo-inverses, from their grounded Cholesky factors,
    # invert them on the centered subspace and map the ones vector to zero,
    # from zero delay to just below the stability boundary. Past it the
    # network is unstable, and build refuses it.
    rng = np.random.default_rng(23)
    for index in range(25):
        g = random_connected_graph(rng)
        lap = g.laplacian()
        with pytest.raises(UnstableNetwork):
            EdgeFormCaches.build(lap, 1.0, stable_delay(g, (1.5, 3.0)[index % 2]))
        tau = stable_delay(g, (0.0, 0.5, 0.9, 0.99, 0.999)[index % 5])
        caches = EdgeFormCaches.build(lap, 1.0, tau)
        center = centering_matrix(g.node_count)
        shift = delay_shift_matrix(lap, tau)
        for operator, pinv in ((lap, caches.lap_pinv), (shift, caches.shift_pinv)):
            assert np.allclose(operator @ pinv, center, atol=1e-10)
            assert np.allclose(pinv @ np.ones(g.node_count), 0.0, atol=1e-10)


def test_disconnected_lambda_2_raises():
    spec = eigendecompose(np.zeros((3, 3)))
    with pytest.raises(DisconnectedGraph):
        spec.lambda_2


@pytest.mark.parametrize(
    "graph, message",
    [
        (WeightedGraph.path(3, 6e307), "not finite"),
        (WeightedGraph(2, ((0, 1, 1e308),)), "not finite"),
        (WeightedGraph.star(4, 1e308), "in the grounded matrix"),
    ],
    ids=["lambda-max-overflows", "two-nodes", "degree-overflows"],
)
def test_a_spectrum_past_the_float_range_raises_domain_error(graph, message):
    # lambda_max overflowed to inf, which lambda_2's floor then read as a
    # second kernel direction (DisconnectedGraph); a degree past the float
    # range gave NaN eigenvalues and a NaN measure. Every spectrum takes its
    # eigenvalues from the grounded matrix, whose shift by the degree
    # overflows first there.
    with pytest.raises(DomainError, match=message):
        eigendecompose(graph.laplacian())


def test_eigenvalues_without_vectors_match_eigh():
    # Both paths put the kernel first as an exact 0. The kernel's 0 is
    # grounded below the spectrum and replaced: what is left agrees with
    # eigh within eigh's own n * eps * lambda_max, on weights over six
    # decades too.
    rng = np.random.default_rng(31)
    for index in range(100):
        g = random_connected_graph(rng, max_nodes=24)
        if index % 4 == 3:
            weights = 10.0 ** rng.uniform(-6.0, 0.0, g.edge_count)
            g = WeightedGraph(g.node_count, tuple((u, v, float(w)) for (u, v, _), w in zip(g.edges, weights)))
        full = eigendecompose(g.laplacian())
        values = eigendecompose(g.laplacian(), vectors=False)
        assert values.vectors is None and values.eigenvalues[0] == full.eigenvalues[0] == 0.0
        bound = g.node_count * np.finfo(float).eps * full.lambda_max
        assert np.abs(values.nonzero_eigenvalues - full.nonzero_eigenvalues).max() <= bound


def test_eigenvalues_without_vectors_drop_the_kernel_at_a_tie():
    # K_{3,3}'s lambda_max 6 is twice its degree 3, so a shift of the kernel
    # up by twice the degree would tie with it. Grounded at -3, the kernel is
    # below every other value, and one 6 and four 3s are left, each within
    # eigh's n * eps * lambda_max (LAPACK returns 3 and 6 up to two ulps below).
    k33 = WeightedGraph(6, tuple((u, v, 1.0) for u in range(3) for v in range(3, 6)))
    values = eigendecompose(k33.laplacian(), vectors=False).eigenvalues
    assert values[0] == 0.0
    assert values == pytest.approx([0, 3, 3, 3, 3, 6], rel=0.0, abs=6 * np.finfo(float).eps * 6)


def test_eigenvalues_without_vectors_near_the_float_maximum_match_eigh():
    # The largest degree is 1e308 and lambda_max 1.5e308: a shift by twice the
    # degree would leave the float range, the grounding shift does not.
    lap = WeightedGraph.path(3, 5e307).laplacian()
    full, values = eigendecompose(lap), eigendecompose(lap, vectors=False)
    assert values.eigenvalues[0] == 0.0 and math.isfinite(values.lambda_max)
    bound = 3 * np.finfo(float).eps * full.lambda_max
    assert np.abs(values.nonzero_eigenvalues - full.nonzero_eigenvalues).max() <= bound


@pytest.mark.parametrize(
    "graph",
    [
        WeightedGraph.path(3, 6e307),
        WeightedGraph(2, ((0, 1, 1e308),)),
        WeightedGraph(2, ((0, 1, 1.5e308),)),
        WeightedGraph.star(4, 1e308),
    ],
    ids=["lambda-max-overflows", "two-nodes", "grounded-entry-overflows", "degree-overflows"],
)
def test_eigenvalues_without_vectors_past_the_float_range_raise_domain_error(graph):
    # lambda_max leaves the float range, as it does for eigh, and with it an
    # entry of the grounded matrix or a degree may, before any solver runs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="float range"):
            eigendecompose(graph.laplacian(), vectors=False)


def test_eigh_puts_a_kernel_that_sorts_later_first():
    # Twice past the stability threshold the shifted operator has three
    # negative eigenvalues, which sort before its kernel.
    g = WeightedGraph.cycle(6)
    threshold = math.pi / (2.0 * eigendecompose(g.laplacian()).lambda_max)
    spectrum = eigendecompose(delay_shift_matrix(g.laplacian(), 2.0 * threshold))
    kernel = spectrum.vectors[:, 0]
    assert spectrum.eigenvalues[0] == 0.0
    assert np.all(np.diff(spectrum.eigenvalues[1:]) >= 0.0) and spectrum.eigenvalues[1] < 0.0
    assert np.abs(np.sign(kernel.sum()) * kernel - 1.0 / math.sqrt(6.0)).max() <= 1e-14
    assert np.allclose(spectrum.vectors.T @ spectrum.vectors, np.eye(6), atol=1e-14)


def test_pseudo_inverse_needs_eigenvectors():
    lap = WeightedGraph.path(4).laplacian()
    with pytest.raises(DomainError, match="no eigenvectors"):
        eigendecompose(lap, vectors=False).nonzero_eigenvectors


def test_build_refuses_a_negative_spectrum_or_delay():
    # -L has its kernel pair and n - 1 negative eigenvalues: no Laplacian's.
    # The spectrum's one check refuses it before any product is formed, and
    # build refuses every delay that check_stability refuses.
    lap = WeightedGraph.path(4).laplacian()
    cases = [(-lap, 0.1, "negative: not a Laplacian")]
    cases += [(lap, delay, "delay must be nonnegative") for delay in (-0.1, math.nan, math.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for matrix, delay, message in cases:
            with pytest.raises(DomainError, match=message):
                EdgeFormCaches.build(matrix, 1.0, delay)


def test_weights_whose_squared_inverses_overflow_raise_domain_error():
    # On path(5) with weights 1e-160, 1/lambda² passes the float range: build
    # warned of an overflow, built caches that held inf, and the first move
    # raised SingularUpdate. It now refuses such weights, in a named output's
    # spectral weights and in a custom output's formed sandwiches alike, and
    # still builds finite caches on weights of 1e-150.
    custom = np.array([[1.0, -1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for out in (OutputSpec.centering(5), OutputSpec.custom(custom)):
            for tau in (0.0, 1e-5):
                with pytest.raises(DomainError, match="float range in the design caches"):
                    DesignState.from_graph(WeightedGraph.path(5, 1e-160), out, tau)
                state = DesignState.from_graph(WeightedGraph.path(5, 1e-150), out, tau)
                assert all(np.isfinite(matrix).all() for matrix in tracked_matrices(state.caches))


def test_pseudo_inverse_rejects_a_second_kernel_direction():
    # Two components and an edgeless graph have a second zero Laplacian
    # eigenvalue, which has no inverse.
    for matrix in (WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))).laplacian(), np.zeros((3, 3))):
        with pytest.raises(DisconnectedGraph):
            EdgeFormCaches.build(matrix, 1.0, 0.0)
    # At the stability boundary the shifted operator's top eigenvalue
    # pi/2 - delay lambda_max is zero within rounding. Within a few floats of
    # the threshold, build raises UnstableNetwork wherever check_stability
    # finds the delay unstable, and wherever it is stable forms finite
    # caches: never an inf, and never a disconnected verdict.
    rng = np.random.default_rng(29)
    graphs = [WeightedGraph.path(3), WeightedGraph.cycle(6), WeightedGraph.complete(4)]
    graphs += [random_connected_graph(rng, max_nodes=12) for _ in range(12)]
    verdicts = set()
    for g in graphs:
        lap = g.laplacian()
        spectrum = eigendecompose(lap)
        delay = math.pi / (2.0 * spectrum.lambda_max)
        for _ in range(3):
            delay = math.nextafter(delay, 0.0)
        for _ in range(6):
            stable = check_stability(spectrum, delay).stable
            verdicts.add(stable)
            if stable:
                caches = EdgeFormCaches.build(lap, 1.0, delay)
                assert all(np.isfinite(m).all() for m in tracked_matrices(caches))
            else:
                with pytest.raises(UnstableNetwork):
                    EdgeFormCaches.build(lap, 1.0, delay)
            delay = math.nextafter(delay, math.inf)
    assert verdicts == {True, False}


def test_effective_resistance_on_paths_is_distance():
    for n in (3, 5, 8):
        pinv = _lap_pinv(WeightedGraph.path(n))
        for u in range(n):
            for v in range(u + 1, n):
                r = edge_quadratic_forms(pinv, u, v)
                assert r == pytest.approx(v - u, abs=1e-10)


def test_effective_resistance_on_cycles():
    # Parallel arcs of k and n - k unit resistors: r = k (n - k) / n.
    for n in (4, 7, 10):
        pinv = _lap_pinv(WeightedGraph.cycle(n))
        for k in range(1, n):
            r = edge_quadratic_forms(pinv, 0, k)
            assert r == pytest.approx(k * (n - k) / n, abs=1e-10)


def test_resistance_scales_inversely_with_weight():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng)
    pinv, pinv_scaled = _lap_pinv(g), _lap_pinv(g.scaled(2.5))
    us, vs = np.array([(u, v) for u, v, _ in g.edges]).T
    r = edge_quadratic_forms(pinv, us, vs)
    assert edge_quadratic_forms(pinv_scaled, us, vs) == pytest.approx(r / 2.5)


def test_is_bridge_matches_dfs_oracle():
    rng = np.random.default_rng(77)
    graphs = [random_connected_graph(rng, max_nodes=9, extra_edge_prob=0.25) for _ in range(200)]
    # A tree with weights 12 decades apart: w * r_e misses 1 by up to 2e-5.
    graphs.append(WeightedGraph(4, ((0, 1, 2.12e-12), (0, 2, 4.54e-12), (2, 3, 0.769))))
    for g in graphs:
        expected = bridge_oracle(g)
        for u, v, _ in g.edges:
            assert is_bridge(g, (u, v)) == ((u, v) in expected)
    with pytest.raises(EdgeNotInGraph):
        is_bridge(graphs[-1], (1, 2))


def test_shift_matrix_positive_definite_iff_stable():
    g = WeightedGraph.complete(4)  # lambda_max = 4
    boundary = math.pi / 8.0
    # Helmert basis of the subspace orthogonal to the ones vector.
    helmert = output_matrix(OutputSpec.orthonormal(4)).T
    for tau, stable in ((0.9 * boundary, True), (1.1 * boundary, False)):
        shift = delay_shift_matrix(g.laplacian(), tau)
        centered_min = np.linalg.eigvalsh(helmert.T @ shift @ helmert)[0]
        assert (centered_min > 0.0) == stable


def test_shift_pinv_is_the_grounded_inverse_on_both_sides_of_the_boundary():
    # Below the threshold S⁺ is the grounded inverse of the shift operator,
    # up to just short of the boundary; past it the network is unstable, and
    # build refuses it.
    g = WeightedGraph.cycle(6)
    lap = g.laplacian()
    threshold = math.pi / (2.0 * eigendecompose(lap).lambda_max)
    ones = np.full((6, 6), 1.0 / 6.0)
    for factor in (0.5, 0.9, 0.99):
        tau = factor * threshold
        shift = delay_shift_matrix(lap, tau)
        grounded = np.linalg.inv(shift + ones) - ones
        caches = EdgeFormCaches.build(lap, centering_matrix(6), tau)
        err = np.abs(caches.shift_pinv - grounded).max() / np.abs(grounded).max()
        assert err <= 1e-12, (factor, err)
    for factor in (1.1, 2.0):
        with pytest.raises(UnstableNetwork):
            EdgeFormCaches.build(lap, centering_matrix(6), factor * threshold)


def _cache_outputs(n: int, rng: np.random.Generator | None = None) -> dict[str, OutputSpec]:
    """Every named kind, a wide custom C (fewer rows than nodes) and a tall one,
    drawn from rng or from a generator seeded with n."""
    rng = np.random.default_rng(n) if rng is None else rng
    named = [kind for kind in OutputKind if kind is not OutputKind.CUSTOM]
    outputs = {kind.value: OutputSpec(kind, n) for kind in named}
    for name, rows in (("custom-wide", max(1, n // 3)), ("custom-tall", 2 * n + 1)):
        raw = rng.standard_normal((rows, n))
        outputs[name] = OutputSpec.custom(raw - raw.mean(axis=1, keepdims=True))
    return outputs


# Largest relative difference, max |built - reference| / max |reference| per
# matrix, between EdgeFormCaches.build and the explicit P @ CᵀC @ P reference,
# the same bound as SEQUENCE_DRIFT_BOUND; the largest measured is 6.7e-14.
BUILD_REFERENCE_BOUND = 1e-10


@pytest.mark.parametrize("n", [2, 127, 128, 129])
def test_built_caches_match_the_explicit_reference(n):
    # Named kinds carry their gram as a scale and build each sandwich as one
    # symmetric product; custom outputs keep the dense gram. At 1.1 and 2
    # times the threshold the network is unstable, and build refuses it.
    rng = np.random.default_rng(100 + n)
    g = random_connected_graph(rng, min_nodes=n, max_nodes=n, extra_edge_prob=3.0 / n)
    lap = g.laplacian()
    for name, out in _cache_outputs(n).items():
        for fraction in (1.1, 2.0):
            with pytest.raises(UnstableNetwork):
                EdgeFormCaches.build(lap, out.gram(), stable_delay(g, fraction))
        for fraction in (0.5, 0.9, 0.99):
            delay = stable_delay(g, fraction)
            caches = EdgeFormCaches.build(lap, out.gram(), delay)
            assert isinstance(caches.output_gram, np.ndarray) == name.startswith("custom")
            reference = fresh_caches(g, out, delay)
            for ours, ref in zip(tracked_matrices(caches), tracked_matrices(reference)):
                drift = float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
                assert drift <= BUILD_REFERENCE_BOUND, (name, fraction, drift)
            fit = rho_approx(eigendecompose(lap), out, delay)
            assert rho_approx_from_caches(caches) == pytest.approx(fit, rel=1e-12, abs=0.0)
            # A rebuild from the caches' own fields, as the benchmark's drift
            # check makes, reproduces them exactly.
            rebuilt = EdgeFormCaches.build(caches.laplacian, caches.output_gram, caches.delay)
            for ours, again in zip(tracked_matrices(caches), tracked_matrices(rebuilt)):
                assert np.array_equal(ours, again), (name, fraction)


def test_from_graph_caches_match_the_explicit_reference_on_wide_weights():
    # The grounded factors give both operators' caches; on weights over six
    # decades they match the 40-digit reference for every output kind from
    # zero delay to near the threshold. (The float64 reference, two eigh of
    # the grounded operators, is itself 1.2e-10 off on one of these graphs.)
    rng = np.random.default_rng(37)
    for _ in range(12):
        g = spread_weights(rng, random_connected_graph(rng, max_nodes=24), 6.0)
        for name, out in _cache_outputs(g.node_count, rng).items():
            for fraction in (0.0, 0.5, 0.99):
                delay = stable_delay(g, fraction)
                caches = DesignState.from_graph(g, out, delay, audit=False).caches
                reference = reference_caches(g, out, delay)
                for ours, ref in zip(tracked_matrices(caches), tracked_matrices(reference)):
                    drift = float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
                    assert drift <= BUILD_REFERENCE_BOUND, (name, fraction, drift)


def _move_columns(caches: EdgeFormCaches, u: int, v: int) -> list:
    """P b and Y b of both operators' current matrices, b = e_u - e_v, as a
    move on (u, v) reads them: lap_pinv, lap_pinv_gram, shift_pinv and
    shift_pinv_gram, in that order."""
    return [c for pair in (caches._lap, caches._shift) for c in pair.columns(u, v)]


def _assert_reads_match_the_reference(caches, graph, out, delay, rng) -> None:
    """Every pair's five edge forms, the kept diagonals and six moves' columns
    match the 40-digit reference within BUILD_REFERENCE_BOUND; a column's
    difference is taken relative to its matrix's largest entry, as the
    bound's is."""
    reference = reference_caches(graph, out, delay)
    us, vs = np.triu_indices(graph.node_count, 1)
    for ours, ref in zip(_edge_forms(caches, us, vs), _edge_forms(reference, us, vs)):
        assert _relative_drift(ours, ref) <= BUILD_REFERENCE_BOUND
    for pair, ref in zip((caches._lap, caches._shift), (reference._lap, reference._shift)):
        assert _relative_drift(pair.diagonal, ref.diagonal) <= BUILD_REFERENCE_BOUND
    matrices = (reference.lap_pinv, reference.lap_pinv_gram)
    matrices += (reference.shift_pinv, reference.shift_pinv_gram)
    scales = [np.abs(matrix).max() for matrix in matrices]
    for pick in rng.choice(len(us), size=min(6, len(us)), replace=False):
        u, v = int(us[pick]), int(vs[pick])
        columns = zip(_move_columns(caches, u, v), _move_columns(reference, u, v), scales)
        for ours, ref, scale in columns:
            assert np.abs(ours - ref).max() <= BUILD_REFERENCE_BOUND * scale


@pytest.mark.parametrize("fraction", [0.0, 0.3, 0.9])
def test_spectral_reads_match_the_explicit_reference(fraction):
    # A named output's caches read their sandwiches from the two
    # pseudo-inverses, however many rows the reads gather, and across a fold,
    # which adds the pending terms to the pseudo-inverses only; a custom
    # output's hold the four matrices from the start. Either way the edge
    # forms, a move's columns and the kept diagonals match the 40-digit
    # reference before the first fold and after it, on graphs one in four of
    # whose weights span six decades. Reading the four matrices leaves each
    # operator's held matrices as they are, and the fold leaves each
    # operator's sandwich formed or unformed as it was, at zero delay too,
    # where the shifted operator takes no terms. (Against the float64
    # reference a column on a six-decade graph read 9.1e-11 of the bound's
    # 1e-10: the reference's own conditioning.)
    rng = np.random.default_rng(round(100 * fraction) + 71)
    for index in range(8):
        g = random_connected_graph(rng, min_nodes=5, max_nodes=20)
        if index % 4 == 0:
            g = spread_weights(rng, g, 6.0)
        delay = stable_delay(g, fraction)
        outputs = _cache_outputs(g.node_count, rng)
        del outputs["custom-tall"]
        for name, out in outputs.items():
            caches = DesignState.from_graph(g, out, delay, audit=False).caches
            assert sandwiches_formed(caches) == name.startswith("custom")
            graph = g
            for move in range(PENDING_TERM_CAP + 3):
                if move in (0, 1, PENDING_TERM_CAP - 1, PENDING_TERM_CAP + 2):
                    _assert_reads_match_the_reference(caches, graph, out, delay, rng)
                    held = held_matrices(caches)
                    tracked_matrices(caches)
                    assert holds(caches, held)
                if move == PENDING_TERM_CAP + 2:
                    break
                u, v, w = graph.edges[int(rng.integers(graph.edge_count))]
                factor = float(rng.uniform(0.01, 0.1))
                sherman_morrison_update(caches, (u, v), -factor * w)
                graph = graph.without_edge(u, v).with_edge(u, v, w - factor * w)
            assert sandwiches_formed(caches) == name.startswith("custom")


def test_reads_past_the_budget_leave_the_sandwiches_unformed():
    # Only a design run's plan (n² / BASE_READ_DIVISOR rows claimed) and a
    # fold form the sandwiches: reads that gather many times that many rows
    # of the pseudo-inverses, before and after a move, leave each operator's
    # held matrices as they are, claim nothing, and match the explicit
    # reference. So does copying the four matrices.
    rng = np.random.default_rng(83)
    g = random_connected_graph(rng, min_nodes=100, max_nodes=100)
    out = OutputSpec.centering(g.node_count)
    delay = stable_delay(g, 0.5)
    caches = DesignState.from_graph(g, out, delay, audit=False).caches
    held = held_matrices(caches)
    assert not sandwiches_formed(caches)
    tracked_matrices(caches)
    reference = fresh_caches(g, out, delay)
    us, vs = np.triu_indices(g.node_count, 1)
    assert PAIR_READ_ROWS * len(us) > 100 * 100 / BASE_READ_DIVISOR
    for ours, ref in zip(_edge_forms(caches, us, vs), _edge_forms(reference, us, vs)):
        assert _relative_drift(ours, ref) <= BUILD_REFERENCE_BOUND
    assert holds(caches, held)
    u, v = next((int(u), int(v)) for u, v in zip(us, vs) if not g.has_edge(u, v))
    sherman_morrison_update(caches, (u, v), 0.5)
    reference = fresh_caches(g.with_edge(u, v, 0.5), out, delay)
    for ours, ref in zip(_edge_forms(caches, us, vs), _edge_forms(reference, us, vs)):
        assert _relative_drift(ours, ref) <= BUILD_REFERENCE_BOUND
    assert holds(caches, held) and not sandwiches_formed(caches)
    assert caches._claimed == 0
    assert caches._lap.count == caches._shift.count == 1


def test_reading_every_pair_of_a_dense_graph_gathers_a_block_at_a_time():
    # An unformed sandwich's forms gather BLOCK_ROWS pairs' rows of
    # its pseudo-inverse at a time: the forms of all 19,900 pairs of
    # complete(200), which leave the sandwiches unformed as every read does, peak at the
    # five result arrays and a block's temporaries, about 1.5 MB, where whole
    # gathers would take three 19,900 x 200 arrays, about 95 MB.
    n = 200
    caches = DesignState.from_graph(
        WeightedGraph.complete(n), OutputSpec.centering(n), 0.001, audit=False
    ).caches
    us, vs = np.triu_indices(n, 1)
    tracemalloc.start()
    try:
        forms = _edge_forms(caches, us, vs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not sandwiches_formed(caches) and len(forms[0]) == len(us)
    assert peak < 4 * 2**20, peak


def test_forming_the_matrices_adds_only_the_two_sandwiches():
    # Forming, here by a plan that claims past n² / BASE_READ_DIVISOR rows,
    # keeps the two pseudo-inverses as they are and adds the two
    # sandwiches, one BLAS syrk each: past what it leaves, its peak holds
    # less than half an n x n array, and no copy of a pseudo-inverse.
    n = 200
    tracemalloc.start()
    try:
        caches = DesignState.from_graph(
            WeightedGraph.complete(n), OutputSpec.centering(n), 0.001, audit=False
        ).caches
        tracemalloc.reset_peak()
        caches._plan(1, n * n)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sandwiches_formed(caches)
    assert peak - current < 0.5 * n * n * 8, (peak - current) / (n * n * 8)


def test_spectrum_of_weights_nine_decades_apart_is_connected():
    spec = eigendecompose(WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1e-9))).laplacian())
    # lambda_2 = 1.5e-9 to first order in the small weight
    assert spec.lambda_2 == pytest.approx(1.5e-9, rel=1e-6)


def test_rank_one_update_matches_rebuild_add_and_remove():
    rng = np.random.default_rng(101)
    for _ in range(40):
        g = random_connected_graph(rng, min_nodes=4, max_nodes=9)
        delay = stable_delay(g, fraction=float(rng.uniform(0.0, 0.8)))
        out = OutputSpec.centering(g.node_count)
        caches = fresh_caches(g, out, delay)
        absent = [
            (u, v)
            for u in range(g.node_count)
            for v in range(u + 1, g.node_count)
            if not g.has_edge(u, v)
        ]
        if absent:
            u, v = absent[int(rng.integers(len(absent)))]
            w = float(rng.uniform(0.2, 1.0))
            sherman_morrison_update(caches, (u, v), w)
            g = g.with_edge(u, v, w)
            assert max_cache_drift(caches, fresh_caches(g, out, delay)) < 1e-9
        # partial removal on a random existing edge keeps connectivity
        u, v, w = g.edges[int(rng.integers(g.edge_count))]
        sherman_morrison_update(caches, (u, v), -0.5 * w)
        half = g.without_edge(u, v).with_edge(u, v, 0.5 * w)
        assert max_cache_drift(caches, fresh_caches(half, out, delay)) < 1e-9


def test_full_bridge_removal_is_singular():
    g = WeightedGraph.path(4)
    caches = fresh_caches(g, OutputSpec.centering(4), 0.1)
    with pytest.raises(SingularUpdate):
        sherman_morrison_update(caches, (1, 2), -1.0)


def test_zero_weight_change_is_identity():
    g = WeightedGraph.cycle(5)
    out = OutputSpec.centering(5)
    for tau in (0.0, 0.2):
        caches = fresh_caches(g, out, tau)
        before = [matrix.copy() for matrix in tracked_matrices(caches)]
        for edge in ((0, 1), (0, 2)):
            sherman_morrison_update(caches, edge, 0.0)
        for matrix, old in zip(tracked_matrices(caches), before):
            assert np.array_equal(matrix, old)


def test_update_rejects_bad_endpoints():
    caches = fresh_caches(WeightedGraph.cycle(4), OutputSpec.centering(4), 0.1)
    with pytest.raises(IndexOutOfRange):
        sherman_morrison_update(caches, (0, 4), 0.1)
    # A non-finite weight change is refused before any matrix is written.
    g = WeightedGraph.cycle(6)
    caches = fresh_caches(g, OutputSpec.centering(6), stable_delay(g, 0.4))
    before = [m.copy() for m in tracked_matrices(caches)]
    for dweight in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            sherman_morrison_update(caches, (0, 2), dweight)
        assert all(np.array_equal(a, b) for a, b in zip(before, tracked_matrices(caches)))


def test_twenty_update_composition_drift_stays_small():
    rng = np.random.default_rng(303)
    g = random_connected_graph(rng, min_nodes=8, max_nodes=12, extra_edge_prob=0.4)
    out = OutputSpec.centering(g.node_count)
    delay = stable_delay(g, fraction=0.2)
    caches = fresh_caches(g, out, delay)
    for _ in range(20):
        absent = [
            (u, v)
            for u in range(g.node_count)
            for v in range(u + 1, g.node_count)
            if not g.has_edge(u, v)
        ]
        add = bool(absent) and rng.random() < 0.6
        if add:
            u, v = absent[int(rng.integers(len(absent)))]
            w = float(rng.uniform(0.2, 1.5))
            sherman_morrison_update(caches, (u, v), w)
            g = g.with_edge(u, v, w)
        else:
            u, v, w = g.edges[int(rng.integers(g.edge_count))]
            dw = -0.5 * w
            sherman_morrison_update(caches, (u, v), dw)
            g = g.without_edge(u, v).with_edge(u, v, w + dw)
        # the inverse comparison needs the shifted operator to stay away
        # from singular; the all-ones kernel contributes the one zero
        shifted = np.sort(np.abs(np.linalg.eigvalsh(delay_shift_matrix(g.laplacian(), delay))))
        assert shifted[1] > 1e-6
    assert max_cache_drift(caches, fresh_caches(g, out, delay)) < 1e-6


def _caches_with_a_pending_term(g: WeightedGraph) -> EdgeFormCaches:
    """Caches at half the stability threshold, one reduction already pending."""
    caches = EdgeFormCaches.build(
        g.laplacian(), OutputSpec.centering(g.node_count).gram(), stable_delay(g, 0.5)
    )
    u, v, w = g.edges[0]
    sherman_morrison_update(caches, (u, v), -0.25 * w)
    return caches


def test_singular_update_leaves_every_cache_unchanged():
    # The Laplacian side passes and the shifted side reaches or passes the
    # stability bound: nothing may be written before the second test fails.
    # Past the bound the denominator is negative, not near zero: the network
    # would be unstable.
    cases = [
        (WeightedGraph.cycle(5), (0, 2), 1.0),
        (WeightedGraph.cycle(5), (0, 2), 2.0),
        (WeightedGraph.path(6), (0, 5), 2.0),
    ]
    for g, edge, factor in cases:
        caches = _caches_with_a_pending_term(g)
        q4 = float(edge_quadratic_forms(caches.shift_pinv, *edge))
        before = [m.copy() for m in tracked_matrices(caches)]
        pending = _pending_terms(caches)
        with pytest.raises(SingularUpdate):
            sherman_morrison_update(caches, edge, factor / (caches.delay * q4))
        assert all(np.array_equal(a, b) for a, b in zip(before, tracked_matrices(caches)))
        assert _same_pending_terms(pending, _pending_terms(caches))


def test_an_error_forming_either_term_leaves_every_cache_unchanged(monkeypatch):
    # Both operators' terms are formed before either is kept, so an error in
    # the second leaves the first operator's pending terms as they were too;
    # a floating-point error there is re-raised as SingularUpdate.
    caches = _caches_with_a_pending_term(WeightedGraph.cycle(5))
    lap = caches.laplacian.copy()
    pending = _pending_terms(caches)

    def overflow(*args):
        raise FloatingPointError("overflow")

    monkeypatch.setattr(caches._shift, "update_term", overflow)
    with pytest.raises(SingularUpdate, match="non-finite") as raised:
        sherman_morrison_update(caches, (0, 2), 0.3)
    assert isinstance(raised.value.__cause__, FloatingPointError)
    assert np.array_equal(caches.laplacian, lap)
    assert _same_pending_terms(pending, _pending_terms(caches))


def test_an_overflow_forming_the_terms_raises_singular_update_without_a_warning():
    # Additions at the drivers' cap, (1 - EPS_STABILITY) times the edge
    # stability bound, grow the shift's pseudo-inverse about 1e6-fold a move
    # until forming a term overflows (at move 26 here). The update raises
    # SingularUpdate, not a RuntimeWarning, and keeps the caches it had.
    g = WeightedGraph.path(12)
    state = DesignState.from_graph(g, OutputSpec.centering(12), stable_delay(g, 0.5))
    caches = state.caches

    def stored():
        # The matrices each operator holds: its pseudo-inverse, and its
        # sandwich once formed.
        held = [m for m in held_matrices(caches) if m is not None]
        return [caches.laplacian.copy()] + [np.copy(m) for m in held]

    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularUpdate, match="non-finite") as raised:
            for _ in range(30):
                edge = tuple(int(x) for x in rng.choice(12, 2, replace=False))
                weight = (1.0 - EPS_STABILITY) * edge_stability_bound(state, edge)
                before, pending = stored(), _pending_terms(caches)
                sherman_morrison_update(caches, edge, weight)
    assert isinstance(raised.value.__cause__, FloatingPointError)
    assert all(np.array_equal(a, b) for a, b in zip(before, stored()))
    assert _same_pending_terms(pending, _pending_terms(caches))


@pytest.mark.parametrize("seed", range(20))
def test_per_edge_reads_at_the_cache_collapse_are_finite_or_raise_singular_update(seed):
    # The run above: on 16 of these seeds the edge-form read overflowed at
    # move 26 before the update did, so edge_stability_bound warned and
    # edge_contribution returned inf. The read now raises SingularUpdate.
    g = WeightedGraph.path(12)
    state = DesignState.from_graph(g, OutputSpec.centering(12), stable_delay(g, 0.5))
    rng = np.random.default_rng(seed)
    with pytest.raises(SingularUpdate):
        for _ in range(30):
            edge = tuple(int(x) for x in rng.choice(12, 2, replace=False))
            bound = edge_stability_bound(state, edge)
            assert math.isfinite(bound)
            assert math.isfinite(edge_contribution(state, edge, 0.5 * bound))
            sherman_morrison_update(state.caches, edge, (1.0 - EPS_STABILITY) * bound)


def _output_spec(kind: OutputKind, n: int, rng: np.random.Generator) -> OutputSpec:
    if kind is OutputKind.CUSTOM:
        matrix = rng.standard_normal((max(2, n // 3), n))
        return OutputSpec.custom(matrix - matrix.mean(axis=1, keepdims=True))
    return OutputSpec(kind, n)


# Largest relative drift, max |updated - reference| / max |reference| per
# matrix, allowed after a move sequence; the largest measured is 1e-13. The
# edge forms at every sampled pair and the fit read from the caches are held
# to the same bound after every update.
SEQUENCE_DRIFT_BOUND = 1e-10

_MOVES = st.lists(
    st.tuples(
        st.sampled_from(("add", "reduce", "remove")),
        st.integers(0, 2**31 - 1),
        st.floats(0.05, 0.5),
    ),
    min_size=1,
    max_size=6,
)
# Weight reductions, always applicable, that carry a sequence past the fold.
# All of them on one edge leave at least 0.9^33 = 3 % of its weight, where
# the fresh reference's own conditioning is still far inside the bound.
_REDUCTIONS = st.lists(
    st.tuples(st.just("reduce"), st.integers(0, 2**31 - 1), st.floats(0.01, 0.1)),
    min_size=PENDING_TERM_CAP + 1,
    max_size=PENDING_TERM_CAP + 1,
)


def _relative_drift(ours: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))


def _pending_terms(caches: EdgeFormCaches) -> list:
    """Copies of both operators' pending terms, for exact comparison."""
    return [
        (pair.count, pair.terms[: pair.count].copy(), pair.alphas[: pair.count].copy(),
         pair.diagonal.copy())
        for pair in (caches._lap, caches._shift)
    ]


def _same_pending_terms(before: list, after: list) -> bool:
    return all(
        old[0] == new[0] and all(np.array_equal(a, b) for a, b in zip(old[1:], new[1:]))
        for old, new in zip(before, after)
    )


def _assert_tracks_fresh_caches(caches, graph, out, delay, us, vs) -> None:
    """The four matrices, the five edge forms at the pairs and the fit match a
    fresh rebuild within SEQUENCE_DRIFT_BOUND."""
    reference = fresh_caches(graph, out, delay)
    for ours, ref in zip(tracked_matrices(caches), tracked_matrices(reference)):
        assert _relative_drift(ours, ref) <= SEQUENCE_DRIFT_BOUND
    for ours, ref in zip(_edge_forms(caches, us, vs), _edge_forms(reference, us, vs)):
        assert _relative_drift(ours, ref) <= SEQUENCE_DRIFT_BOUND
    fit, fresh_fit = rho_approx_from_caches(caches), rho_approx_from_caches(reference)
    assert abs(fit - fresh_fit) <= SEQUENCE_DRIFT_BOUND * abs(fresh_fit)


# A long sequence opens with PENDING_TERM_CAP + 1 reductions, so its terms
# are folded once and pending again after; 127, 128 and 129 nodes make the
# last row block of that fold partial, exact and one row long. At 300 nodes,
# where every update is checked against a fresh rebuild, the sequences stay
# short and only pending terms are checked.
@pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
@settings(max_examples=15)
@given(
    output=st.sampled_from(sorted(_cache_outputs(2))),
    fraction=st.sampled_from((0.0, 0.4, 0.9)),
    seed=st.integers(0, 2**32 - 1),
    moves=_MOVES,
    long=st.booleans(),
    data=st.data(),
)
def test_update_sequences_track_the_eigh_reference_or_raise_singular(
    n, output, fraction, seed, moves, long, data
):
    rng = np.random.default_rng(seed)
    edges = {}
    for v in range(1, n):
        edges[(int(rng.integers(0, v)), v)] = float(rng.uniform(0.5, 2.0))
    for _ in range(n // 2):
        a, b = sorted(int(x) for x in rng.integers(0, n, size=2))
        if a != b:
            edges.setdefault((a, b), float(rng.uniform(0.5, 2.0)))
    g = WeightedGraph(n, tuple((u, v, w) for (u, v), w in edges.items()))
    out = _cache_outputs(n, rng)[output]
    delay = fraction * math.pi / (2.0 * np.linalg.eigvalsh(g.laplacian())[-1])
    caches = EdgeFormCaches.build(g.laplacian(), out.gram(), delay)
    if long and n < 300:
        moves = data.draw(_REDUCTIONS) + moves
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    sample = rng.choice(len(pairs), size=min(len(pairs), 200), replace=False)
    us, vs = np.array([pairs[i] for i in sample]).T
    for action, pick, factor in moves:
        if action == "add":
            u, v = sorted((pick % n, (pick // n) % n))
            if u == v or g.has_edge(u, v):
                continue
            bound = math.inf
            if delay > 0.0:
                bound = 1.0 / (delay * float(edge_quadratic_forms(caches.shift_pinv, u, v)))
            w = factor * min(bound, 4.0)
            sherman_morrison_update(caches, (u, v), w)
            g = g.with_edge(u, v, w)
        else:
            u, v, w = g.edges[pick % g.edge_count]
            if action == "reduce":
                sherman_morrison_update(caches, (u, v), -factor * w)
                g = g.without_edge(u, v).with_edge(u, v, w - factor * w)
            elif (u, v) in bridge_oracle(g):
                before = [m.copy() for m in tracked_matrices(caches)]
                pending = _pending_terms(caches)
                with pytest.raises(SingularUpdate):
                    sherman_morrison_update(caches, (u, v), -w)
                assert all(np.array_equal(a, b) for a, b in zip(before, tracked_matrices(caches)))
                assert _same_pending_terms(pending, _pending_terms(caches))
                continue
            else:
                sherman_morrison_update(caches, (u, v), -w)
                g = g.without_edge(u, v)
        _assert_tracks_fresh_caches(caches, g, out, delay, us, vs)


@pytest.mark.parametrize("kind", list(OutputKind))
def test_edge_quadratic_form_is_the_vector_form_on_every_output_gram(kind):
    # Named kinds cache their gram as the scale s, whose every form is 2 s.
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, min_nodes=6, max_nodes=6)
    out = _output_spec(kind, 6, rng)
    gram = EdgeFormCaches.build(g.laplacian(), out.gram(), stable_delay(g, 0.5)).output_gram
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    forms = [float(edge_quadratic_forms(gram, u, v)) for u, v in pairs]
    us, vs = np.array(pairs).T
    assert forms == [float(q) for q in edge_quadratic_forms(gram, us, vs)]
    c = output_matrix(out)
    for (u, v), form in zip(pairs, forms):
        assert form == pytest.approx(float(np.sum((c[:, u] - c[:, v]) ** 2)), rel=1e-12)
    if kind is not OutputKind.CUSTOM:
        assert forms == [2.0 * out.gram()] * len(pairs)
