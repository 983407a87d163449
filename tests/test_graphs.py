"""Graph container, spectral caches, and rank-one update fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdconsensus import (
    DisconnectedGraph,
    EdgeFormCaches,
    EdgeNotInGraph,
    IndexOutOfRange,
    OutputKind,
    OutputSpec,
    SingularUpdate,
    WeightedGraph,
    delay_shift_matrix,
    edge_quadratic_form,
    eigendecompose,
    is_bridge,
    pseudo_inverse,
    rho_approx,
    rho_approx_from_caches,
    sherman_morrison_update,
)
from conftest import (
    bridge_oracle,
    centering_matrix,
    fresh_caches,
    max_cache_drift,
    output_matrix,
    random_connected_graph,
    stable_delay,
    tracked_matrices,
)
from tdconsensus.graphs import edge_quadratic_forms


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
    assert edited.edge_keys() == fresh.edge_keys()


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
    assert WeightedGraph.path(4).edge_keys() == ((0, 1), (1, 2), (2, 3))
    assert WeightedGraph.cycle(4).edge_count == 4
    with pytest.raises(ValueError, match="three nodes"):
        WeightedGraph.cycle(2)
    assert WeightedGraph.star(4).edge_keys() == ((0, 1), (0, 2), (0, 3))
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


def test_delay_shift_matrix_equals_its_formula_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g = random_connected_graph(rng, max_nodes=25)
        lap = g.laplacian()
        for tau in (0.0, stable_delay(g, float(rng.uniform(0.1, 2.0)))):
            formula = (np.pi / 2) * centering_matrix(g.node_count) - tau * lap
            assert np.array_equal(delay_shift_matrix(lap, tau), formula)


def test_zero_delay_shift_matrix_is_the_same_on_every_graph():
    # (pi/2) * centering - 0 * L: every entry of the delay term is a signed
    # zero, so the operator, and so its caches, depend on the node count only.
    rng = np.random.default_rng(17)
    for n in (3, 7, 16):
        graphs = [WeightedGraph.path(n), WeightedGraph.complete(n, 3.5)]
        graphs += [random_connected_graph(rng, min_nodes=n, max_nodes=n) for _ in range(3)]
        shifts = [delay_shift_matrix(g.laplacian(), 0.0).tobytes() for g in graphs]
        assert len(set(shifts)) == 1


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


def test_complete_three_pseudo_inverse_is_centering_over_three():
    spec = eigendecompose(WeightedGraph.complete(3).laplacian())
    pinv = pseudo_inverse(spec)
    assert np.allclose(pinv, centering_matrix(3) / 3.0, atol=1e-13)


def test_pseudo_inverse_properties_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = random_connected_graph(rng)
        lap = g.laplacian()
        pinv = pseudo_inverse(eigendecompose(lap))
        center = centering_matrix(g.node_count)
        assert np.allclose(lap @ pinv, center, atol=1e-10)
        assert np.allclose(pinv @ np.ones(g.node_count), 0.0, atol=1e-10)


def test_disconnected_lambda_2_raises():
    spec = eigendecompose(np.zeros((3, 3)))
    with pytest.raises(DisconnectedGraph):
        spec.lambda_2


def test_pseudo_inverse_rejects_a_second_kernel_direction():
    # Two components, an edgeless graph, and a shift on the stability boundary
    # each have a second zero eigenvalue, which has no inverse.
    two_pairs = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))).laplacian()
    boundary = delay_shift_matrix(WeightedGraph.path(3).laplacian(), math.pi / 6.0)
    for matrix in (two_pairs, np.zeros((3, 3)), boundary):
        with pytest.raises(DisconnectedGraph):
            pseudo_inverse(eigendecompose(matrix))


def test_effective_resistance_on_paths_is_distance():
    for n in (3, 5, 8):
        pinv = pseudo_inverse(eigendecompose(WeightedGraph.path(n).laplacian()))
        for u in range(n):
            for v in range(u + 1, n):
                r = edge_quadratic_form(pinv, u, v)
                assert r == pytest.approx(v - u, abs=1e-10)


def test_effective_resistance_on_cycles():
    # Parallel arcs of k and n - k unit resistors: r = k (n - k) / n.
    for n in (4, 7, 10):
        pinv = pseudo_inverse(eigendecompose(WeightedGraph.cycle(n).laplacian()))
        for k in range(1, n):
            r = edge_quadratic_form(pinv, 0, k)
            assert r == pytest.approx(k * (n - k) / n, abs=1e-10)


def test_resistance_scales_inversely_with_weight():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng)
    pinv = pseudo_inverse(eigendecompose(g.laplacian()))
    pinv_scaled = pseudo_inverse(eigendecompose(g.scaled(2.5).laplacian()))
    for u, v, _ in g.edges:
        r = edge_quadratic_form(pinv, u, v)
        assert edge_quadratic_form(pinv_scaled, u, v) == pytest.approx(r / 2.5)


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


def test_delay_shift_matrix_definition():
    g = WeightedGraph.cycle(5)
    tau = 0.3
    lap = g.laplacian()
    shift = delay_shift_matrix(lap, tau)
    assert np.allclose(shift, (np.pi / 2) * centering_matrix(5) - tau * lap)


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
    # Past the threshold the shift operator has negative eigenvalues that sort
    # before its kernel eigenvalue, so the kernel must be found by its vector.
    g = WeightedGraph.cycle(6)
    lap = g.laplacian()
    threshold = math.pi / (2.0 * eigendecompose(lap).lambda_max)
    ones = np.full((6, 6), 1.0 / 6.0)
    for factor in (0.5, 1.1, 2.0):
        tau = factor * threshold
        shift = delay_shift_matrix(lap, tau)
        grounded = np.linalg.inv(shift + ones) - ones
        caches = EdgeFormCaches.build(lap, centering_matrix(6), tau)
        err = np.abs(caches.shift_pinv - grounded).max() / np.abs(grounded).max()
        assert err <= 1e-12, (factor, err)


def _cache_outputs(n: int) -> dict[str, OutputSpec]:
    """Every named kind, a wide custom C (fewer rows than nodes) and a tall one."""
    rng = np.random.default_rng(n)
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
    # times the threshold the shifted operator is indefinite.
    rng = np.random.default_rng(100 + n)
    g = random_connected_graph(rng, min_nodes=n, max_nodes=n, extra_edge_prob=3.0 / n)
    lap = g.laplacian()
    for name, out in _cache_outputs(n).items():
        for fraction in (0.5, 1.1, 2.0):
            delay = stable_delay(g, fraction)
            caches = EdgeFormCaches.build(lap, out.gram(), delay)
            assert isinstance(caches.output_gram, np.ndarray) == name.startswith("custom")
            reference = fresh_caches(g, out, delay)
            for ours, ref in zip(tracked_matrices(caches), tracked_matrices(reference)):
                drift = float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
                assert drift <= BUILD_REFERENCE_BOUND, (name, fraction, drift)
            if fraction < 1.0:
                fit = rho_approx(eigendecompose(lap), out, delay)
                assert rho_approx_from_caches(caches) == pytest.approx(fit, rel=1e-12, abs=0.0)
            # A rebuild from the caches' own fields, as the benchmark's drift
            # check makes, reproduces them exactly.
            rebuilt = EdgeFormCaches.build(caches.laplacian, caches.output_gram, caches.delay)
            for ours, again in zip(tracked_matrices(caches), tracked_matrices(rebuilt)):
                assert np.array_equal(ours, again), (name, fraction)


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


def test_singular_update_leaves_every_cache_unchanged():
    # The Laplacian side passes and the shifted side hits the stability
    # bound: nothing may be written before the second test fails.
    g = WeightedGraph.cycle(5)
    out = OutputSpec.centering(5)
    delay = stable_delay(g, 0.5)
    caches = fresh_caches(g, out, delay)
    q4 = edge_quadratic_form(caches.shift_pinv, 0, 2)
    before = [m.copy() for m in tracked_matrices(caches)]
    with pytest.raises(SingularUpdate):
        sherman_morrison_update(caches, (0, 2), 1.0 / (delay * q4))
    assert all(np.array_equal(a, b) for a, b in zip(before, tracked_matrices(caches)))


def _output_spec(kind: OutputKind, n: int, rng: np.random.Generator) -> OutputSpec:
    if kind is OutputKind.CUSTOM:
        matrix = rng.standard_normal((max(2, n // 3), n))
        return OutputSpec.custom(matrix - matrix.mean(axis=1, keepdims=True))
    return OutputSpec(kind, n)


# Largest relative drift, max |updated - reference| / max |reference| per
# matrix, allowed after a move sequence; the largest measured is 1e-13.
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


# 127, 128 and 129 nodes make the last row block of an update partial,
# exact and one row long; 300 nodes take three blocks.
@pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
@settings(max_examples=15)
@given(
    kind=st.sampled_from(list(OutputKind)),
    fraction=st.one_of(st.just(0.0), st.floats(0.01, 0.8)),
    seed=st.integers(0, 2**32 - 1),
    moves=_MOVES,
)
def test_update_sequences_track_the_eigh_reference_or_raise_singular(
    n, kind, fraction, seed, moves
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
    out = _output_spec(kind, n, rng)
    delay = fraction * math.pi / (2.0 * np.linalg.eigvalsh(g.laplacian())[-1])
    caches = EdgeFormCaches.build(g.laplacian(), out.gram(), delay)
    for action, pick, factor in moves:
        if action == "add":
            u, v = sorted((pick % n, (pick // n) % n))
            if u == v or g.has_edge(u, v):
                continue
            bound = math.inf
            if delay > 0.0:
                bound = 1.0 / (delay * edge_quadratic_form(caches.shift_pinv, u, v))
            w = factor * min(bound, 4.0)
            sherman_morrison_update(caches, (u, v), w)
            g = g.with_edge(u, v, w)
            continue
        u, v, w = g.edges[pick % g.edge_count]
        if action == "reduce":
            sherman_morrison_update(caches, (u, v), -factor * w)
            g = g.without_edge(u, v).with_edge(u, v, w - factor * w)
        elif (u, v) in bridge_oracle(g):
            before = [m.copy() for m in tracked_matrices(caches)]
            with pytest.raises(SingularUpdate):
                sherman_morrison_update(caches, (u, v), -w)
            assert all(np.array_equal(a, b) for a, b in zip(before, tracked_matrices(caches)))
        else:
            sherman_morrison_update(caches, (u, v), -w)
            g = g.without_edge(u, v)
    reference = fresh_caches(g, out, delay)
    for ours, ref in zip(tracked_matrices(caches), tracked_matrices(reference)):
        drift = float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
        assert drift <= SEQUENCE_DRIFT_BOUND


def test_edge_quadratic_form_rejects_bad_nodes():
    with pytest.raises(IndexOutOfRange):
        edge_quadratic_form(np.eye(3), 0, 3)


@pytest.mark.parametrize("kind", list(OutputKind))
def test_edge_quadratic_form_is_the_vector_form_on_every_output_gram(kind):
    # Named kinds cache their gram as the scale s, whose every form is 2 s.
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, min_nodes=6, max_nodes=6)
    out = _output_spec(kind, 6, rng)
    gram = EdgeFormCaches.build(g.laplacian(), out.gram(), stable_delay(g, 0.5)).output_gram
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    forms = [edge_quadratic_form(gram, u, v) for u, v in pairs]
    us, vs = np.array(pairs).T
    assert forms == [float(q) for q in edge_quadratic_forms(gram, us, vs)]
    if kind is not OutputKind.CUSTOM:
        assert forms == [2.0 * out.gram()] * len(pairs)
    with pytest.raises(ValueError):
        edge_quadratic_form(gram, 2, 2)
    with pytest.raises(IndexOutOfRange):
        edge_quadratic_form(gram, -1, 2)
