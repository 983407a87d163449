"""Graph container, spectral caches, and rank-one update fidelity."""

import math

import numpy as np
import pytest

from tdconsensus import (
    DisconnectedGraph,
    EdgeNotInGraph,
    IndexOutOfRange,
    OutputSpec,
    SingularUpdate,
    WeightedGraph,
    centering_matrix,
    delay_shift_matrix,
    edge_quadratic_form,
    eigendecompose,
    is_bridge,
    pseudo_inverse,
    sherman_morrison_update,
)
from conftest import (
    bridge_oracle,
    fresh_caches,
    max_cache_drift,
    random_connected_graph,
    stable_delay,
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
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1, -0.5),))
    with pytest.raises(ValueError):
        WeightedGraph(0, ())


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


def test_named_families_and_degree():
    assert WeightedGraph.path(4).edge_keys() == ((0, 1), (1, 2), (2, 3))
    assert WeightedGraph.cycle(4).edge_count == 4
    assert WeightedGraph.star(4).edge_keys() == ((0, 1), (0, 2), (0, 3))
    assert WeightedGraph.complete(5).edge_count == 10
    assert WeightedGraph.star(5, weight=0.5).max_weighted_degree() == 2.0


def test_connectivity():
    assert WeightedGraph.path(6).is_connected()
    assert WeightedGraph(1, ()).is_connected()
    assert not WeightedGraph(3, ((0, 1, 1.0),)).is_connected()
    assert not WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0))).is_connected()


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
    assert spec.zero_count == 1
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
    for _ in range(200):
        g = random_connected_graph(rng, max_nodes=9, extra_edge_prob=0.25)
        pinv = pseudo_inverse(eigendecompose(g.laplacian()))
        expected = bridge_oracle(g)
        for u, v, _ in g.edges:
            assert is_bridge(g, pinv, (u, v)) == ((u, v) in expected)


def test_delay_shift_matrix_definition():
    g = WeightedGraph.cycle(5)
    tau = 0.3
    lap = g.laplacian()
    shift = delay_shift_matrix(lap, tau)
    assert np.allclose(shift, (np.pi / 2) * centering_matrix(5) - tau * lap)


def test_shift_matrix_positive_definite_iff_stable():
    g = WeightedGraph.complete(4)  # lambda_max = 4
    boundary = math.pi / 8.0
    for tau, stable in ((0.9 * boundary, True), (1.1 * boundary, False)):
        spec = eigendecompose(delay_shift_matrix(g.laplacian(), tau))
        centered_min = spec.eigenvalues[spec.zero_count]
        assert (centered_min > 0.0) == stable


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
    caches = fresh_caches(g, out, 0.2)
    before = caches.lap_pinv.copy()
    sherman_morrison_update(caches, (0, 1), 0.0)
    assert np.array_equal(caches.lap_pinv, before)


def test_update_rejects_bad_endpoints():
    caches = fresh_caches(WeightedGraph.cycle(4), OutputSpec.centering(4), 0.1)
    with pytest.raises(IndexOutOfRange):
        sherman_morrison_update(caches, (0, 4), 0.1)


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


def test_edge_quadratic_form_rejects_bad_nodes():
    with pytest.raises(IndexOutOfRange):
        edge_quadratic_form(np.eye(3), 0, 3)
