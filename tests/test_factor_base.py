"""The design caches' two routes: grounded Cholesky factors and one eigh.

EdgeFormCaches.build keeps the pseudo-inverses of the grounded factors when
their trace bounds certify the verdict an eigh of the Laplacian would give,
and reads them from that eigh otherwise (graphs._spectral_inverses). These
tests hold the two routes to the same matrices, the factor route to eigh's
verdicts at the stability threshold, and from_graph to about three n x n
arrays of memory.
"""

import math
import tracemalloc

import numpy as np
import pytest

from tdconsensus import (
    DesignState,
    EdgeFormCaches,
    OutputSpec,
    UnstableNetwork,
    check_stability,
    eigendecompose,
)
from tdconsensus.graphs import _factored_inverses, _spectral_inverses
from conftest import output_matrix, random_connected_graph, tracked_matrices
from test_graphs import BUILD_REFERENCE_BOUND

NAMED_KINDS = ("centering", "complete_incidence", "orthonormal")


def _outputs(n: int) -> list:
    outputs = [getattr(OutputSpec, kind)(n) for kind in NAMED_KINDS]
    return outputs + [OutputSpec.custom(output_matrix(outputs[0]))]


@pytest.mark.parametrize("n", [64, 150, 300])
def test_the_factor_and_eigh_routes_build_the_same_caches(n):
    # Both routes, for the four output kinds from zero delay to 0.99 of the
    # threshold, agree within the bound that holds the caches to the
    # explicit reference; the factor route certifies every one of these
    # delays, so it takes no eigh.
    rng = np.random.default_rng(n)
    g = random_connected_graph(rng, min_nodes=n, max_nodes=n, extra_edge_prob=4.0 / n)
    lap = g.laplacian()
    spectrum = eigendecompose(lap)
    for fraction in (0.0, 0.5, 0.99):
        delay = fraction * math.pi / (2.0 * spectrum.lambda_max)
        assert _factored_inverses(lap, delay) is not None, fraction
        for out in _outputs(n):
            factored = EdgeFormCaches.build(lap, out.gram(), delay)
            spectral = EdgeFormCaches(
                lap.copy(), delay, out.gram(), _spectral_inverses(eigendecompose(lap), delay)
            )
            for ours, ref in zip(tracked_matrices(factored), tracked_matrices(spectral)):
                drift = float(np.max(np.abs(ours - ref)) / np.max(np.abs(ref)))
                assert drift <= BUILD_REFERENCE_BOUND, (out.kind, fraction, drift)


@pytest.mark.parametrize("n", [128, 200])
def test_the_verdict_at_the_threshold_is_eighs(n):
    # At the nominal threshold, one ulp either side of it and (1 - 1e-13)
    # times it, from_graph is stable exactly when check_stability on an eigh
    # of the Laplacian says so: the trace bound cannot certify these delays,
    # so the caches take that eigh.
    rng = np.random.default_rng(n + 1)
    g = random_connected_graph(rng, min_nodes=n, max_nodes=n, extra_edge_prob=4.0 / n)
    spectrum = eigendecompose(g.laplacian())
    threshold = math.pi / (2.0 * spectrum.lambda_max)
    delays = [
        threshold,
        math.nextafter(threshold, 0.0),
        math.nextafter(threshold, math.inf),
        (1.0 - 1e-13) * threshold,
    ]
    out = OutputSpec.centering(n)
    for delay in delays:
        try:
            DesignState.from_graph(g, out, delay, audit=False)
            stable = True
        except UnstableNetwork:
            stable = False
        assert stable == check_stability(spectrum, delay).stable, delay
        assert _factored_inverses(g.laplacian(), delay) is None, delay


def test_from_graph_holds_about_three_square_arrays_at_its_peak():
    # The Laplacian, L⁺ and S⁺ are one n x n array each; the factors are
    # formed in place in the two pseudo-inverses' buffers, with temporaries
    # of a block of rows, so the peak stays within 3.5 n² floats.
    n = 400
    rng = np.random.default_rng(400)
    g = random_connected_graph(rng, min_nodes=n, max_nodes=n, extra_edge_prob=4.0 / n)
    out = OutputSpec.centering(n)
    delay = 0.5 * math.pi / (2.0 * eigendecompose(g.laplacian()).lambda_max)
    tracemalloc.start()
    try:
        state = DesignState.from_graph(g, out, delay, audit=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.rho_fit > 0.0
    assert peak <= 3.5 * n * n * 8, peak / (n * n * 8)
