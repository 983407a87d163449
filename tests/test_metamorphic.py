"""Metamorphic relations: results that must move exactly as their inputs move.

Scale covariance: multiplying every weight by kappa and dividing the delay
by kappa leaves every product lambda * tau unchanged and divides each mode's
variance by kappa. For kappa a power of two every product and quotient
scales exactly, so the relation holds bit for bit, and nothing but the
package itself is needed to check it.
"""

import math

import numpy as np
import pytest

from tdconsensus import (
    CandidateSet,
    DesignState,
    WeightedGraph,
    grow_simple,
    make_output_spec,
    performance_report,
)
from conftest import eigenvalues_of, random_connected_graph

KAPPA = 4.0
NAMED_KINDS = ("centering", "complete-incidence", "orthonormal")


def _instances(seed: int, count: int):
    """(graph, candidate entries, delay at 0.6 of the threshold): n = 5-24,
    one graph in four with weights over six decades, up to 12 absent pairs."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        g = random_connected_graph(rng, min_nodes=5, max_nodes=24)
        absent = [
            (u, v) for u in range(g.node_count) for v in range(u + 1, g.node_count)
            if not g.has_edge(u, v)
        ]
        picks = rng.permutation(len(absent))[:12]
        weights = rng.uniform(0.2, 2.0, len(picks))
        if index % 4 == 3:
            wide = 10.0 ** rng.uniform(-6.0, 0.0, g.edge_count)
            g = WeightedGraph(
                g.node_count, tuple((u, v, float(w)) for (u, v, _), w in zip(g.edges, wide))
            )
            weights = 10.0 ** rng.uniform(-6.0, 0.0, len(picks))
        entries = tuple((*absent[i], float(w)) for i, w in zip(picks, weights))
        tau = 0.6 * math.pi / (2.0 * eigenvalues_of(g).lambda_max)
        yield g, entries, tau


def _scaled_entries(entries):
    return tuple((u, v, KAPPA * w) for u, v, w in entries)


@pytest.mark.parametrize("kind", NAMED_KINDS)
def test_scaling_weights_up_and_the_delay_down_divides_the_measure(kind):
    for g, _, tau in _instances(seed=61, count=40):
        out = make_output_spec(kind, g.node_count)
        report = performance_report(g, out, tau)
        scaled = performance_report(g.scaled(KAPPA), out, tau / KAPPA)
        assert scaled.rho_exact == report.rho_exact / KAPPA
        assert scaled.rho_approx == report.rho_approx / KAPPA
        assert scaled.stability_margin == report.stability_margin * KAPPA


def test_scaling_weights_up_and_the_delay_down_keeps_the_greedy_picks():
    for g, entries, tau in _instances(seed=62, count=40):
        out = make_output_spec("centering", g.node_count)
        trace = grow_simple(
            DesignState.from_graph(g, out, tau, audit=True), CandidateSet(entries, 5)
        )
        scaled = grow_simple(
            DesignState.from_graph(g.scaled(KAPPA), out, tau / KAPPA, audit=True),
            CandidateSet(_scaled_entries(entries), 5),
        )
        assert scaled.termination == trace.termination
        assert [e.edge for e in scaled.entries] == [e.edge for e in trace.entries]
        for big, small in zip(scaled.entries, trace.entries):
            assert big.weight == small.weight * KAPPA
            assert big.contribution == small.contribution / KAPPA
            assert big.rho_fit == small.rho_fit / KAPPA
            assert big.rho_exact == small.rho_exact / KAPPA
            assert big.stability_margin == small.stability_margin * KAPPA
