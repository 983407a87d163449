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
    grow_by_sensitivity,
    grow_random,
    grow_simple,
    make_output_spec,
    performance_report,
    sparsify,
)
from tdconsensus.graphs import _SpectralBase
from conftest import eigenvalues_of, random_connected_graph

KAPPA = 4.0
NAMED_KINDS = ("centering", "complete-incidence", "orthonormal")


def _instances(
    seed: int, count: int, nodes: tuple = (5, 24), candidates: int = 12, extra: float = 0.3
):
    """(graph, candidate entries, delay at 0.6 of the threshold): n in nodes,
    one graph in four with weights over six decades, up to `candidates`
    absent pairs; `extra` is the chance of each edge past a spanning tree."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        g = random_connected_graph(rng, *nodes, extra_edge_prob=extra)
        absent = [
            (u, v) for u in range(g.node_count) for v in range(u + 1, g.node_count)
            if not g.has_edge(u, v)
        ]
        picks = rng.permutation(len(absent))[:candidates]
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


def _runs(g, entries, tau, budget, kappa):
    """(driver, trace, state) of each of the four drivers, on the graph and
    the candidate weights times kappa at the delay over kappa. sparsify runs
    at 1.5 times the delay, 0.9 of the threshold, where removals help."""
    pairs = [(u, v) for u, v, _ in entries]
    scaled = CandidateSet(tuple((u, v, kappa * w) for u, v, w in entries), budget)
    drivers = {
        "simple": (1.0, lambda state: grow_simple(state, scaled)),
        "random": (1.0, lambda state: grow_random(state, scaled, seed=5)),
        "sensitivity": (1.0, lambda state: grow_by_sensitivity(state, pairs, budget)),
        "sparsify": (1.5, lambda state: sparsify(state, budget)),
    }
    out = make_output_spec("centering", g.node_count)
    for name, (factor, run) in drivers.items():
        state = DesignState.from_graph(g.scaled(kappa), out, factor * tau / kappa, audit=True)
        yield name, run(state), state


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
    # Every driver moves exactly: each weight by kappa, each fit change and
    # fit by 1/kappa, each sensitivity by 1/kappa². The 40 small instances
    # form their matrices at each run's start (their read budget, n²/40 rows,
    # is at most 14). At n = 140-160, budget-3 runs over 8 candidates stay
    # within it and read the eigenbasis throughout; sparsify scores every
    # edge, so there it forms the matrices at its start too.
    cases = [(instance, 5) for instance in _instances(seed=62, count=40)]
    large = _instances(seed=63, count=4, nodes=(140, 160), candidates=8, extra=0.01)
    cases += [(instance, 3) for instance in large]
    for (g, entries, tau), budget in cases:
        runs = zip(_runs(g, entries, tau, budget, 1.0), _runs(g, entries, tau, budget, KAPPA))
        for (name, trace, state), (_, scaled, scaled_state) in runs:
            if budget == 3 and name != "sparsify":
                assert isinstance(state.caches._base, _SpectralBase), name
                assert isinstance(scaled_state.caches._base, _SpectralBase), name
            assert scaled.termination == trace.termination
            assert [e.edge for e in scaled.entries] == [e.edge for e in trace.entries]
            for big, small in zip(scaled.entries, trace.entries):
                assert big.weight == small.weight * KAPPA
                assert big.contribution == small.contribution / KAPPA
                assert big.rho_fit == small.rho_fit / KAPPA
                assert big.rho_exact == small.rho_exact / KAPPA
                assert big.stability_margin == small.stability_margin * KAPPA
                if small.sensitivity is None:
                    assert big.sensitivity is None
                else:
                    assert big.sensitivity == small.sensitivity / KAPPA**2
