"""Metamorphic relations: results that must move exactly as their inputs move.

Scale covariance: multiplying every weight by kappa and dividing the delay
by kappa leaves every product lambda * tau unchanged and divides each mode's
variance by kappa. For kappa a power of two every product and quotient
scales exactly, so the relation holds bit for bit, and nothing but the
package itself is needed to check it.

Output kinds: a named output's gram is s times the centering projector,
with s = n for complete incidence and 1 for orthonormal and centering. For
n a power of two every value the design caches give scales exactly by s,
so the greedy picks stay the same and each traced measure, fit change and
sensitivity scales by s, bit for bit.
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
from conftest import eigenvalues_of, random_connected_graph, sandwiches_formed

KAPPA = 4.0
NAMED_KINDS = ("centering", "complete-incidence", "orthonormal")


def _instances(
    seed: int,
    count: int,
    nodes: tuple = (5, 24),
    candidates: int = 12,
    extra: float = 0.3,
    fraction: float = 0.6,
):
    """(graph, candidate entries, delay at `fraction` of the threshold): n in
    nodes, one graph in four with weights over six decades, up to
    `candidates` absent pairs; `extra` is the chance of each edge past a
    spanning tree."""
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
        tau = fraction * math.pi / (2.0 * eigenvalues_of(g).lambda_max)
        yield g, entries, tau


def _runs(g, entries, tau, budget, kappa=1.0, kind="centering", sparsify_factor=1.5):
    """(driver, trace, state) of each of the four drivers on an output kind,
    on the graph and the candidate weights times kappa at the delay over
    kappa. sparsify runs at sparsify_factor times the delay (by default 0.9
    of the threshold for _instances' delay, where removals help), and
    grow_by_sensitivity, which needs a positive delay, only at one."""
    pairs = [(u, v) for u, v, _ in entries]
    scaled = CandidateSet(tuple((u, v, kappa * w) for u, v, w in entries), budget)
    drivers = {
        "simple": (1.0, lambda state: grow_simple(state, scaled)),
        "random": (1.0, lambda state: grow_random(state, scaled, seed=5)),
        "sensitivity": (1.0, lambda state: grow_by_sensitivity(state, pairs, budget)),
        "sparsify": (sparsify_factor, lambda state: sparsify(state, budget)),
    }
    if tau == 0.0:
        del drivers["sensitivity"]
    out = make_output_spec(kind, g.node_count)
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
    # fit by 1/kappa, each sensitivity by 1/kappa². The grounded factors keep
    # that: kappa is a power of four, so each square root in the Cholesky
    # factors scales exactly too. The 40 small instances form their matrices
    # at each run's start (their read budget, n²/10 rows, is at most 57). At
    # n = 140-160, budget-3 runs over 8 candidates stay within it and read
    # the two pseudo-inverses throughout; sparsify scores every edge, so
    # there it forms the matrices at its start too.
    cases = [(instance, 5) for instance in _instances(seed=62, count=40)]
    large = _instances(seed=63, count=4, nodes=(140, 160), candidates=8, extra=0.01)
    cases += [(instance, 3) for instance in large]
    for (g, entries, tau), budget in cases:
        runs = zip(_runs(g, entries, tau, budget), _runs(g, entries, tau, budget, KAPPA))
        for (name, trace, state), (_, scaled, scaled_state) in runs:
            if budget == 3 and name != "sparsify":
                assert not sandwiches_formed(state.caches), name
                assert not sandwiches_formed(scaled_state.caches), name
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


def test_each_named_output_scales_the_greedy_trace_by_its_gram():
    # At n = 8, 16 and 32, with the delay at 0, 0.4 and 0.9 of the threshold,
    # every driver picks the same moves for the three named outputs, and
    # complete incidence's fit changes, fits, exact measures and
    # sensitivities are exactly n times centering's; orthonormal's equal
    # centering's. The small instances form their matrices at each run's
    # start. At n = 256, budget-3 runs over 8 candidates read the two
    # pseudo-inverses throughout (sparsify scores every edge, so it forms
    # them at its start).
    cases = [
        (instance, 5)
        for n in (8, 16, 32)
        for fraction in (0.0, 0.4, 0.9)
        for instance in _instances(
            seed=64 + n + round(10 * fraction), count=4, nodes=(n, n), fraction=fraction
        )
    ]
    large = _instances(seed=65, count=1, nodes=(256, 256), candidates=8, extra=0.01, fraction=0.4)
    cases += [(instance, 3) for instance in large]
    for (g, entries, tau), budget in cases:
        n = g.node_count
        runs = zip(
            *(_runs(g, entries, tau, budget, kind=kind, sparsify_factor=1.0) for kind in NAMED_KINDS)
        )
        for (name, trace, state), (_, complete, complete_state), (_, ortho, _) in runs:
            if budget == 3 and name != "sparsify":
                assert not sandwiches_formed(state.caches), name
                assert not sandwiches_formed(complete_state.caches), name
            assert ortho == trace
            assert complete.termination == trace.termination
            assert [e.edge for e in complete.entries] == [e.edge for e in trace.entries]
            for big, small in zip(complete.entries, trace.entries):
                assert big.weight == small.weight
                assert big.contribution == small.contribution * n
                assert big.rho_fit == small.rho_fit * n
                assert big.rho_exact == small.rho_exact * n
                assert big.stability_margin == small.stability_margin
                if small.sensitivity is None:
                    assert big.sensitivity is None
                else:
                    assert big.sensitivity == small.sensitivity * n
