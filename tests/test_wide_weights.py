"""Weights spread over twelve decades, checked against a 40-digit oracle.

The oracle builds the Laplacian in mpmath from the same binary weights,
diagonalizes it with mpmath's Jacobi solver (no LAPACK), drops the
eigenvalue nearest zero and sums the modal terms of the exact measure and
of the closed-form fit in 40-digit arithmetic.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdconsensus import (
    FIT_OFFSET,
    FIT_SLOPE,
    CandidateSet,
    DesignState,
    OutputSpec,
    WeightedGraph,
    eigendecompose,
    grow_simple,
    performance_report,
    rho_approx,
)

EPS = float(np.finfo(float).eps)


@st.composite
def wide_weight_graphs(draw):
    """Random spanning tree plus extra edges, weights 10^U(-12, 0), n <= 9."""
    n = draw(st.integers(2, 9))
    exponent = st.floats(-12.0, 0.0)
    weights = {}
    for v in range(1, n):
        weights[(draw(st.integers(0, v - 1)), v)] = 10.0 ** draw(exponent)
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    for a, b in extra:
        key = (min(a, b), max(a, b))
        if a != b and key not in weights:
            weights[key] = 10.0 ** draw(exponent)
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in weights.items()))


def _oracle(graph: WeightedGraph, tau: float):
    """(exact measure, fit, nonzero eigenvalues ascending) at 40 digits."""
    with mpmath.workdps(40):
        n = graph.node_count
        lap = mpmath.zeros(n, n)
        for u, v, w in graph.edges:
            lap[u, u] += w
            lap[v, v] += w
            lap[u, v] -= w
            lap[v, u] -= w
        eigenvalues = mpmath.eigsy(lap, eigvals_only=True)
        lam = sorted(eigenvalues[i] for i in range(n))[1:]
        t = mpmath.mpf(tau)
        half_pi = mpmath.pi / 2
        exact = sum(mpmath.cos(x * t) / (1 - mpmath.sin(x * t)) / (2 * x) for x in lam)
        fit = t * sum(
            (1 / (x * t) + (4 / mpmath.pi) / (half_pi - x * t) + FIT_OFFSET + FIT_SLOPE * x * t) / 2
            for x in lam
        )
        return exact, fit, lam


@given(wide_weight_graphs(), st.floats(0.05, 0.95))
def test_exact_and_fit_match_a_40_digit_oracle(graph, fraction):
    n = graph.node_count
    out = OutputSpec.centering(n)
    tau = fraction * math.pi / (2.0 * eigendecompose(graph.laplacian()).lambda_max)
    exact, fit, lam = _oracle(graph, tau)
    lam_2, lam_max = float(lam[0]), float(lam[-1])
    # eigh perturbs every eigenvalue by up to n * eps * lambda_max. Carried
    # to the 1/lambda_2 term that is relative n * eps * lambda_max / lambda_2;
    # carried through the delay factor 1/(pi/2 - tau lambda_max) it is
    # n * eps / (1 - tau lambda_max / (pi/2)), which dominates on
    # well-conditioned graphs near the boundary.
    rel_tol = n * EPS * (lam_max / lam_2 + 1.0 / (1.0 - tau * lam_max / (math.pi / 2.0)))
    got_exact = performance_report(graph, out, tau).rho_exact
    got_fit = DesignState.from_graph(graph, out, tau, audit=False).rho_fit
    assert abs(got_exact - float(exact)) <= rel_tol * float(exact)
    assert abs(got_fit - float(fit)) <= rel_tol * float(fit)


# Seeded trees whose greedy moves remove nearly all of the fit: summed over
# the moves, the fit kept only about eight digits (off by 4.9e-9, 1.1e-8 and
# 3.4e-7); read from the caches it is within 4.3e-12 of a fresh fit.
@pytest.mark.parametrize("seed", [56, 243, 353])
def test_design_fit_after_six_decade_moves_matches_a_fresh_fit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 13))
    tree = {(int(rng.integers(0, v)), v): 10.0 ** rng.uniform(-6.0, 0.0) for v in range(1, n)}
    graph = WeightedGraph(n, tuple((u, v, w) for (u, v), w in tree.items()))
    c = rng.standard_normal((max(2, n // 3), n))
    out = OutputSpec.custom(c - c.mean(axis=1, keepdims=True))
    candidates = tuple(
        (u, v, 10.0 ** rng.uniform(-6.0, 0.0))
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in tree
    )
    tau = 0.4 * math.pi / (2.0 * eigendecompose(graph.laplacian()).lambda_max)
    state = DesignState.from_graph(graph, out, tau, audit=False)
    assert len(grow_simple(state, CandidateSet(candidates, 5)).entries) == 5
    fresh = rho_approx(eigendecompose(state.graph.laplacian()), out, tau)
    assert abs(state.rho_fit / fresh - 1.0) <= 1e-10
