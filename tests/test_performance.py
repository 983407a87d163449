"""Exact measure, closed-form fit, limits, crossover, and sensitivities."""

import math

import numpy as np
import pytest

from tdconsensus import (
    FIT_SLOPE,
    DisconnectedGraph,
    DomainError,
    InvalidOutputMatrix,
    OutputSpec,
    UnstableNetwork,
    WeightedGraph,
    check_stability,
    cosine_fixed_point,
    crossover_delay,
    delay_sweep,
    edge_quadratic_form,
    eigendecompose,
    hard_limit,
    make_output_spec,
    mode_variance,
    mode_variance_fit,
    mode_variance_quadrature,
    monotonicity_threshold,
    performance_report,
    rho_approx,
    rho_approx_from_caches,
    rho_exact,
    sensitivity,
)
from tdconsensus.performance import require_stable, sensitivities
from conftest import (
    centering_matrix,
    exact_measure,
    fresh_caches,
    output_matrix,
    random_connected_graph,
    spectrum_of,
    stable_delay,
)


# --- fixed point and mode variance ---


def test_cosine_fixed_point_value_and_residual():
    z = cosine_fixed_point()
    assert 0.7390851 < z < 0.7390852
    assert abs(math.cos(z) - z) <= 1e-12


def test_cosine_fixed_point_is_correctly_rounded():
    z = cosine_fixed_point()
    assert z == 0.7390851332151607
    assert math.cos(z) == z
    for neighbour in (math.nextafter(z, 0.0), math.nextafter(z, 1.0)):
        assert abs(math.cos(neighbour) - neighbour) > 0.0


def test_mode_variance_zero_delay():
    for lam in (0.3, 1.0, 7.5):
        assert mode_variance(lam, 0.0) == pytest.approx(1.0 / (2.0 * lam), rel=1e-15)


def test_mode_variance_closed_form_against_naive():
    rng = np.random.default_rng(1)
    for _ in range(200):
        lam = float(rng.uniform(0.1, 5.0))
        x = float(rng.uniform(0.0, 0.9) * math.pi / 2.0)
        delay = x / lam
        naive = math.cos(x) / (2.0 * lam * (1.0 - math.sin(x)))
        assert mode_variance(lam, delay) == pytest.approx(naive, rel=1e-12)


def test_mode_variance_at_fixed_point_argument():
    # At lam * delay = z with cos z = z the variance is delay / (2 (1 - sin z)).
    z = cosine_fixed_point()
    for delay in (0.05, 0.3, 1.0):
        lam = z / delay
        expected = delay / (2.0 * (1.0 - math.sin(z)))
        assert mode_variance(lam, delay) == pytest.approx(expected, rel=1e-12)


def test_mode_variance_domain_errors():
    with pytest.raises(DomainError):
        mode_variance(0.0, 0.1)
    with pytest.raises(DomainError):
        mode_variance(-1.0, 0.1)
    with pytest.raises(DomainError):
        mode_variance(1.0, -0.1)
    with pytest.raises(DomainError):
        mode_variance(1.0, math.pi / 2.0)  # boundary is unstable
    with pytest.raises(DomainError):
        mode_variance_fit(1.0, 0.0)
    for lam, delay in ((1.0, math.pi / 2.0), (2.0, 1.0)):
        with pytest.raises(DomainError, match="unstable"):
            mode_variance_fit(lam, delay)


def test_mode_variance_finite_extremely_close_to_boundary():
    # 1 - sin(x) underflows here in naive form; the cotangent form survives.
    lam = 1.0
    delay = (1.0 - 1e-12) * math.pi / 2.0
    value = mode_variance(lam, delay)
    assert math.isfinite(value) and value > 1e10


def test_fit_gap_band_on_a_mode_sweep():
    # The fit sits below the exact variance by at most 2e-4 relative.
    xs = np.linspace(1e-3, math.pi / 2.0 - 1e-3, 2000)
    for lam in (0.5, 1.0, 3.0):
        for x in xs[:: len(xs) // 200]:
            delay = float(x) / lam
            exact = mode_variance(lam, delay)
            fit = mode_variance_fit(lam, delay)
            gap = (exact - fit) / exact
            assert 0.0 <= gap <= 2e-4


# --- stability ---


def test_check_stability_threshold_and_margin():
    spec = spectrum_of(WeightedGraph.complete(3))  # lambda_max = 3
    boundary = math.pi / 6.0
    assert check_stability(spec, 0.0).stable
    assert check_stability(spec, 0.0).margin == math.inf
    assert check_stability(spec, 0.99 * boundary).stable
    result = check_stability(spec, boundary)
    assert not result.stable  # the boundary itself diverges
    assert result.margin == pytest.approx(0.0, abs=1e-12)
    assert check_stability(spec, 0.5).margin == pytest.approx(math.pi - 3.0)
    with pytest.raises(DomainError):
        check_stability(spec, -0.1)


# --- exact measure ---


def test_rho_exact_path_three_is_the_mode_sum():
    g = WeightedGraph.path(3)
    out = OutputSpec.centering(3)
    tau = 0.2
    expected = mode_variance(1.0, tau) + mode_variance(3.0, tau)
    assert rho_exact(spectrum_of(g), out, tau) == pytest.approx(expected, rel=1e-13)


def test_rho_exact_complete_three_zero_delay():
    g = WeightedGraph.complete(3)
    spec = spectrum_of(g)
    assert rho_exact(spec, OutputSpec.centering(3), 0.0) == pytest.approx(1.0 / 3.0)
    assert rho_exact(spec, OutputSpec.complete_incidence(3), 0.0) == pytest.approx(1.0)


def test_complete_incidence_is_node_count_times_centering():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(rng)
        tau = stable_delay(g, 0.5)
        n = g.node_count
        a = exact_measure(g, OutputSpec.complete_incidence(n), tau)
        b = exact_measure(g, OutputSpec.centering(n), tau)
        assert a == pytest.approx(n * b, rel=1e-12)


def test_orthonormal_output_matches_centering_measure():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_connected_graph(rng)
        tau = stable_delay(g, 0.4)
        n = g.node_count
        a = exact_measure(g, OutputSpec.orthonormal(n), tau)
        b = exact_measure(g, OutputSpec.centering(n), tau)
        assert a == pytest.approx(b, rel=1e-12)


def test_rho_exact_raises_when_unstable():
    spec = spectrum_of(WeightedGraph.complete(3))
    with pytest.raises(UnstableNetwork):
        rho_exact(spec, OutputSpec.centering(3), math.pi / 6.0)


def test_rho_exact_rejects_disconnected_spectrum():
    g = WeightedGraph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(DisconnectedGraph):
        rho_exact(spectrum_of(g), OutputSpec.centering(4), 0.0)
    # Two random components: the second kernel eigenvalue comes out of eigh
    # with either sign, so a sign test alone would let most of these through.
    rng = np.random.default_rng(17)
    for _ in range(40):
        a, b = random_connected_graph(rng), random_connected_graph(rng)
        shifted = tuple((u + a.node_count, v + a.node_count, w) for u, v, w in b.edges)
        g = WeightedGraph(a.node_count + b.node_count, a.edges + shifted)
        with pytest.raises(DisconnectedGraph):
            rho_exact(spectrum_of(g), OutputSpec.centering(g.node_count), 0.0)


def test_report_on_weights_nine_decades_apart():
    # A connected path whose second eigenvalue (1.5e-9) sits below any
    # relative zero threshold of 1e-9; rho is dominated by 1/(2 lambda_2).
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1e-9)))
    report = performance_report(g, OutputSpec.centering(3), 0.1)
    assert report.rho_exact == pytest.approx(3.3333e8, rel=1e-4)
    assert report.rho_approx == pytest.approx(report.rho_exact, rel=2e-4)


def test_rho_increases_with_delay():
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = random_connected_graph(rng)
        spec = spectrum_of(g)
        out = OutputSpec.centering(g.node_count)
        tau_hi = math.pi / (2.0 * spec.lambda_max)
        taus = np.linspace(0.0, 0.98 * tau_hi, 12)
        values = [rho_exact(spec, out, float(t)) for t in taus]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_custom_output_matches_explicit_modal_sum():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, min_nodes=5, max_nodes=5)
    raw = rng.normal(size=(3, 5))
    c = raw - raw.mean(axis=1, keepdims=True)
    out = OutputSpec.custom(c)
    tau = stable_delay(g, 0.5)
    spec = spectrum_of(g)
    # Skip the eigenpair most aligned with the ones vector, the consensus mode.
    kernel = int(np.argmax(np.abs(spec.vectors.sum(axis=0))))
    total = 0.0
    for i, (lam, q) in enumerate(zip(spec.eigenvalues, spec.vectors.T)):
        if i == kernel:
            continue
        total += float((c @ q) @ (c @ q)) * mode_variance(float(lam), tau)
    assert rho_exact(spec, out, tau) == pytest.approx(total, rel=1e-12)


# --- fit: eigen-sum and trace forms ---


def test_fit_gap_band_on_whole_graphs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_connected_graph(rng)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, float(rng.uniform(0.05, 0.98)))
        spec = spectrum_of(g)
        exact = rho_exact(spec, out, tau)
        fit = rho_approx(spec, out, tau)
        gap = (exact - fit) / exact
        assert 0.0 <= gap <= 2e-4


def test_trace_form_equals_eigen_sum():
    rng = np.random.default_rng(8)
    for kind in ("centering", "complete-incidence", "orthonormal"):
        for _ in range(15):
            g = random_connected_graph(rng)
            out = make_output_spec(kind, g.node_count)
            tau = stable_delay(g, float(rng.uniform(0.1, 0.9)))
            via_sum = rho_approx(spectrum_of(g), out, tau)
            via_trace = rho_approx_from_caches(fresh_caches(g, out, tau))
            assert via_trace == pytest.approx(via_sum, rel=1e-10)


def test_trace_form_at_zero_delay_is_exact_measure():
    g = WeightedGraph.cycle(6)
    out = OutputSpec.centering(6)
    caches = fresh_caches(g, out, 0.0)
    assert rho_approx_from_caches(caches) == pytest.approx(
        rho_exact(spectrum_of(g), out, 0.0), rel=1e-12
    )


def test_rho_approx_domain_and_stability_errors():
    spec = spectrum_of(WeightedGraph.complete(3))
    out = OutputSpec.centering(3)
    with pytest.raises(DomainError):
        rho_approx(spec, out, 0.0)
    with pytest.raises(UnstableNetwork):
        rho_approx(spec, out, 0.6)


def test_mode_variance_is_convex_in_the_delay_argument():
    # Midpoint convexity of the profile over (0, pi/2) on a fine grid.
    xs = np.linspace(1e-4, math.pi / 2.0 - 1e-4, 1000)
    values = np.array([mode_variance(1.0, float(x)) for x in xs])
    assert np.all(values[1:-1] <= 0.5 * (values[:-2] + values[2:]) + 1e-12)


# --- hard limit ---


def test_hard_limit_closed_form():
    z = cosine_fixed_point()
    for n, tau in ((5, 0.02), (40, 0.1)):
        out = OutputSpec.centering(n)
        limit = hard_limit(n, out, tau)
        assert limit.value == pytest.approx(
            tau * (n - 1) / (2.0 * (1.0 - math.sin(z))), rel=1e-12
        )
        assert limit.optimal_uniform_weight == pytest.approx(z / (n * tau), rel=1e-12)


def test_hard_limit_attained_by_tuned_complete_graph():
    z = cosine_fixed_point()
    for n in (5, 20, 100):
        for tau in (0.01, 0.1):
            out = OutputSpec.centering(n)
            g = WeightedGraph.complete(n, weight=z / (n * tau))
            rho = exact_measure(g, out, tau)
            limit = hard_limit(n, out, tau).value
            assert rho >= limit * (1.0 - 1e-9)
            assert rho == pytest.approx(limit, rel=1e-9)


def test_hard_limit_is_a_true_lower_bound_on_random_graphs():
    rng = np.random.default_rng(9)
    for _ in range(50):
        g = random_connected_graph(rng)
        out = OutputSpec.centering(g.node_count)
        tau = stable_delay(g, float(rng.uniform(0.1, 0.95)))
        assert exact_measure(g, out, tau) >= hard_limit(g.node_count, out, tau).value


def test_hard_limit_domain_errors():
    out = OutputSpec.centering(4)
    with pytest.raises(DomainError):
        hard_limit(4, out, 0.0)
    with pytest.raises(DomainError):
        hard_limit(1, OutputSpec.centering(1), 0.1)


# --- monotonicity threshold ---


def test_monotonicity_threshold_value():
    assert monotonicity_threshold(4.0) == pytest.approx(0.09238564165, rel=1e-9)
    with pytest.raises(DomainError):
        monotonicity_threshold(0.0)


def test_below_threshold_any_addition_helps():
    rng = np.random.default_rng(10)
    for _ in range(25):
        g = random_connected_graph(rng, max_nodes=7)
        n = g.node_count
        out = OutputSpec.centering(n)
        absent = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not absent:
            continue
        u, v = absent[int(rng.integers(len(absent)))]
        w = float(rng.uniform(0.2, 1.0))
        grown = g.with_edge(u, v, w)
        tau = 0.99 * monotonicity_threshold(grown.max_weighted_degree())
        assert exact_measure(grown, out, tau) < exact_measure(g, out, tau)


# --- crossover ---


def test_crossover_path_five_versus_star_five():
    p5 = WeightedGraph.path(5)
    s5 = WeightedGraph.star(5)
    out = OutputSpec.centering(5)
    result = crossover_delay(s5, p5, out)
    assert result is not None
    assert result.tau_star == pytest.approx(0.26839504, abs=1e-6)
    assert result.difference_low <= 0.0 < result.difference_high
    assert result.bracket_low <= result.tau_star <= result.bracket_high
    # the star has the larger lambda_max, so a certified window exists and
    # the crossover sits at or left of it
    assert result.certified_dominance is not None
    lo, hi = result.certified_dominance
    assert result.tau_star <= lo < hi
    assert hi == pytest.approx(math.pi / 10.0, rel=1e-12)
    # inside the certified window the path strictly wins
    spec_s, spec_p = spectrum_of(s5), spectrum_of(p5)
    for tau in np.linspace(lo, hi, 20, endpoint=False):
        assert rho_exact(spec_s, out, float(tau)) > rho_exact(spec_p, out, float(tau))


def test_crossover_none_for_identical_graphs():
    g = WeightedGraph.cycle(6)
    assert crossover_delay(g, g, OutputSpec.centering(6)) is None


def test_crossover_none_when_second_always_wins():
    # the complete graph at weight 0.8 beats the star at every delay in the
    # common window: better harmonic sum at zero, and its modes stay well
    # inside the stable region while the star's top mode diverges.
    a = WeightedGraph.star(4)
    b = WeightedGraph.complete(4, weight=0.8)
    assert crossover_delay(a, b, OutputSpec.centering(4)) is None


def test_crossover_none_when_second_never_overtakes():
    # the light complete graph wins at zero delay and keeps winning: the
    # star (second) diverges at the top of the common window.
    a = WeightedGraph.complete(4, weight=0.9)
    b = WeightedGraph.star(4)
    assert crossover_delay(a, b, OutputSpec.centering(4)) is None


def test_crossover_no_certificate_when_lambda_max_is_an_ulp_apart():
    # pi / (2 lambda_a) * lambda_b rounds onto pi/2 although lambda_b < lambda_a,
    # so the second graph has no stable point at the first one's boundary.
    w = 2.9518429995030964
    a = WeightedGraph(2, ((0, 1, w),))
    b = WeightedGraph(2, ((0, 1, float(np.nextafter(w, 0.0))),))
    lam_a, lam_b = spectrum_of(a).lambda_max, spectrum_of(b).lambda_max
    assert lam_b < lam_a and (math.pi / (2.0 * lam_a)) * lam_b >= math.pi / 2.0
    result = crossover_delay(a, b, OutputSpec.centering(2))
    assert result is None or result.certified_dominance is None


def test_crossover_none_for_weights_one_ulp_apart():
    # The two spectra differ by one ulp: every grid difference is within the
    # modal sums' rounding bound, so none is negative and nothing crosses.
    w = 2.9518429995030964
    a = WeightedGraph(2, ((0, 1, w),))
    b = WeightedGraph(2, ((0, 1, float(np.nextafter(w, 0.0))),))
    assert crossover_delay(a, b, OutputSpec.centering(2)) is None


def test_crossover_with_lambda_max_an_ulp_apart_keeps_no_certificate():
    # The one-ulp pair above no longer crosses, so this pair reaches the
    # certificate test instead: the second graph's lambda_max is one ulp
    # below the first's and rounds onto the boundary, and the well-connected
    # triangle loses only within 1e-8 of the common stability boundary.
    a = WeightedGraph(3, ((0, 1, 1.0), (0, 2, 0.7079146855055481), (1, 2, 0.8547846749285817)))
    b = WeightedGraph(3, ((0, 1, 1.3823842884719133), (1, 2, 0.09653693468416842)))
    lam_a, lam_b = spectrum_of(a).lambda_max, spectrum_of(b).lambda_max
    assert lam_b < lam_a and (math.pi / (2.0 * lam_a)) * lam_b >= math.pi / 2.0
    result = crossover_delay(a, b, OutputSpec.centering(3))
    assert result is not None and result.certified_dominance is None
    assert result.difference_low < 0.0 < result.difference_high
    assert 1.0 - 1e-8 < result.tau_star * 2.0 * lam_a / math.pi < 1.0


def test_crossover_input_validation():
    out = OutputSpec.centering(4)
    with pytest.raises(ValueError):
        crossover_delay(WeightedGraph.path(4), WeightedGraph.path(5), out)
    with pytest.raises(DisconnectedGraph):
        crossover_delay(WeightedGraph(4, ((0, 1, 1.0),)), WeightedGraph.path(4), out)
    p4, c4 = WeightedGraph.path(4), WeightedGraph.cycle(4)
    for samples in (1, 2.5, 10.0, "10"):
        with pytest.raises(ValueError, match="samples"):
            crossover_delay(p4, c4, out, samples=samples)
    assert crossover_delay(p4, c4, out, samples=np.int64(10)) == crossover_delay(
        p4, c4, out, samples=10
    )


def test_delay_sweep_rows_are_rho_exact_on_the_common_stable_grid():
    out = OutputSpec.centering(5)
    s5, p5 = WeightedGraph.star(5), WeightedGraph.path(5)
    single = delay_sweep([p5], out, samples=30)
    assert single.crossover is None and len(single.rho) == 1
    assert list(single.rho[0]) == [rho_exact(spectrum_of(p5), out, t) for t in single.taus]
    pair = delay_sweep([s5, p5], out, samples=30)
    threshold = math.pi / (2.0 * spectrum_of(s5).lambda_max)  # the star's is the larger
    assert pair.taus[0] == 1e-4 * threshold and pair.taus[-1] == (1.0 - 1e-9) * threshold
    for graph, rho in zip((s5, p5), pair.rho):
        assert list(rho) == [rho_exact(spectrum_of(graph), out, t) for t in pair.taus]
    assert pair.crossover is not None
    assert pair.crossover == crossover_delay(s5, p5, out, samples=30)
    for graphs in ([], [p5, p5, p5]):
        with pytest.raises(ValueError):
            delay_sweep(graphs, out)


# --- sensitivity ---


def test_sensitivity_matches_central_difference():
    rng = np.random.default_rng(12)
    step = 1e-6
    for _ in range(50):
        g = random_connected_graph(rng, max_nodes=8)
        n = g.node_count
        out = OutputSpec.centering(n)
        tau = stable_delay(g, float(rng.uniform(0.1, 0.7)))
        caches = fresh_caches(g, out, tau)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        u, v = pairs[int(rng.integers(len(pairs)))]
        base_w = g.weight(u, v) if g.has_edge(u, v) else 0.0

        def fit_at(w: float) -> float:
            h = g.without_edge(u, v) if g.has_edge(u, v) else g
            h = h.with_edge(u, v, w) if w > 0.0 else h
            return rho_approx(spectrum_of(h), out, tau)

        numeric = (fit_at(base_w + step) - fit_at(base_w + step / 2.0)) / (step / 2.0)
        # one-sided at w = 0 (weights must stay positive); recenter otherwise
        if base_w > 0.0:
            numeric = (fit_at(base_w + step) - fit_at(base_w - step)) / (2.0 * step)
        assert sensitivity(caches, (u, v)) == pytest.approx(numeric, abs=1e-4, rel=1e-4)


def test_sensitivity_zero_delay_is_exact_derivative():
    g = WeightedGraph.path(4)
    out = OutputSpec.centering(4)
    caches = fresh_caches(g, out, 0.0)
    step = 1e-6
    u, v = 0, 2
    low = exact_measure(g.with_edge(u, v, step), out, 0.0)
    base = exact_measure(g, out, 0.0)
    assert sensitivity(caches, (u, v)) == pytest.approx((low - base) / step, abs=1e-5)


def _sensitivity_loop(caches, u: int, v: int) -> float:
    """Per-pair reference for the vectorized form, in scalar arithmetic."""
    tau = caches.delay
    q_lap_gram = edge_quadratic_form(caches.lap_pinv_gram, u, v)
    if tau == 0.0:
        return -0.5 * q_lap_gram
    return (
        0.5 * FIT_SLOPE * tau * tau * edge_quadratic_form(caches.output_gram, u, v)
        - 0.5 * q_lap_gram
        + (2.0 * tau * tau / math.pi) * edge_quadratic_form(caches.shift_pinv_gram, u, v)
    )


def test_sensitivities_equal_the_per_pair_loop():
    rng = np.random.default_rng(44)
    g = random_connected_graph(rng, min_nodes=6, max_nodes=6, extra_edge_prob=0.4)
    out = OutputSpec.complete_incidence(6)
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    us = np.array([u for u, _ in pairs])
    vs = np.array([v for _, v in pairs])
    for tau in (0.0, stable_delay(g, 0.6)):
        caches = fresh_caches(g, out, tau)
        reference = [_sensitivity_loop(caches, u, v) for u, v in pairs]
        assert [float(s) for s in sensitivities(caches, us, vs)] == reference
        assert [sensitivity(caches, pair) for pair in pairs] == reference


def test_require_stable_returns_the_check_or_raises():
    spectrum = spectrum_of(WeightedGraph.path(4))
    threshold = math.pi / (2.0 * spectrum.lambda_max)
    assert require_stable(spectrum, 0.5 * threshold) == check_stability(spectrum, 0.5 * threshold)
    with pytest.raises(UnstableNetwork, match="exceeds the stability threshold"):
        require_stable(spectrum, threshold)


# --- quadrature ---


def test_quadrature_matches_closed_form():
    for lam in (0.4, 1.0, 2.7):
        for frac in (0.0, 0.2, 0.6, 0.9, 0.99):
            delay = frac * math.pi / (2.0 * lam)
            got = mode_variance_quadrature(lam, delay)
            want = mode_variance(lam, delay)
            assert got == pytest.approx(want, rel=1e-6)


def test_quadrature_rejects_unstable_mode():
    with pytest.raises(DomainError):
        mode_variance_quadrature(1.0, math.pi / 2.0)


# --- output specs ---


def test_orthonormal_rows_are_orthonormal_and_centered():
    for n in (3, 6, 11):
        c = output_matrix(OutputSpec.orthonormal(n))
        assert c.shape == (n - 1, n)
        assert np.allclose(c @ np.ones(n), 0.0, atol=1e-12)
        assert np.allclose(c @ c.T, np.eye(n - 1), atol=1e-12)


def test_output_gram_matches_materialized_matrix():
    for kind in ("centering", "complete-incidence", "orthonormal"):
        out = make_output_spec(kind, 5)
        c = output_matrix(out)
        assert np.allclose(out.gram() * centering_matrix(5), c.T @ c, atol=1e-10)
        assert out.frobenius_sq() == pytest.approx(float(np.sum(c * c)))


def test_custom_output_validation():
    with pytest.raises(InvalidOutputMatrix):
        OutputSpec.custom(np.ones((2, 3)))  # rows do not sum to zero
    with pytest.raises(InvalidOutputMatrix):
        OutputSpec.custom(np.zeros((2, 3)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidOutputMatrix):
            OutputSpec.custom(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, bad]]))
    with pytest.raises(InvalidOutputMatrix):
        OutputSpec.custom(np.array([1.0, -1.0]))  # 1-D
    with pytest.raises(InvalidOutputMatrix):
        make_output_spec("custom", 4, None)
    with pytest.raises(InvalidOutputMatrix):
        make_output_spec("custom", 4, np.array([[1.0, -1.0]]))  # column mismatch
    with pytest.raises(ValueError):
        make_output_spec("no-such-kind", 4)


@pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
def test_delay_checks_reject_non_finite_values(delay):
    spec = spectrum_of(WeightedGraph.path(3))
    out = OutputSpec.centering(3)
    for call in (
        lambda: check_stability(spec, delay),
        lambda: hard_limit(3, out, delay),
        lambda: mode_variance(1.0, delay),
        lambda: mode_variance_fit(1.0, delay),
        lambda: mode_variance_quadrature(1.0, delay),
        lambda: rho_exact(spec, out, delay),
    ):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("rate", [math.nan, math.inf])
@pytest.mark.parametrize(
    "closed_form, delays",
    [
        (mode_variance, [(0.0,), (0.1,)]),
        (mode_variance_fit, [(0.1,)]),
        (mode_variance_quadrature, [(0.0,), (0.1,)]),
        (monotonicity_threshold, [()]),
    ],
    ids=[
        "mode_variance",
        "mode_variance_fit",
        "mode_variance_quadrature",
        "monotonicity_threshold",
    ],
)
def test_closed_forms_reject_non_finite_rates(closed_form, delays, rate):
    # A NaN rate passed every sign check: the closed forms returned NaN and
    # the quadrature never met its tail bound; an infinite one gave 0.
    for delay in delays:
        with pytest.raises(DomainError, match="positive and finite"):
            closed_form(rate, *delay)


def test_modal_weights_of_centering_kinds_are_one():
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, min_nodes=6, max_nodes=6)
    vectors = spectrum_of(g).vectors
    weights = OutputSpec.centering(6).modal_weights(vectors)
    expected = np.ones(6)
    expected[np.argmax(np.abs(vectors.sum(axis=0)))] = 0.0  # kernel column
    assert np.allclose(np.sort(weights), np.sort(expected), atol=1e-10)


# --- report ---


def test_performance_report_fields():
    g = WeightedGraph.cycle(5)
    out = OutputSpec.centering(5)
    report = performance_report(g, out, 0.2)
    spec = spectrum_of(g)
    assert report.rho_exact == pytest.approx(rho_exact(spec, out, 0.2))
    assert report.rho_approx == pytest.approx(rho_approx(spec, out, 0.2))
    assert report.relative_gap == pytest.approx(
        (report.rho_exact - report.rho_approx) / report.rho_exact
    )
    assert 0.0 <= report.relative_gap <= 2e-4
    assert report.stability_margin == pytest.approx(
        math.pi / 0.4 - spec.lambda_max
    )
    assert report.hard_limit == pytest.approx(hard_limit(5, out, 0.2).value)
    assert len(report.delta_weights) == 4
    assert report.delta_weights == pytest.approx((1.0, 1.0, 1.0, 1.0))


def test_performance_report_zero_delay_conventions():
    report = performance_report(WeightedGraph.path(3), OutputSpec.centering(3), 0.0)
    assert report.rho_approx == report.rho_exact
    assert report.relative_gap == 0.0
    assert report.hard_limit == 0.0
    assert report.stability_margin == math.inf


def test_performance_report_errors():
    out = OutputSpec.centering(3)
    with pytest.raises(DisconnectedGraph):
        performance_report(WeightedGraph(3, ((0, 1, 1.0),)), out, 0.1)
    with pytest.raises(UnstableNetwork):
        performance_report(WeightedGraph.complete(3), out, 0.6)
