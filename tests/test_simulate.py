"""Stochastic integrator: determinism, config validation, calibration."""

import math

import mpmath
import numpy as np
import pytest

from tdconsensus import (
    ConfigError,
    DisconnectedGraph,
    OutputSpec,
    SimulationConfig,
    UnstableNetwork,
    WeightedGraph,
    simulate,
)
from conftest import eigenvalues_of, exact_measure, fresh_interpreter_output, output_matrix


def test_same_seed_reproduces_exactly():
    g = WeightedGraph.path(3)
    out = OutputSpec.centering(3)
    config = SimulationConfig(delay=0.1, trials=4, horizon=30.0, burn_in=5.0, seed=42)
    a = simulate(g, out, config)
    b = simulate(g, out, config)
    assert a == b


def test_different_seeds_differ():
    g = WeightedGraph.path(3)
    out = OutputSpec.centering(3)
    base = dict(delay=0.1, trials=4, horizon=30.0, burn_in=5.0)
    a = simulate(g, out, SimulationConfig(seed=1, **base))
    b = simulate(g, out, SimulationConfig(seed=2, **base))
    assert a.mean != b.mean


def test_config_validation():
    with pytest.raises(ConfigError):
        SimulationConfig(delay=-0.1)
    with pytest.raises(ConfigError):
        SimulationConfig(delay=0.1, substeps_per_delay=0)
    with pytest.raises(ConfigError):
        SimulationConfig(delay=0.1, trials=1)
    with pytest.raises(ConfigError):
        SimulationConfig(delay=0.1, dt=0.0)
    with pytest.raises(ConfigError):
        SimulationConfig(delay=0.1, burn_in=-1.0)
    with pytest.raises(ConfigError):
        SimulationConfig(delay=0.1, burn_in=10.0, horizon=5.0)
    with pytest.raises(ConfigError):
        SimulationConfig(delay=0.1, seed=-1)
    # A float, whole-valued or not, is no count and no seed: each of these
    # used to reach simulate and fail there with a bare TypeError.
    for field, bad in (("trials", 16.0), ("trials", 2.5), ("substeps_per_delay", 16.0),
                       ("substeps_per_delay", 2.5), ("seed", 3.0)):
        with pytest.raises(ConfigError, match="integer"):
            SimulationConfig(**{"delay": 0.1, field: bad})
    config = SimulationConfig(delay=0.1, trials=np.int64(3), substeps_per_delay=np.int32(5))
    assert (config.trials, config.substeps_per_delay) == (3, 5)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("delay", "dt", "burn_in", "horizon"):
            with pytest.raises(ConfigError):
                SimulationConfig(**{"delay": 0.1, field: bad})
    # simulate checks what only the graph and the step fix: a horizon at or
    # below the default burn-in 20 / lambda_2, and a sampling window that
    # ends inside the burn-in's last step.
    g, out = WeightedGraph.path(3), OutputSpec.centering(3)
    default_burn_in = 20.0 / eigenvalues_of(g).lambda_2
    for horizon in (0.5 * default_burn_in, default_burn_in):
        with pytest.raises(ConfigError, match="horizon must exceed burn_in"):
            simulate(g, out, SimulationConfig(delay=0.1, trials=2, horizon=horizon))
    with pytest.raises(ConfigError, match="no samples"):
        simulate(g, out, SimulationConfig(delay=0.1, dt=0.1, trials=2, burn_in=1.01, horizon=1.05))


def test_dt_must_divide_the_delay():
    g = WeightedGraph.path(3)
    out = OutputSpec.centering(3)
    with pytest.raises(ConfigError):
        simulate(g, out, SimulationConfig(delay=0.1, dt=0.03, trials=2, horizon=5.0, burn_in=1.0))
    # exact divisor is accepted and respected
    est = simulate(
        g, out, SimulationConfig(delay=0.1, dt=0.02, trials=2, horizon=5.0, burn_in=1.0, seed=0)
    )
    assert est.dt == 0.02
    assert est.delay_steps == 5


def test_substeps_control_dt():
    g = WeightedGraph.path(3)
    out = OutputSpec.centering(3)
    est = simulate(
        g,
        out,
        SimulationConfig(delay=0.2, substeps_per_delay=10, trials=2, horizon=5.0, burn_in=1.0, seed=0),
    )
    assert est.dt == pytest.approx(0.02)
    assert est.delay_steps == 10


def test_zero_delay_default_dt():
    g = WeightedGraph.path(3)
    out = OutputSpec.centering(3)
    est = simulate(g, out, SimulationConfig(delay=0.0, trials=2, horizon=5.0, burn_in=1.0, seed=0))
    assert est.delay_steps == 0
    assert est.dt == pytest.approx(min(1e-3, 0.1 / 3.0))


def test_rejects_disconnected_and_unstable():
    out = OutputSpec.centering(3)
    with pytest.raises(DisconnectedGraph):
        simulate(
            WeightedGraph(3, ((0, 1, 1.0),)),
            out,
            SimulationConfig(delay=0.1, trials=2, horizon=5.0, burn_in=1.0),
        )
    with pytest.raises(UnstableNetwork):
        simulate(
            WeightedGraph.complete(3),
            out,
            SimulationConfig(delay=0.6, trials=2, horizon=5.0, burn_in=1.0),
        )


def test_mismatched_output_spec_rejected():
    with pytest.raises(ConfigError):
        simulate(
            WeightedGraph.path(3),
            OutputSpec.centering(4),
            SimulationConfig(delay=0.1, trials=2, horizon=5.0, burn_in=1.0),
        )


def _spectral_radius(h, delay_steps):
    """Of x_{k+1} = x_k - h x_{k-d} on the state (x_k, .., x_{k-d})."""
    companion = np.eye(delay_steps + 1, k=-1)
    companion[0, 0] = 1.0
    companion[0, -1] -= h
    return float(np.max(np.abs(np.linalg.eigvals(companion))))


@pytest.mark.parametrize("delay_steps", [0, 1, 2, 5, 25])
def test_euler_edge_is_where_the_companion_matrix_turns_unstable(delay_steps):
    edge = 2.0 * math.sin(math.pi / (2 * (2 * delay_steps + 1)))
    assert _spectral_radius((1.0 - 1e-6) * edge, delay_steps) < 1.0
    assert _spectral_radius((1.0 + 1e-6) * edge, delay_steps) > 1.0

    # path(3) has lambda_max = 3; the same step sizes run and are refused.
    g, out = WeightedGraph.path(3), OutputSpec.centering(3)
    for factor in (1.0 - 1e-6, 1.0 + 1e-6):
        dt = factor * edge / 3.0
        config = SimulationConfig(
            delay=delay_steps * dt, substeps_per_delay=max(1, delay_steps),
            dt=None if delay_steps else dt, burn_in=20 * dt, horizon=200 * dt, trials=2, seed=0,
        )
        if factor < 1.0:
            assert math.isfinite(simulate(g, out, config).mean)
        else:
            with pytest.raises(ConfigError, match="stability edge"):
                simulate(g, out, config)


def test_past_the_euler_edge_is_a_config_error(tmp_path, capsys):
    from tdconsensus.cli import main

    g, out = WeightedGraph.path(3), OutputSpec.centering(3)
    threshold = math.pi / 6.0  # pi / (2 lambda_max)
    # Each of these returned a mean off by orders of magnitude, or overflowed.
    for config in (
        SimulationConfig(delay=0.985 * threshold, seed=0),
        SimulationConfig(delay=0.99 * threshold, seed=0),
        SimulationConfig(delay=0.7 * threshold, substeps_per_delay=1, seed=0),
        SimulationConfig(delay=0.0, dt=0.7, seed=0),
    ):
        with pytest.raises(ConfigError, match="stability edge"):
            simulate(g, out, config)
    est = simulate(g, out, SimulationConfig(delay=0.97 * threshold, trials=4, seed=0))
    assert math.isfinite(est.mean) and est.mean > 0.0

    graph_file = tmp_path / "p3.txt"
    graph_file.write_text("n 3\n0 1 1.0\n1 2 1.0\n")
    assert main(["simulate", str(graph_file), "--tau", str(0.99 * threshold)]) == 1
    assert "stability edge" in capsys.readouterr().err


def test_working_set_stays_within_the_chunk_budget():
    import importlib
    import tracemalloc

    sim = importlib.import_module("tdconsensus.simulate")
    g = WeightedGraph.cycle(32)
    out = OutputSpec.centering(32)
    delay = 0.5 * math.pi / 8.0  # half the threshold pi / (2 * 4)
    dt = delay / 25
    # About 5 chunks of 494 steps for 8 trials.
    config = SimulationConfig(delay=delay, burn_in=500 * dt, horizon=2500 * dt, trials=8, seed=1)
    simulate(g, out, config)
    tracemalloc.start()
    try:
        est = simulate(g, out, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Twice the 1 MiB budget of 2^17 floats.
    assert peak < 2 * (1 << 17) * 8, f"peak {peak / 2**20:.2f} MiB"
    assert est.total_steps > 4 * sim._CHUNK_BUDGET // (8 * 32)


def test_result_is_independent_of_noise_chunking(monkeypatch):
    import importlib

    sim = importlib.import_module("tdconsensus.simulate")
    g = WeightedGraph.path(3)
    out = OutputSpec.centering(3)
    config = SimulationConfig(delay=0.1, trials=3, horizon=10.0, burn_in=2.0, seed=9)
    default = simulate(g, out, config)
    monkeypatch.setattr(sim, "_CHUNK_BUDGET", 1)  # forces one step per chunk
    chunked = sim.simulate(g, out, config)
    assert chunked == default


def test_estimate_is_independent_of_the_blas_thread_count():
    # At n = 64 and 16 trials the drift, prefix and centring products are
    # large enough for OpenBLAS to split them over threads; the split must
    # not change a bit of either estimate.
    code = (
        "import numpy as np\n"
        "from tdconsensus import OutputSpec, SimulationConfig, WeightedGraph, simulate\n"
        "rng = np.random.default_rng(4)\n"
        "edges = [(v - 1, v, float(rng.uniform(0.5, 1.5))) for v in range(1, 64)]\n"
        "edges += [(v, v + 32, float(rng.uniform(0.5, 1.5))) for v in range(32)]\n"
        "c = rng.standard_normal((40, 64))\n"
        "outs = (OutputSpec.centering(64), OutputSpec.custom(c - c.mean(axis=1, keepdims=True)))\n"
        "config = SimulationConfig(delay=0.05, trials=16, burn_in=0.4, horizon=1.6, seed=11)\n"
        "print([repr(simulate(WeightedGraph(64, tuple(edges)), out, config)) for out in outs])"
    )
    one, two = (fresh_interpreter_output(code, {"OPENBLAS_NUM_THREADS": k}) for k in ("1", "2"))
    assert one == two


def test_estimate_brackets_the_exact_value():
    # moderate-size run; the 99% interval should cover the closed form
    g = WeightedGraph.complete(3)
    out = OutputSpec.centering(3)
    tau = 0.3  # threshold is pi/6 = 0.5236 over lambda_max 3 -> stable
    config = SimulationConfig(delay=tau / 3.0, trials=12, seed=7)
    est = simulate(g, out, config)
    truth = exact_measure(g, out, tau / 3.0)
    assert est.ci99_low <= truth <= est.ci99_high
    assert est.mean == pytest.approx(truth, rel=0.15)
    assert est.std_error > 0.0
    assert est.ci99_low < est.mean < est.ci99_high


def t995_oracle(df):
    """The 99.5 % Student-t quantile at df degrees of freedom, rounded once.

    The upper-tail root of I_{df/(df + t^2)}(df/2, 1/2) / 2 = 0.005 at 40
    digits, rounded to the nearest double; the root must lie farther from
    either rounding boundary than its 40-digit error.
    """
    from scipy import stats

    with mpmath.workdps(40):
        nu = mpmath.mpf(df)

        def upper_tail(t):
            return mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) / 2

        root = mpmath.findroot(lambda t: upper_tail(t) - mpmath.mpf("0.005"), stats.t.ppf(0.995, df))
        nearest = float(root)
        for neighbour in (math.nextafter(nearest, 0.0), math.nextafter(nearest, math.inf)):
            assert abs(root - (mpmath.mpf(nearest) + neighbour) / 2) > 1e-30 * root
    return nearest


def test_quantile_table_is_correctly_rounded():
    from tdconsensus.simulate import _T995

    assert list(_T995) == [t995_oracle(df) for df in range(1, 128)]


@pytest.mark.parametrize("trials", [2, 3, 16, 101, 128, 129])
def test_interval_is_the_student_t_interval(trials):
    # Up to 128 trials the simulator reads its quantile table, so the oracle
    # is the correctly rounded quantile; past it the simulator calls
    # scipy.special, and scipy.stats, imported here only, is the oracle.
    from scipy import stats

    if trials <= 128:
        q = t995_oracle(trials - 1)
    else:
        q = stats.t.ppf(0.995, trials - 1)
    config = SimulationConfig(delay=0.1, trials=trials, horizon=2.0, burn_in=0.5, seed=3)
    est = simulate(WeightedGraph.path(3), OutputSpec.centering(3), config)
    assert est.std_error > 0.0
    assert est.ci99_high == est.mean + q * est.std_error
    assert est.ci99_low == est.mean - q * est.std_error


def test_simulate_loads_no_scipy_stats_module():
    # Each CLI simulate starts a fresh interpreter, and importing any part
    # of scipy costs it about as much as a small simulation. Up to 128
    # trials the quantile comes from the table, so no scipy module loads.
    code = (
        "import sys\n"
        "from tdconsensus import OutputSpec, SimulationConfig, WeightedGraph, simulate\n"
        "config = SimulationConfig(delay=0.1, trials=16, horizon=2.0, burn_in=0.5, seed=1)\n"
        "simulate(WeightedGraph.path(3), OutputSpec.centering(3), config)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert fresh_interpreter_output(code) == "[]"


def test_default_burn_in_and_horizon_derive_from_the_spectrum():
    g = WeightedGraph.path(3)  # lambda_2 = 1
    out = OutputSpec.centering(3)
    est = simulate(g, out, SimulationConfig(delay=0.1, trials=2, seed=0))
    # lambda_2 as simulate reads it, from the eigenvalues alone: it may miss 1
    # in the last bits, and the step counts round up from the times it gives.
    lam2 = eigenvalues_of(g).lambda_2
    assert est.burn_in == 20.0 / lam2 == pytest.approx(20.0)
    assert est.horizon == 10.0 * est.burn_in == pytest.approx(200.0)
    assert est.total_steps == math.ceil(est.horizon / est.dt)
    assert est.sample_steps == est.total_steps - math.ceil(est.burn_in / est.dt)


def reference_simulate(graph, out, config):
    """Per-step Euler-Maruyama loop, one Python iteration per step.

    The simulator's arithmetic spelled out: x_{k+1} = x_k - dt x_{k-d} L +
    sqrt(dt) xi_k from x = 0, with the same per-trial noise streams; the
    squared output is |C x|^2 with the explicit C of conftest.output_matrix,
    not the simulator's own squares. Returns the per-trial time averages.
    """
    lap, n, trials, dt = graph.laplacian(), graph.node_count, config.trials, config.dt
    delay_steps = round(config.delay / dt)
    burn_steps, total_steps = math.ceil(config.burn_in / dt), math.ceil(config.horizon / dt)
    rows = output_matrix(out).T
    seeds = np.random.SeedSequence(config.seed).spawn(trials)
    noise = np.stack([np.random.default_rng(s).standard_normal((total_steps, n)) for s in seeds], axis=1)
    states = [np.zeros((trials, n))]
    sums = np.zeros(trials)
    for k in range(total_steps):
        lagged = states[k - delay_steps] if k >= delay_steps else np.zeros((trials, n))
        states.append(states[k] - dt * (lagged @ lap) + math.sqrt(dt) * noise[k])
        if k + 1 > burn_steps:
            projected = states[-1] @ rows
            sums += np.einsum("ij,ij->i", projected, projected)
    return sums / (total_steps - burn_steps)


_REFERENCE_OUTPUTS = {
    "centering": OutputSpec.centering(4),
    "complete-incidence": OutputSpec.complete_incidence(4),
    "orthonormal": OutputSpec.orthonormal(4),
    "custom": OutputSpec.custom(np.array([[1.0, -1.0, 0.0, 0.0], [0.5, 0.5, -2.0, 1.0]])),
    # More rows than nodes: the simulator squares through C's triangular factor.
    "custom-tall": OutputSpec.custom(
        np.array([[1.0, -1.0, 0.0, 0.0], [0.5, 0.5, -2.0, 1.0], [0.0, 3.0, -1.0, -2.0],
                  [-1.0, 0.0, 0.0, 1.0], [2.0, -0.5, -0.5, -1.0], [0.25, 0.25, 0.25, -0.75]])
    ),
}


@pytest.mark.parametrize("chunk_budget", [None, 2 * 3 * 4 * 7, 3 * 4 * 7])
@pytest.mark.parametrize("delay_steps", [0, 1, 5, 25, 40])
@pytest.mark.parametrize("kind", sorted(_REFERENCE_OUTPUTS))
def test_matches_the_per_step_reference_loop(monkeypatch, kind, delay_steps, chunk_budget):
    import importlib

    sim = importlib.import_module("tdconsensus.simulate")
    if chunk_budget is not None:
        # 3 trials x 4 nodes: 7 or 14 steps of states, so chunks of 7, 6, 6,
        # 26 and 41 steps, or of 14, 14, 12, 26 and 41, end mid-horizon.
        monkeypatch.setattr(sim, "_CHUNK_BUDGET", chunk_budget)
    g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (0, 2, 0.4)))
    out = _REFERENCE_OUTPUTS[kind]
    delay = 0.1 if delay_steps else 0.0
    dt = delay / delay_steps if delay_steps else 0.01
    # 39 burn-in steps (not a multiple of 2, 6, 26 or 41) and 301 in all, so
    # the last block of every delay is cut short. A 41-step block sums as
    # one full panel and one of 9 rows.
    config = SimulationConfig(
        delay=delay, dt=dt, burn_in=38.5 * dt, horizon=300.5 * dt, trials=3, seed=5
    )
    est = sim.simulate(g, out, config)
    assert (est.delay_steps, est.total_steps, est.sample_steps) == (delay_steps, 301, 262)
    per_trial = reference_simulate(g, out, config)
    assert est.mean == pytest.approx(per_trial.mean(), rel=1e-12, abs=0.0)
    assert est.std_error == pytest.approx(
        per_trial.std(ddof=1) / math.sqrt(3), rel=1e-12, abs=0.0
    )
