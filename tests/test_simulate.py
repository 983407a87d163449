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
from conftest import exact_measure, fresh_interpreter_output, output_matrix


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
    assert est.burn_in == pytest.approx(20.0)
    assert est.horizon == pytest.approx(200.0)
    assert est.total_steps == round(est.horizon / est.dt)
    assert est.sample_steps == est.total_steps - round(est.burn_in / est.dt)


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


@pytest.mark.parametrize("chunk_budget", [None, 2 * 3 * 4 * 7])
@pytest.mark.parametrize("delay_steps", [0, 1, 5, 25])
@pytest.mark.parametrize("kind", sorted(_REFERENCE_OUTPUTS))
def test_matches_the_per_step_reference_loop(monkeypatch, kind, delay_steps, chunk_budget):
    import importlib

    sim = importlib.import_module("tdconsensus.simulate")
    if chunk_budget is not None:
        # 7 steps of noise: chunks of 7, 6, 6 and 26 steps end mid-horizon.
        monkeypatch.setattr(sim, "_CHUNK_BUDGET", chunk_budget)
    g = WeightedGraph(4, ((0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (0, 2, 0.4)))
    out = _REFERENCE_OUTPUTS[kind]
    delay = 0.1 if delay_steps else 0.0
    dt = delay / delay_steps if delay_steps else 0.01
    # 39 burn-in steps (not a multiple of 2, 6 or 26) and 301 in all, so the
    # last block of every delay is cut short.
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
