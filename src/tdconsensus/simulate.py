"""Monte Carlo check of the analytic performance values.

Integrates dx(t) = -L x(t - tau) dt + dW by Euler-Maruyama with the delay
resolved as an integer number of substeps, then time-averages the squared
output after a burn-in. Each trial owns a derived seed and is one batch of
the batch-means error estimate, so results are reproducible and
independent of the internal chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import ConfigError, DisconnectedGraph
from .graphs import WeightedGraph, eigendecompose
from .performance import OutputSpec, require_stable

# Cap on floats drawn per noise chunk, to bound memory for large graphs.
_CHUNK_BUDGET = 2_000_000


@dataclass(frozen=True)
class SimulationConfig:
    """Integration controls; None fields are derived from the graph.

    dt must divide the delay exactly (it is delay / substeps_per_delay when
    not given). Defaults: burn_in = 20 / lambda_2, horizon = 10 * burn_in,
    and at zero delay dt = min(1e-3, 0.1 / lambda_max).
    """

    delay: float
    substeps_per_delay: int = 25
    dt: float | None = None
    burn_in: float | None = None
    horizon: float | None = None
    trials: int = 16
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.delay < 0.0:
            raise ConfigError("delay must be nonnegative")
        if self.substeps_per_delay < 1:
            raise ConfigError("substeps_per_delay must be at least 1")
        if self.trials < 2:
            raise ConfigError("need at least 2 trials for an error estimate")
        if self.dt is not None and self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if self.burn_in is not None and self.burn_in <= 0.0:
            raise ConfigError("burn_in must be positive")
        if self.horizon is not None and self.burn_in is not None:
            if self.horizon <= self.burn_in:
                raise ConfigError("horizon must exceed burn_in")


@dataclass(frozen=True)
class SimulationEstimate:
    """Batch-means estimate of the steady-state squared output deviation."""

    mean: float
    std_error: float
    ci99_low: float
    ci99_high: float
    trials: int
    dt: float
    delay_steps: int
    burn_in: float
    horizon: float
    total_steps: int
    sample_steps: int
    seed: int | None


def _resolve_dt(config: SimulationConfig, lam_max: float) -> tuple[float, int]:
    """Effective (dt, delay substeps); enforces dt dividing the delay."""
    if config.delay == 0.0:
        dt = config.dt if config.dt is not None else min(1e-3, 0.1 / lam_max)
        return dt, 0
    if config.dt is None:
        return config.delay / config.substeps_per_delay, config.substeps_per_delay
    ratio = config.delay / config.dt
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * max(1.0, ratio):
        raise ConfigError(
            f"dt {config.dt} does not divide the delay {config.delay}"
        )
    return config.dt, steps


def simulate(
    graph: WeightedGraph, out: OutputSpec, config: SimulationConfig
) -> SimulationEstimate:
    """Estimate the steady-state performance of one graph by simulation.

    Trials evolve independently from per-trial derived seeds and reduce
    deterministically: the same seed always returns the identical estimate.
    """
    if out.node_count != graph.node_count:
        raise ConfigError("output spec and graph disagree on the node count")
    if not graph.is_connected():
        raise DisconnectedGraph("simulation requires a connected graph")
    lap = graph.laplacian()
    spectrum = eigendecompose(lap)
    require_stable(spectrum, config.delay)
    dt, delay_steps = _resolve_dt(config, spectrum.lambda_max)
    lam2 = spectrum.lambda_2
    burn_in = config.burn_in if config.burn_in is not None else 20.0 / lam2
    horizon = config.horizon if config.horizon is not None else 10.0 * burn_in
    if horizon <= burn_in:
        raise ConfigError("horizon must exceed burn_in")
    burn_steps = math.ceil(burn_in / dt)
    total_steps = math.ceil(horizon / dt)
    sample_steps = total_steps - burn_steps
    if sample_steps < 1:
        raise ConfigError("horizon leaves no samples after burn_in")

    # Factor the output gram so each step costs output-rank * n per trial.
    gram = out.gram()
    gram_eigvals, gram_vecs = np.linalg.eigh(gram)
    keep = gram_eigvals > 1e-12 * max(1.0, float(gram_eigvals.max(initial=0.0)))
    output_rows = (np.sqrt(gram_eigvals[keep])[:, None] * gram_vecs.T[keep]).T

    trials = config.trials
    n = graph.node_count
    rngs = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(trials)
    ]
    chunk = max(1, min(8192, _CHUNK_BUDGET // max(1, trials * n)))
    sqrt_dt = math.sqrt(dt)

    state = np.zeros((trials, n))
    history = np.zeros((delay_steps, trials, n)) if delay_steps else None
    pointer = 0
    sums = np.zeros(trials)
    step = 0
    while step < total_steps:
        span = min(chunk, total_steps - step)
        noise = np.stack([rng.standard_normal((span, n)) for rng in rngs], axis=1)
        for local in range(span):
            if history is not None:
                # Read the slot before overwriting it: it holds the state
                # delay_steps steps back.
                updated = state - dt * (history[pointer] @ lap) + sqrt_dt * noise[local]
                history[pointer] = state
                pointer = (pointer + 1) % delay_steps
                state = updated
            else:
                state = state - dt * (state @ lap) + sqrt_dt * noise[local]
            step += 1
            if step > burn_steps:
                projected = state @ output_rows
                sums += np.einsum("ij,ij->i", projected, projected)

    per_trial = sums / sample_steps
    mean = float(per_trial.mean())
    std_error = float(per_trial.std(ddof=1) / math.sqrt(trials))
    quantile = float(stats.t.ppf(0.995, trials - 1))
    return SimulationEstimate(
        mean=mean,
        std_error=std_error,
        ci99_low=mean - quantile * std_error,
        ci99_high=mean + quantile * std_error,
        trials=trials,
        dt=dt,
        delay_steps=delay_steps,
        burn_in=burn_in,
        horizon=horizon,
        total_steps=total_steps,
        sample_steps=sample_steps,
        seed=config.seed,
    )
