"""Monte Carlo check of the analytic performance values.

Integrates dx(t) = -L x(t - tau) dt + dW by Euler-Maruyama with the delay
resolved as an integer number of substeps d, one block of d + 1 steps per
Python iteration, then time-averages the squared output after a burn-in.
Each trial owns a derived seed and is one batch of the batch-means error
estimate, so results are reproducible and independent of the internal
chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigError
from .graphs import WeightedGraph, eigendecompose
from .performance import OutputSpec, _checked_laplacian, require_stable

# Cap on floats held by one chunk of step-major states (1 MiB), or one block
# of steps if that is larger. One trial's noise row adds at most half of it,
# a custom output's projections at most all of it.
_CHUNK_BUDGET = 1 << 17

# Rows per prefix-sum product. Over w rows the product with the
# lower-triangular ones costs w multiply-adds per element, where cumsum
# costs one add at about 5 ns, so long blocks are summed in panels. Timed
# on 2 cores (OpenBLAS 0.3.31) at 256 columns (8 trials, n = 32): a 201-row
# block took 241 us by cumsum, 358 us as one product, 210 us in 64-row
# panels and 124 us in 32-row ones; a 26-row block, one panel at the
# default 25 substeps, took 41 us by cumsum and 16 to 18 us as one
# product. At 64 columns 16-row panels lost to one 26-row product, 6.8 us
# against 4.7.
_PANEL_ROWS = 32

# The 99.5 % Student-t quantile for df = 1 .. 127 (trials 2 .. 128), entry
# df - 1: the upper-tail root of I_{df/(df + t^2)}(df/2, 1/2) / 2 = 0.005,
# computed at 40 digits and rounded once to the nearest double.
_T995 = (
    63.65674116287158, 9.924843200918293, 5.840909309733357, 4.604094871349993,
    4.032142983555228, 3.70742802132478, 3.499483297350494, 3.3553873313333953,
    3.2498355415921263, 3.1692726726169513, 3.105806515539281,
    3.054539589392902, 3.0122758387165787, 2.976842734370835,
    2.946712883475239, 2.9207816224251, 2.8982305196774187, 2.878440472738608,
    2.860934606464979, 2.8453397097861086, 2.83135955802305,
    2.8187560606001436, 2.807335683769999, 2.796939504774456,
    2.7874358136769706, 2.778714533329683, 2.770682957122212,
    2.7632624554614447, 2.7563859036706053, 2.7499956535672254,
    2.7440419192942693, 2.738481482012188, 2.733276642350836,
    2.7283943670707203, 2.7238055892080917, 2.7194846304500078,
    2.7154087215499882, 2.7115576019130825, 2.707913183517662,
    2.7044592674331627, 2.7011813035785224, 2.6980661862199846,
    2.6951020791576754, 2.692278265693022, 2.689585019374643,
    2.687013492242216, 2.6845556178665246, 2.682204026950216,
    2.6799519736315522, 2.6777932709408443, 2.6757222341106477,
    2.6737336306472197, 2.671822636241004, 2.6699847957348917,
    2.668215988486194, 2.6665123975560636, 2.6648704822419718,
    2.6632869535376584, 2.6617587521629673, 2.660283028855037,
    2.6588571266539263, 2.6574785649511563, 2.6561450250998617,
    2.654854337411085, 2.653604469382925, 2.652393515028316,
    2.6512196851836576, 2.6500812986947295, 2.6489767743886263,
    2.647904623751151, 2.646863444238392, 2.645851913159326,
    2.6448687820733823, 2.64391287165309, 2.6429830669673935,
    2.642078313145992, 2.641197611389272, 2.640340015292127,
    2.6395046274532206, 2.638690596344183, 2.6378971134157765,
    2.6371234104203745, 2.636368756932123, 2.635632458047961,
    2.634913852254306, 2.6342123094456342, 2.6335272290824965,
    2.632858038477645, 2.632204191200009, 2.631565165587159,
    2.6309404633577644, 2.6303296083162886, 2.629732145142835,
    2.6291476382617054, 2.6285756707827432, 2.62801584351007,
    2.6274677740132524, 2.626931095756374, 2.6264054572808275,
    2.6258905214380177, 2.625385964668441, 2.6248914763239126,
    2.624406758029956, 2.6239315230856053, 2.623465495898084,
    2.6230084114500207, 2.622560014797034, 2.6221200605936894,
    2.6216883126459782, 2.6212645434885955, 2.620848533985438,
    2.6204400729518422, 2.6200389567971967, 2.619644989186654,
    2.6192579807207714, 2.61887774863197, 2.6185041164968004,
    2.6181369139630575, 2.6177759764908592, 2.617421145106866,
    2.6170722661708643, 2.616729191153998, 2.6163917764279723,
    2.6160598830646085, 2.615733376645151, 2.6154121270787893,
    2.615096008429867,
)


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
        if not 0.0 <= self.delay < math.inf:
            raise ConfigError("delay must be nonnegative")
        if not isinstance(self.substeps_per_delay, Integral) or self.substeps_per_delay < 1:
            raise ConfigError("substeps_per_delay must be an integer of at least 1")
        if not isinstance(self.trials, Integral) or self.trials < 2:
            raise ConfigError("need an integer of at least 2 trials for an error estimate")
        if self.seed is not None and not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ConfigError("seed must be a nonnegative integer")
        for name in ("dt", "burn_in", "horizon"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be positive")
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
    lap = _checked_laplacian(graph, out)
    spectrum = eigendecompose(lap, vectors=False)
    require_stable(spectrum, config.delay)
    dt, delay_steps = _resolve_dt(config, spectrum.lambda_max)
    # Each mode's Euler recursion x_{k+1} = x_k - h x_{k-d}, h = dt lambda,
    # is stable iff h < 2 sin(pi / (2 (2d + 1))) (Levin & May 1976).
    euler_edge = 2.0 * math.sin(math.pi / (2 * (2 * delay_steps + 1)))
    if dt * spectrum.lambda_max >= euler_edge:
        raise ConfigError(
            f"dt * lambda_max = {dt * spectrum.lambda_max:.6g} reaches the Euler "
            f"stability edge {euler_edge:.6g} at {delay_steps} delay substeps; "
            "use a smaller dt or more substeps"
        )
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

    trials = config.trials
    n = graph.node_count
    # A named output squares as s |x - mean(x) 1|^2, O(n) per state. A custom
    # C squares as |C x|^2, through its n x n factor R (C = Q R) when taller.
    factor, scale = out.matrix, 1.0
    if factor is None:
        scale = out.gram()
    elif factor.shape[0] > n:
        factor = np.linalg.qr(factor, mode="r")
    if trials - 1 <= len(_T995):
        quantile = _T995[trials - 2]
    else:
        # Imported here, before the chunk buffers exist, and only past the
        # table: importing scipy.special takes about as long as a small
        # simulation.
        from scipy import special

        quantile = float(special.stdtrit(trials - 1, 0.995))
    rngs = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(trials)
    ]
    # Step k + 1 reads only x_k and x_{k-d}, so the d + 1 steps after x_k
    # have every lagged state at hand: a block of d + 1 steps costs one
    # drift product and one prefix product per panel of at most _PANEL_ROWS
    # rows. Chunks hold whole blocks, at least one, and otherwise at most
    # _CHUNK_BUDGET floats of states. The chunk length barely moves the
    # time: at n = 200, d = 25 and 8 or 16 trials, the medians of 9 calls
    # with chunks of 26 to 1248 steps lay within 7 and 10 % of each other,
    # with no trend in the length. Each chunk costs two calls per trial,
    # which shows at 64 to 128 trials on n = 50 to 100: one-block chunks
    # ran 2 to 17 % slower there than 156-step ones (medians of 12 calls).
    block = delay_steps + 1
    chunk = _CHUNK_BUDGET // (trials * n)
    chunk = block * max(1, chunk // block)
    panel = min(block, _PANEL_ROWS)
    prefix = np.tril(np.ones((panel, panel)))
    ones = np.ones(n)
    sqrt_dt = math.sqrt(dt)

    # Step-major scaled noise, overwritten step by step by the states it
    # drives; each trial's noise is drawn into one row, then scaled into
    # that trial's column.
    states_buffer = np.empty((min(chunk, total_steps), trials, n))
    row = np.empty((states_buffer.shape[0], n))
    # trail holds x_{k-d} .. x_k for the step k about to advance.
    trail = np.zeros((block, trials, n))
    sums = np.zeros(trials)
    step = 0
    while step < total_steps:
        span = min(chunk, total_steps - step)
        states = states_buffer[:span]
        for trial, rng in enumerate(rngs):
            rng.standard_normal(out=row[:span])
            np.multiply(row[:span], sqrt_dt, out=states[:, trial])
        if block == 1:
            # Nothing to batch without a lag, so no running sum either.
            state = trail[0]
            for current in states:
                current += state - dt * (state @ lap)
                state = current
        else:
            for start in range(0, span, block):
                width = min(block, span - start)
                # The increments sqrt(dt) xi_k - dt x_{k-d} L of the block,
                # written over the drift product, with x_k added to the
                # first: their running sum is x_{k+1} .. x_{k+width}. Each
                # panel sums as one product with the lower-triangular ones,
                # its first row carrying the last state of the panel before.
                seg = states[start : start + width]
                drift = trail[:width].reshape(-1, n) @ lap
                drift *= dt
                increments = drift.reshape(width, trials, n)
                np.subtract(seg, increments, out=increments)
                carry = trail[-1]
                for top in range(0, width, panel):
                    rows = min(panel, width - top)
                    increments[top] += carry
                    np.matmul(
                        prefix[:rows, :rows],
                        increments[top : top + rows].reshape(rows, -1),
                        out=seg[top : top + rows].reshape(rows, -1),
                    )
                    carry = seg[top + rows - 1]
                trail = seg
        trail = states[-block:].copy()
        first = max(0, burn_steps - step)
        if first < span:
            sampled = states[first:].reshape(-1, n)
            if factor is None:
                # No later step reads these states: centre them in place.
                means = sampled @ ones
                means /= n
                sampled -= means[:, None]
            else:
                sampled = sampled @ factor.T
            squares = scale * np.einsum("ij,ij->i", sampled, sampled).reshape(-1, trials)
            # A running sum from the carried totals keeps the per-step order.
            sums = np.cumsum(np.concatenate((sums[None], squares)), axis=0)[-1]
        step += span

    per_trial = sums / sample_steps
    mean = float(per_trial.mean())
    std_error = float(per_trial.std(ddof=1) / math.sqrt(trials))
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
