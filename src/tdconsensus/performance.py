"""Steady-state performance of noisy consensus networks under time delay.

The network integrates dx(t) = -L x(t - tau) dt + dW with unit-intensity
white noise and a performance output y = C x, C 1 = 0. The steady-state
squared output deviation decomposes over Laplacian modes: each eigenvalue
contributes its stationary variance weighted by how strongly the output
matrix observes that mode.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    DisconnectedGraph,
    DomainError,
    InvalidOutputMatrix,
    UnstableNetwork,
)
from .graphs import (
    EdgeFormCaches,
    SpectralCache,
    WeightedGraph,
    _check_endpoints,
    _edge_forms,
    eigendecompose,
)

# Fitted coefficients of the closed-form variance profile approximation:
# offset and slope of its affine correction term.
FIT_OFFSET = 0.18733
FIT_SLOPE = -0.01

# Tolerance below which a custom output matrix must annihilate the ones
# vector, relative to its largest entry.
OUTPUT_KERNEL_TOLERANCE = 1e-10

# crossover_delay counts a difference of two modal sums as zero when its size
# is at most this factor times m * eps * (rho_a + rho_b), m the mode count:
# every term is positive, so each sum carries m ulps from its summation plus
# a few from evaluating each term.
CROSSOVER_ROUNDING_FACTOR = 8.0


def cosine_fixed_point() -> float:
    """Unique root of cos(z) = z, correctly rounded: math.cos maps it to itself."""
    return 0.7390851332151607


class OutputKind(Enum):
    CENTERING = "centering"
    COMPLETE_INCIDENCE = "complete-incidence"
    ORTHONORMAL = "orthonormal"
    CUSTOM = "custom"


@dataclass(frozen=True)
class OutputSpec:
    """Performance output y = C x with C annihilating the ones vector.

    Named kinds never materialize C or CᵀC: centering and orthonormal kinds
    share the centering projector as gram, the complete-incidence kind
    scales it by the node count, and every formula takes that scale.
    """

    kind: OutputKind
    node_count: int
    matrix: np.ndarray | None = None

    @classmethod
    def centering(cls, node_count: int) -> "OutputSpec":
        return cls(OutputKind.CENTERING, node_count)

    @classmethod
    def complete_incidence(cls, node_count: int) -> "OutputSpec":
        return cls(OutputKind.COMPLETE_INCIDENCE, node_count)

    @classmethod
    def orthonormal(cls, node_count: int) -> "OutputSpec":
        return cls(OutputKind.ORTHONORMAL, node_count)

    @classmethod
    def custom(cls, matrix: np.ndarray) -> "OutputSpec":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] < 2:
            raise InvalidOutputMatrix("output matrix must be 2-D with >= 2 columns")
        scale = float(np.abs(matrix).max())
        if not 0.0 < scale < math.inf:
            raise InvalidOutputMatrix("output matrix must be finite and not identically zero")
        row_sums = matrix.sum(axis=1)
        if float(np.abs(row_sums).max()) > OUTPUT_KERNEL_TOLERANCE * scale:
            raise InvalidOutputMatrix(
                "output matrix must annihilate the all-ones vector"
            )
        return cls(OutputKind.CUSTOM, matrix.shape[1], matrix)

    def gram(self) -> np.ndarray | float:
        """CᵀC, through which the output enters every formula; a named kind's
        gram, s times the centering projector, as its scale s (1, or n for
        complete incidence)."""
        if self.kind is OutputKind.CUSTOM:
            return self.matrix.T @ self.matrix
        return float(self.node_count) if self.kind is OutputKind.COMPLETE_INCIDENCE else 1.0

    def frobenius_sq(self) -> float:
        """Squared Frobenius norm of C, equal to the trace of the gram."""
        if self.kind is OutputKind.CUSTOM:
            return float(np.sum(self.matrix * self.matrix))
        return float(self.gram() * (self.node_count - 1))

    def modal_weights(self, vectors: np.ndarray) -> np.ndarray:
        """diag(Qᵀ CᵀC Q) for an orthonormal column basis Q.

        For the named kinds this is the scale times 1 - (1ᵀq)²/n per column,
        exact for any orthonormal Q, so no O(n³) product is formed.
        """
        if self.kind is OutputKind.CUSTOM:
            projected = self.matrix @ vectors
            return np.einsum("ji,ji->i", projected, projected)
        col_sums = vectors.sum(axis=0)
        return self.gram() * (1.0 - (col_sums * col_sums) / self.node_count)


def make_output_spec(kind: str, node_count: int, matrix: np.ndarray | None = None) -> OutputSpec:
    """Build an OutputSpec from its string kind name."""
    kind_enum = OutputKind(kind)
    if kind_enum is OutputKind.CUSTOM:
        if matrix is None:
            raise InvalidOutputMatrix("custom output kind requires a matrix")
        spec = OutputSpec.custom(matrix)
        if spec.node_count != node_count:
            raise InvalidOutputMatrix(
                f"output matrix has {spec.node_count} columns, graph has {node_count} nodes"
            )
        return spec
    return OutputSpec(kind_enum, node_count)


@dataclass(frozen=True)
class StabilityResult:
    stable: bool
    margin: float


def check_stability(spectrum: SpectralCache, delay: float) -> StabilityResult:
    """Delayed consensus is stable iff delay * lambda_max < pi/2, strictly.

    The margin is pi/(2 delay) - lambda_max, infinite at zero delay. The
    boundary counts as unstable.
    """
    if not 0.0 <= delay < math.inf:
        raise DomainError("delay must be nonnegative")
    lam_max = spectrum.lambda_max
    if delay == 0.0:
        return StabilityResult(stable=True, margin=math.inf)
    return StabilityResult(
        stable=delay * lam_max < math.pi / 2.0,
        margin=math.pi / (2.0 * delay) - lam_max,
    )


def require_stable(spectrum: SpectralCache, delay: float) -> StabilityResult:
    """check_stability, raising UnstableNetwork when the network is unstable."""
    stability = check_stability(spectrum, delay)
    if not stability.stable:
        raise UnstableNetwork(
            f"delay {delay} exceeds the stability threshold "
            f"{math.pi / (2.0 * spectrum.lambda_max)}"
        )
    return stability


def _profile(x: np.ndarray | float) -> np.ndarray | float:
    """cos(x) / (1 - sin(x)) on [0, pi/2).

    Evaluated as cot((pi/2 - x)/2), which is algebraically identical and
    avoids the cancellation in 1 - sin(x) near the right endpoint.
    """
    half_gap = 0.5 * (math.pi / 2.0 - np.asarray(x, dtype=float))
    return np.cos(half_gap) / np.sin(half_gap)


def _profile_fit(x: np.ndarray | float) -> np.ndarray | float:
    """Closed-form fit of _profile(x)/(2x): 0.5 (1/x + (4/pi)/(pi/2 - x) + offset + slope x)."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (
        1.0 / x
        + (4.0 / math.pi) / (math.pi / 2.0 - x)
        + FIT_OFFSET
        + FIT_SLOPE * x
    )


def mode_variance(lam: float, delay: float) -> float:
    """Stationary variance of one noisy mode dx = -lam x(t - delay) dt + dW.

    Equals cos(lam delay) / (2 lam (1 - sin(lam delay))); reduces to
    1/(2 lam) at zero delay. Defined for lam > 0 and lam * delay < pi/2.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"mode rate must be positive and finite, got {lam}")
    if not 0.0 <= delay < math.inf:
        raise DomainError("delay must be nonnegative")
    if delay == 0.0:
        return 1.0 / (2.0 * lam)
    x = lam * delay
    if x >= math.pi / 2.0:
        raise DomainError(f"mode is unstable: lam * delay = {x} >= pi/2")
    return float(_profile(x)) / (2.0 * lam)


def mode_variance_fit(lam: float, delay: float) -> float:
    """Closed-form approximation of mode_variance, within 2e-4 relative below it."""
    if not 0.0 < lam < math.inf:
        raise DomainError(f"mode rate must be positive and finite, got {lam}")
    if not 0.0 < delay < math.inf:
        raise DomainError("the fit requires a positive delay; use mode_variance at zero")
    x = lam * delay
    if x >= math.pi / 2.0:
        raise DomainError(f"mode is unstable: lam * delay = {x} >= pi/2")
    return delay * float(_profile_fit(x))


def _check_node_count(node_count: int, out: OutputSpec) -> None:
    """Raises ConfigError unless out observes node_count nodes, and
    DomainError below two nodes."""
    if out.node_count != node_count:
        raise ConfigError("output spec and graph disagree on the node count")
    if node_count < 2:
        raise DomainError("need at least two nodes")


def _checked_spectrum(graph: WeightedGraph, out: OutputSpec) -> SpectralCache:
    """Laplacian spectrum of a graph observed by out, after every input check.

    Raises ConfigError and DomainError as _check_node_count does, and
    DisconnectedGraph, by union-find, before any eigendecomposition.
    """
    _check_node_count(graph.node_count, out)
    if not graph.is_connected():
        raise DisconnectedGraph("the graph is disconnected")
    return eigendecompose(graph.laplacian())


def _nonzero_modes(spectrum: SpectralCache, out: OutputSpec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and modal weights of the modes outside the kernel eigenpair.

    Checks the spectrum's size as _check_node_count does, and raises
    DisconnectedGraph, through lambda_2, on the spectrum of a disconnected
    graph.
    """
    _check_node_count(len(spectrum.eigenvalues), out)
    spectrum.lambda_2  # evaluated for its connectivity guard
    kernel = spectrum.kernel_index
    weights = out.modal_weights(spectrum.vectors)
    return np.delete(spectrum.eigenvalues, kernel), np.delete(weights, kernel)


def _modal_sum(lam: np.ndarray, weights: np.ndarray, delay: float) -> float:
    """Sum of weighted modal variances of _nonzero_modes at a stable delay."""
    if delay == 0.0:
        return float(np.sum(weights * 0.5 / lam))
    return float(np.sum(weights * _profile(lam * delay) * 0.5 / lam))


def _fit_sum(lam: np.ndarray, weights: np.ndarray, delay: float) -> float:
    """_modal_sum with the closed-form fit in place of each modal variance."""
    return float(delay * np.sum(weights * _profile_fit(lam * delay)))


def rho_exact(spectrum: SpectralCache, out: OutputSpec, delay: float) -> float:
    """Exact steady-state performance: sum of weighted modal variances."""
    require_stable(spectrum, delay)
    return _modal_sum(*_nonzero_modes(spectrum, out), delay)


def rho_approx(spectrum: SpectralCache, out: OutputSpec, delay: float) -> float:
    """Closed-form performance fit; underestimates rho_exact by < 2e-4 relative.

    Raises DomainError at zero delay, where callers use rho_exact directly.
    """
    if delay == 0.0:
        raise DomainError("the fit requires a positive delay; use rho_exact at zero")
    require_stable(spectrum, delay)
    return _fit_sum(*_nonzero_modes(spectrum, out), delay)


def rho_approx_from_caches(caches: EdgeFormCaches) -> float:
    """Trace-form evaluation of the performance fit from the design caches.

    Identical to the eigen-sum form of rho_approx. At zero delay it reduces
    to the exact measure 0.5 Tr[gram @ lap_pinv], which is what the design
    loop tracks there.
    """
    gram, n = caches.output_gram, caches.laplacian.shape[0]

    def trace_with_gram(matrix: np.ndarray) -> float:
        # Tr[gram @ M] for symmetric M with no n x n temporary; s (tr M - 1ᵀM1 / n) for a scale.
        if np.ndim(gram) == 0:
            return gram * (float(np.trace(matrix)) - float(matrix.sum()) / n)
        return float(np.vdot(gram, matrix))

    base = 0.5 * trace_with_gram(caches.lap_pinv)
    tau = caches.delay
    if tau == 0.0:
        return base
    gram_trace = gram * (n - 1) if np.ndim(gram) == 0 else float(np.trace(gram))
    return (
        base
        + (2.0 * tau / math.pi) * trace_with_gram(caches.shift_pinv)
        + 0.5 * FIT_SLOPE * tau * tau * trace_with_gram(caches.laplacian)
        + 0.5 * FIT_OFFSET * tau * gram_trace
    )


@dataclass(frozen=True)
class HardLimit:
    value: float
    optimal_uniform_weight: float


def hard_limit(node_count: int, out: OutputSpec, delay: float) -> HardLimit:
    """Delay-induced performance floor over all connected weighted graphs.

    value = delay * ||C||_F^2 / (2 (1 - sin(z))), z the cosine fixed point.
    The complete graph with every weight z/(n delay) attains it.
    """
    if not 0.0 < delay < math.inf:
        raise DomainError("the hard limit requires a positive delay (it is 0 at delay 0)")
    _check_node_count(node_count, out)
    z = cosine_fixed_point()
    value = delay * out.frobenius_sq() / (2.0 * (1.0 - math.sin(z)))
    return HardLimit(value=value, optimal_uniform_weight=z / (node_count * delay))


def sensitivities(caches: EdgeFormCaches, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """sensitivity for every pair (us[i], vs[i]) at once; endpoints unchecked."""
    tau = caches.delay
    q_lap_gram, _, *shifted = _edge_forms(caches, us, vs)
    if tau == 0.0:
        return -0.5 * q_lap_gram
    q_shift_gram, _, gram_form = shifted
    return (
        0.5 * FIT_SLOPE * tau * tau * gram_form
        - 0.5 * q_lap_gram
        + (2.0 * tau * tau / math.pi) * q_shift_gram
    )


def sensitivity(caches: EdgeFormCaches, edge: tuple[int, int]) -> float:
    """Derivative of the performance fit with respect to one edge weight.

    Valid for present edges (marginal reweighting) and absent edges
    (marginal addition). At zero delay it reduces to the exact derivative
    of 0.5 Tr[gram @ lap_pinv].
    """
    u, v = _check_endpoints(caches.laplacian.shape[0], *edge)
    return float(sensitivities(caches, np.array([u]), np.array([v]))[0])


def monotonicity_threshold(max_weighted_degree: float) -> float:
    """Delay below which adding any candidate edge cannot hurt performance.

    max_weighted_degree must cover every graph reachable during the design
    (base plus all candidate additions).
    """
    if not 0.0 < max_weighted_degree < math.inf:
        raise DomainError(
            f"max weighted degree must be positive and finite, got {max_weighted_degree}"
        )
    return cosine_fixed_point() / (2.0 * max_weighted_degree)


@dataclass(frozen=True)
class CrossoverResult:
    """Delay threshold past which the second graph outperforms the first.

    bracket is the final sign-certified bisection interval:
    difference(bracket_low) <= 0 < difference(bracket_high), where
    difference = rho(first) - rho(second), read as zero within its
    rounding bound (CROSSOVER_ROUNDING_FACTOR). certified_dominance, when
    present, is the closed-form interval on which the second graph
    provably wins; the threshold lies at or left of its lower end.
    """

    tau_star: float
    bracket_low: float
    bracket_high: float
    difference_low: float
    difference_high: float
    certified_dominance: tuple[float, float] | None


@dataclass(frozen=True)
class DelaySweep:
    """Exact performance of one or two graphs on a log-spaced delay grid.

    taus runs from 1e-4 to 1 - 1e-9 of the common stability threshold, so
    every sample is stable; rho holds each graph's rho_exact at every tau.
    crossover is crossover_delay's result for two graphs, None for one.
    """

    taus: np.ndarray
    rho: tuple[np.ndarray, ...]
    crossover: CrossoverResult | None


def delay_sweep(
    graphs: Sequence[WeightedGraph], out: OutputSpec, samples: int = 400
) -> DelaySweep:
    """Sweep one or two graphs over their common stable delay range, with one
    eigendecomposition per graph; a two-graph crossover reads the same rows."""
    if not isinstance(samples, (int, np.integer)) or samples < 2:
        raise ValueError(f"need an integer of at least two samples, got {samples!r}")
    if len(graphs) not in (1, 2):
        raise ValueError("a delay sweep takes one or two graphs")
    spectra = [_checked_spectrum(graph, out) for graph in graphs]
    # Modal weights do not depend on the delay: take them once per spectrum.
    modes = [_nonzero_modes(spectrum, out) for spectrum in spectra]
    tau_hi = math.pi / (2.0 * max(spectrum.lambda_max for spectrum in spectra))
    taus = np.geomspace(1e-4 * tau_hi, (1.0 - 1e-9) * tau_hi, samples)
    # One scalar modal sum per delay: a (samples x modes) array costs more memory.
    rho = tuple(np.array([_modal_sum(*m, float(tau)) for tau in taus]) for m in modes)
    crossover = _crossover(taus, tau_hi, spectra, modes, rho) if len(graphs) == 2 else None
    return DelaySweep(taus=taus, rho=rho, crossover=crossover)


def _crossover(taus, tau_hi, spectra, modes, rho) -> CrossoverResult | None:
    """crossover_delay from a two-graph sweep's grid values."""
    (spec_a, spec_b), (modes_a, modes_b) = spectra, modes
    rounding = CROSSOVER_ROUNDING_FACTOR * len(modes_a[0]) * np.finfo(float).eps

    def rounded(first, second):
        diff = first - second
        return np.where(np.abs(diff) <= rounding * (first + second), 0.0, diff)

    diffs = rounded(*rho)
    nonpos = np.flatnonzero(diffs <= 0.0)
    if not (diffs < 0.0).any() or nonpos[-1] == len(taus) - 1:
        return None
    last = int(nonpos[-1])
    if not np.all(diffs[last + 1 :] > 0.0):
        return None

    lo, hi = float(taus[last]), float(taus[last + 1])
    d_lo, d_hi = float(diffs[last]), float(diffs[last + 1])
    while hi - lo > 1e-13 * tau_hi:
        mid = 0.5 * (lo + hi)
        d_mid = float(rounded(_modal_sum(*modes_a, mid), _modal_sum(*modes_b, mid)))
        if d_mid > 0.0:
            hi, d_hi = mid, d_mid
        else:
            lo, d_lo = mid, d_mid

    dominance = None
    edge_tau = math.pi / (2.0 * spec_a.lambda_max)
    # The second test: a lambda_max an ulp below the first's can round onto the boundary.
    if spec_a.lambda_max > spec_b.lambda_max and edge_tau * spec_b.lambda_max < math.pi / 2.0:
        p_hat = _modal_sum(*modes_b, edge_tau)
        dominance = (
            math.pi * p_hat / (2.0 * p_hat * spec_a.lambda_max + 1.0),
            edge_tau,
        )
    return CrossoverResult(
        tau_star=0.5 * (lo + hi),
        bracket_low=lo,
        bracket_high=hi,
        difference_low=d_lo,
        difference_high=d_hi,
        certified_dominance=dominance,
    )


def crossover_delay(
    graph_a: WeightedGraph,
    graph_b: WeightedGraph,
    out: OutputSpec,
    samples: int = 400,
) -> CrossoverResult | None:
    """Smallest delay past which graph_b beats graph_a at every sample.

    Scans delay_sweep's grid over the common stability interval, then
    bisects the last sign change of rho(graph_a) - rho(graph_b). A
    difference within the modal sums' rounding bound counts as zero, both
    on the grid and in the bisection. Returns None when the difference is
    never negative or never changes sign on the grid, or when it is not
    positive at every sample past the last change.
    """
    return delay_sweep((graph_a, graph_b), out, samples).crossover


def mode_variance_quadrature(lam: float, delay: float, rel_tol: float = 1e-9) -> float:
    """mode_variance computed by frequency-domain integration, no closed form.

    Integrates the squared magnitude of the mode's frequency response,
    1 / ((lam cos(delay w))² + (w - lam sin(delay w))²), over the real
    line divided by 2 pi. The integrand is even; beyond the resonance
    region it is handled one oscillation period at a time with fixed
    Gauss-Legendre panels until the analytic tail remainder
    1/W + O(lam/(delay W³)) is certified below rel_tol.
    """
    if not 0.0 < lam < math.inf:
        raise DomainError(f"mode rate must be positive and finite, got {lam}")
    if not 0.0 <= delay < math.inf:
        raise DomainError("delay must be nonnegative")
    if delay * lam >= math.pi / 2.0:
        raise DomainError("mode is unstable; the integral diverges")
    # Imported here: scipy.integrate costs more to import than the package.
    from scipy.integrate import quad

    def integrand(w):
        return 1.0 / (
            (lam * np.cos(delay * w)) ** 2 + (w - lam * np.sin(delay * w)) ** 2
        )

    if delay == 0.0:
        value, _ = quad(integrand, 0.0, np.inf, limit=200)
        return 2.0 * value / (2.0 * math.pi)

    period = 2.0 * math.pi / delay
    core_end = max(4.0 * lam, 2.0 * period)
    total, _ = quad(integrand, 0.0, core_end, limit=500, epsabs=0.0, epsrel=1e-12)
    nodes, gauss_w = np.polynomial.legendre.leggauss(24)
    omega = core_end
    while True:
        estimate = 2.0 * (total + 1.0 / omega)
        # Tail past omega equals 1/omega up to this certified remainder.
        remainder = 2.0 * (
            4.0 * lam / (delay * omega**3) + 2.1 * lam * lam / omega**3
        )
        if remainder <= rel_tol * abs(estimate):
            break
        mid = omega + 0.5 * period
        half = 0.5 * period
        total += half * float(np.sum(gauss_w * integrand(mid + half * nodes)))
        omega += period
    return 2.0 * (total + 1.0 / omega) / (2.0 * math.pi)


@dataclass(frozen=True)
class PerformanceReport:
    """Headline numbers for one graph at one delay."""

    rho_exact: float
    rho_approx: float
    relative_gap: float
    stability_margin: float
    hard_limit: float
    delta_weights: tuple[float, ...]


def performance_report(
    graph: WeightedGraph, out: OutputSpec, delay: float
) -> PerformanceReport:
    """Full exact-plus-fit analysis of one graph.

    At zero delay the fit column is filled with the exact value and the
    hard limit is 0 by convention.
    """
    spectrum = _checked_spectrum(graph, out)
    stability = require_stable(spectrum, delay)
    lam, weights = _nonzero_modes(spectrum, out)
    exact = _modal_sum(lam, weights, delay)
    if delay == 0.0:
        approx, limit = exact, 0.0
    else:
        approx = _fit_sum(lam, weights, delay)
        limit = hard_limit(graph.node_count, out, delay).value
    return PerformanceReport(
        rho_exact=exact,
        rho_approx=approx,
        relative_gap=(exact - approx) / exact if exact != 0.0 else 0.0,
        stability_margin=stability.margin,
        hard_limit=limit,
        delta_weights=tuple(float(w) for w in weights),
    )
