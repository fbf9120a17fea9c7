"""Adaptive panel quadrature with an interleaved 7/15-point rule pair.

The torque integrands are smooth except for a sharp phonon resonance
(width ~9e11 rad/s on a ~9e14 rad/s domain) and thermal-scale structure,
so a globally adaptive Gauss-Kronrod scheme with resonance breakpoints
converges in a few dozen panels (QUADPACK's greedy scheme, Piessens et
al., 1983). The engine is deterministic: identical inputs produce an
identical panel sequence and an identical float result. It also runs
many integrands in lockstep, such as gamma_b at every distance of a
sweep: each round evaluates the split halves of all of them in one
kernel call, and each keeps the bits it has when integrated alone.

Node and weight tables are the standard published 15-point Kronrod
extension of 7-point Gauss; the test suite verifies them by polynomial
exactness (degree 22 for the 15-point rule, degree 13 for the embedded
7-point rule).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, NanospinError, TailNotNegligibleError

__all__ = [
    "QuadratureConfig",
    "IntegrationResult",
    "integrate",
    "integrate_with_diagnostics",
]

# Kronrod-15 abscissae (positive half, descending) and weights; the
# embedded Gauss-7 points are the odd-index entries plus the center.
_XK = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_WK = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

# Full 15-point arrays on [-1, 1], ascending.
_NODES = np.concatenate([-_XK[:-1], [0.0], _XK[-2::-1]])
_WEIGHTS_K = np.concatenate([_WK[:-1], [_WK[-1]], _WK[-2::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:14:2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and domain settings for the frequency integrals.

    rel_tol : relative tolerance on the total integral, in (0, 1e-3].
    abs_tol : absolute tolerance floor (torque units at the call site).
    max_subdivisions : panel splits before giving up.
    omega_min : lower integration bound, rad/s. The raw inter-particle
        kernel is infrared-divergent, so the physical integrals start at
        a small cutoff (default 1e13, ~7% of the phonon resonance); all
        reported quantities are insensitive to it at the 1e-4 level.
    omega_max : upper cutoff; None means "derive from the thermal state"
        (resolved by the torque assemblers before integration).
    breakpoints : initial panel edges (resonances, thermal scale);
        normalized to a sorted tuple, clipped to the domain at call time.
    certify_tail : require |kernel(omega_max)| <= 1e-12 * peak |kernel|.
        Disable for finite-support integrands whose natural domain ends
        exactly at omega_max.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 0.0
    max_subdivisions: int = 200
    omega_min: float = 1e13
    omega_max: float | None = None
    breakpoints: tuple[float, ...] = ()
    certify_tail: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-3):
            raise ConfigError("rel_tol must lie in (0, 1e-3]")
        if self.abs_tol < 0.0:
            raise ConfigError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ConfigError("max_subdivisions must be >= 1")
        if self.omega_min < 0.0:
            raise ConfigError("omega_min must be >= 0")
        pts = tuple(sorted(float(b) for b in set(self.breakpoints)))
        object.__setattr__(self, "breakpoints", pts)
        if self.omega_max is not None:
            if self.omega_max <= self.omega_min:
                raise ConfigError("omega_max must exceed omega_min")
            if pts and self.omega_max <= pts[-1]:
                raise ConfigError("omega_max must exceed the largest breakpoint")


@dataclass(frozen=True)
class IntegrationResult:
    """Value plus the diagnostics the run summary reports."""

    value: float
    error_estimate: float
    panels: int
    evaluations: int
    peak_kernel: float


def _panels(kernel, owners: np.ndarray, a: np.ndarray, b: np.ndarray):
    """15-point evaluations of the panels [a[i], b[i]], panel i belonging
    to integrand owners[i], in one kernel call.

    Returns per panel I15, |I15 - I7| and peak |f| (Python floats), and
    whether its kernel values are finite. Each panel's sums are 1-D dot
    products, as for a lone panel: a 2-D product may round differently.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    w = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(kernel(w, owners), dtype=float)
    if y.shape != w.shape:
        raise ConfigError("kernel must map a float array to a same-shape array")
    finite = np.isfinite(y).all(axis=1).tolist()
    peaks = np.max(np.abs(y), axis=1).tolist()
    i15, err = [], []
    for h, row, ok in zip(half.tolist(), y, finite):
        k = h * float(_WEIGHTS_K @ row) if ok else 0.0
        i15.append(k)
        err.append(abs(k - h * float(_WEIGHTS_G @ row)) if ok else 0.0)
    return i15, err, peaks, finite


class _Integral:
    """One integrand's panel heap and running sums."""

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, float, float, float]] = []
        self.pushes = itertools.count()  # ties in error pop in insertion order
        self.total = 0.0
        self.err_total = 0.0
        self.peak = 0.0
        self.evals = 0
        self.splits = 0
        self.outcome: IntegrationResult | NanospinError | None = None

    def add(self, a: float, b: float, i15: float, err: float, peak: float) -> None:
        self.total += i15
        self.err_total += err
        self.peak = max(self.peak, peak)
        self.evals += 15
        heapq.heappush(self.heap, (-err, next(self.pushes), a, b, i15))

    def converged(self, quad: QuadratureConfig) -> bool:
        return self.err_total <= max(quad.abs_tol, quad.rel_tol * abs(self.total))

    def pop_worst(self) -> tuple[float, float]:
        neg_err, _, a, b, i_old = heapq.heappop(self.heap)
        self.total -= i_old
        self.err_total += neg_err  # neg_err = -err of the popped panel
        return a, b


def _lockstep(kernel, quad: QuadratureConfig, n: int) -> list[IntegrationResult | NanospinError]:
    """Integrate n integrands, each exactly as a lone one would be.

    Every round splits the worst panel of each integrand that has not
    converged yet, and evaluates all the halves in one kernel call.
    """
    if quad.omega_max is None:
        raise ConfigError("omega_max unresolved; supply a value or use the torque-level entry points")
    lo, hi = quad.omega_min, quad.omega_max
    edges = [lo] + [b for b in quad.breakpoints if lo < b < hi] + [hi]
    integrals = [_Integral() for _ in range(n)]

    # one row per panel: (integrand, a, b), both halves of a split in order
    rows = [(j, a, b) for j in range(n) for a, b in zip(edges[:-1], edges[1:])]
    while rows:
        owners, a, b = (np.array(c) for c in zip(*rows))
        for (j, aa, bb), i15, err, pk, ok in zip(rows, *_panels(kernel, owners, a, b)):
            s = integrals[j]
            if s.outcome is not None:
                continue
            if not ok:
                s.outcome = ConvergenceError(
                    f"kernel is not finite inside panel [{aa:.6e}, {bb:.6e}]",
                    worst_panel=(aa, bb),
                )
                continue
            s.add(aa, bb, i15, err, pk)
        rows = []
        for j, s in enumerate(integrals):
            if s.outcome is not None or s.converged(quad):
                continue
            if s.splits >= quad.max_subdivisions:
                worst = s.heap[0]
                s.outcome = ConvergenceError(
                    f"no convergence after {s.splits} subdivisions; "
                    f"worst panel [{worst[2]:.6e}, {worst[3]:.6e}] "
                    f"error {-worst[0]:.3e}",
                    worst_panel=(worst[2], worst[3]),
                )
                continue
            aa, bb = s.pop_worst()
            m = 0.5 * (aa + bb)
            rows += [(j, aa, m), (j, m, bb)]
            s.splits += 1

    done = [j for j, s in enumerate(integrals) if s.outcome is None]
    if quad.certify_tail and done:
        owners = np.array(done)
        tails = np.abs(np.asarray(kernel(np.full((len(done), 1), hi), owners), dtype=float)).reshape(-1)
        for j, tail in zip(done, tails.tolist()):
            s = integrals[j]
            s.evals += 1
            s.peak = max(s.peak, tail)
            if tail > 1e-12 * s.peak:
                s.outcome = TailNotNegligibleError(
                    f"kernel at omega_max={hi:.6e} is {tail:.3e}, "
                    f"above 1e-12 of the peak {s.peak:.3e}; raise omega_max"
                )
    for s in integrals:
        if s.outcome is None:
            s.outcome = IntegrationResult(
                value=s.total,
                error_estimate=s.err_total,
                panels=len(s.heap),
                evaluations=s.evals,
                peak_kernel=s.peak,
            )
    return [s.outcome for s in integrals]


def integrate_with_diagnostics(
    kernel: Callable[..., np.ndarray],
    quad: QuadratureConfig,
    n: int | None = None,
) -> IntegrationResult | list[IntegrationResult | NanospinError]:
    """Globally adaptive integration of kernel over [omega_min, omega_max].

    Splits the current worst panel at its midpoint until the summed error
    estimate meets max(abs_tol, rel_tol * |integral|). Raises
    ConvergenceError (with the worst panel bounds) after max_subdivisions,
    and TailNotNegligibleError when tail certification fails.

    With n, integrates n integrands in lockstep: kernel(w, owners) maps a
    2-D frequency array w to same-shape values, row i belonging to
    integrand owners[i]. Each integrand gets the panels, sums and result
    it would get alone, and the return value is a list with, for each
    integrand, its IntegrationResult or the error it would have raised.
    """
    if n is not None:
        return _lockstep(kernel, quad, n)
    (result,) = _lockstep(lambda w, _owners: kernel(w), quad, 1)
    if isinstance(result, NanospinError):
        raise result
    return result


def integrate(kernel: Callable[[np.ndarray], np.ndarray], quad: QuadratureConfig) -> float:
    """Value-only wrapper around integrate_with_diagnostics."""
    return integrate_with_diagnostics(kernel, quad).value


def resolved(quad: QuadratureConfig, omega_max: float, extra_breakpoints: Sequence[float] = ()) -> QuadratureConfig:
    """Copy of quad with omega_max filled in (if unset) and breakpoints merged.

    Breakpoints outside (0, omega_max) are dropped: they mark panel edges,
    so points outside the domain carry no information.
    """
    omax = quad.omega_max if quad.omega_max is not None else omega_max
    merged = tuple(quad.breakpoints) + tuple(extra_breakpoints)
    return QuadratureConfig(
        rel_tol=quad.rel_tol,
        abs_tol=quad.abs_tol,
        max_subdivisions=quad.max_subdivisions,
        omega_min=quad.omega_min,
        omega_max=omax,
        breakpoints=tuple(b for b in merged if 0.0 < b < omax),
        certify_tail=quad.certify_tail,
    )
