"""Adaptive panel quadrature with an interleaved 7/15-point rule pair.

The torque integrands are smooth except for a sharp phonon resonance
(width ~9e11 rad/s on a ~9e14 rad/s domain) and thermal-scale structure,
so a globally adaptive Gauss-Kronrod scheme with resonance breakpoints
converges in a few dozen panels (QUADPACK's greedy scheme, Piessens et
al., 1983). The engine is deterministic: identical inputs produce an
identical panel sequence and an identical float result.

It also runs many integrands in lockstep, such as the nodes of a torque
surrogate or the gap channel's three moments: each round splits the
worst panel of every unfinished integrand and passes all of the round's
halves to the kernel in one call, so a kernel's memory grows with the
batch. A row's values do not depend on the other rows of its call, and
an integrand's panels and sums do not depend on the others in its
batch, so each keeps the panels and bits it has when integrated alone,
whatever ran before and on whichever thread. A caller that keeps a
batch's kernel values on its first mesh and at omega_max may pass them
for the first round and the tail check; the engine itself keeps nothing
between calls.

An integrand whose splits run out with its error sum at or below
QUADPACK's roundoff floor, 50 eps times the integral of |f|, is
accepted: no number of splits meets a tolerance below it in binary64 (a
gap moment tightened past 1e-12, as gamma_b near its 2.69 um sign edge
asks). The floor is not part of the ordinary stopping test, so no
integral that meets rel_tol stops earlier than it would without it.

The 7/15 error estimate sees only the kernel's values at a panel's
nodes. A feature that decays faster than any power and falls between
the nodes of a first-mesh panel reads as absent, with zero error, so
that panel is never split. The first mesh must therefore cut any narrow
feature with no algebraic tail into panels about one feature width wide,
out to where its remaining weight is below rel_tol; an edge at its peak
is not enough (CHANGES.md measures a Gaussian). A Lorentzian's
algebraic tail reaches the nodes of every panel, so the estimate sees
it; the torque kernels' resonances are Lorentzians.

Node and weight tables are the standard published 15-point Kronrod
extension of 7-point Gauss; the test suite verifies them by polynomial
exactness (degree 22 for the 15-point rule, degree 13 for the embedded
7-point rule).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
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
    abs_tol : must be 0: the channel prefactors, applied after the
        stopping test, differ by ~44 decades, so no one floor fits both.
    max_subdivisions : panel splits before giving up.
    omega_min : lower integration bound, rad/s. The raw inter-particle
        kernel is infrared-divergent, so the physical integrals start at
        a small cutoff (default 1e13, ~7% of the phonon resonance). From
        it, gamma_s moves -3.3e-3 at 7e13, -3.2e-4 at 3e13 and +1.3e-5 at
        every omega_min <= 1e12, gamma_b at 100 nm -7.3e-6 at 7e13, +6.2e-5
        at 1e12, +6.9e-4 at 1e11 and +6.9e-3 at 1e10, and at 1e9 the gap
        moments raise ConvergenceError (ROADMAP item 23).
    omega_max : upper cutoff; None means "derive from the thermal state"
        (resolved by the torque assemblers before integration).
    breakpoints : initial panel edges (resonances, thermal scale);
        normalized to a sorted tuple, clipped to the domain at call time.

    Every integral certifies its tail: |kernel(omega_max)| must be at
    most 1e-12 of the peak |kernel| it saw.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 0.0
    max_subdivisions: int = 200
    omega_min: float = 1e13
    omega_max: float | None = None
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-3):
            raise ConfigError("rel_tol must lie in (0, 1e-3]")
        if self.abs_tol != 0.0:
            raise ConfigError(
                "abs_tol (abs_tol_Nm) must be 0: the channel prefactors, applied after the stopping test, "
                "differ by some 44 decades, so no one absolute floor in N m fits both channels"
            )
        if self.max_subdivisions < 1:
            raise ConfigError("max_subdivisions must be >= 1")
        if self.omega_min < 0.0:
            raise ConfigError("omega_min must be >= 0")
        for name in ("max_subdivisions", "omega_min", "omega_max"):
            if (value := getattr(self, name)) is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        pts = tuple(sorted(float(b) for b in set(self.breakpoints)))
        if not all(map(math.isfinite, pts)):
            raise ConfigError("breakpoints must be finite")
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


def _first_mesh(quad: QuadratureConfig, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first round of n integrands on quad's window: owners, a and b,
    row i the panel [a[i], b[i]] of integrand owners[i], each integrand's
    panels between omega_min, the breakpoints inside the window and
    omega_max, integrand by integrand. Row i's nodes are _nodes(a, b)[i]."""
    if quad.omega_max is None:
        raise ConfigError("omega_max unresolved; supply a value or use the torque-level entry points")
    lo, hi = quad.omega_min, quad.omega_max
    edges = [lo] + [b for b in quad.breakpoints if lo < b < hi] + [hi]
    return np.repeat(np.arange(n), len(edges) - 1), np.tile(edges[:-1], n), np.tile(edges[1:], n)


def _nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 15 rule nodes of each panel [a[i], b[i]], one row each."""
    return (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _NODES


def _rule_sums(y, a: np.ndarray, b: np.ndarray):
    """An iterator of one tuple per panel [a[i], b[i]] with kernel values
    y[i] at its nodes: I15, |I15 - I7|, the 15-point integral of |f| and
    peak |f| (Python floats), and whether its kernel values are finite.

    The rule sums are np.vecdot over the rows, which makes for each row
    the same BLAS dot as the 1-D product of a lone panel; a 2-D product
    (y @ w, einsum, (y * w).sum(1)) may round differently.
    """
    half = 0.5 * (b - a)
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        y = np.where(finite[:, None], y, 0.0)  # sums of 0; the panel fails its integrand
    ay = np.abs(y)
    i15 = half * np.vecdot(y, _WEIGHTS_K)
    err = np.abs(i15 - half * np.vecdot(y, _WEIGHTS_G))
    resabs = half * np.vecdot(ay, _WEIGHTS_K)
    return zip(i15.tolist(), err.tolist(), resabs.tolist(), ay.max(axis=1).tolist(), finite.tolist())


# QUADPACK's roundoff floor: an error sum at or below this multiple of
# the integral of |f| cannot be resolved further in binary64
_ROUNDOFF = 50.0 * np.finfo(float).eps


class _Integral:
    """One integrand's greedy refinement: its panels in a heap by error,
    its running sums and its outcome."""

    def __init__(self) -> None:
        self.heap: list[tuple[float, int, float, float, float, float]] = []
        self.pushes = itertools.count()  # ties in error pop in insertion order
        self.total = 0.0
        self.err_total = 0.0
        self.resabs = 0.0
        self.peak = 0.0
        self.evals = 0
        self.splits = 0
        self.outcome: IntegrationResult | NanospinError | None = None

    def add(self, panel: tuple[float, float], entry: tuple[float, float, float, float, bool]) -> None:
        """Add an evaluated panel; a non-finite one fails the integrand."""
        if self.outcome is not None:
            return
        (a, b), (i15, err, resabs, peak, finite) = panel, entry
        if not finite:
            self.outcome = ConvergenceError(
                f"kernel is not finite inside panel [{a:.6e}, {b:.6e}]",
                worst_panel=(a, b),
            )
            return
        self.total += i15
        self.err_total += err
        self.resabs += resabs
        if peak > self.peak:
            self.peak = peak
        self.evals += 15
        heapq.heappush(self.heap, (-err, next(self.pushes), a, b, i15, resabs))

    def split(self, quad: QuadratureConfig, j: int, owners: list, a: list, b: list) -> None:
        """Add the halves of the worst panel, which leaves the sums, to the
        round's owners (as j), a and b; none once converged or failed."""
        if self.outcome is not None or self.err_total <= quad.rel_tol * abs(self.total):
            return
        if self.splits >= quad.max_subdivisions:
            if self.err_total > _ROUNDOFF * self.resabs:  # else as far as binary64 resolves it
                neg_err, _, lo, hi, *_ = self.heap[0]
                self.outcome = ConvergenceError(
                    f"no convergence after {self.splits} subdivisions; "
                    f"worst panel [{lo:.6e}, {hi:.6e}] error {-neg_err:.3e}",
                    worst_panel=(lo, hi),
                )
            return
        neg_err, _, lo, hi, i15, resabs = heapq.heappop(self.heap)
        self.total -= i15
        self.err_total += neg_err
        self.resabs -= resabs
        self.splits += 1
        m = 0.5 * (lo + hi)
        owners += j, j
        a += lo, m
        b += m, hi


def _lockstep(
    kernel, quad: QuadratureConfig, n: int, first: tuple[np.ndarray, np.ndarray] | None = None
) -> list[IntegrationResult | NanospinError]:
    """Integrate n integrands, each exactly as a lone one would be.

    Every round splits the worst panel of each unfinished integrand,
    evaluates all the halves in one kernel call and adds them in row order,
    the order a lone integrand adds its panels in, so its sums keep their
    bits. first, when given, takes the place of the first round's and the
    tail check's kernel calls (see integrate_with_diagnostics).
    """
    owners, a, b = _first_mesh(quad, n)
    rows, tails = (None, None) if first is None else first
    if rows is not None and np.shape(rows) != (len(owners), len(_NODES)):
        raise ConfigError(f"first round has {len(rows)} rows, the first mesh {len(owners)}, each of {len(_NODES)} values")
    integrals = [_Integral() for _ in range(n)]
    while len(owners):
        y = np.ascontiguousarray(kernel(_nodes(a, b), owners) if rows is None else rows, dtype=float)
        if y.shape != (len(owners), len(_NODES)):
            raise ConfigError("kernel must map a float array to a same-shape array")
        for j, panel, entry in zip(owners.tolist(), zip(a.tolist(), b.tolist()), _rule_sums(y, a, b)):
            integrals[j].add(panel, entry)
        rows, owners, a, b = None, [], [], []
        for j, s in enumerate(integrals):
            s.split(quad, j, owners, a, b)
        owners, a, b = np.array(owners, dtype=int), np.array(a), np.array(b)

    hi = quad.omega_max
    done = [j for j, s in enumerate(integrals) if s.outcome is None]
    if done:
        y = kernel(np.full((len(done), 1), hi), np.array(done)) if tails is None else np.asarray(tails)[done]
        for j, tail in zip(done, np.abs(np.asarray(y, dtype=float)).reshape(-1).tolist()):
            s = integrals[j]
            s.evals += 1
            if not math.isfinite(tail):  # max(peak, nan) would keep the peak
                s.outcome = ConvergenceError(f"kernel is not finite at omega_max={hi:.6e}")
                continue
            s.peak = max(s.peak, tail)
            if tail > 1e-12 * s.peak:
                s.outcome = TailNotNegligibleError(
                    f"kernel at omega_max={hi:.6e} is {tail:.3e}, "
                    f"above 1e-12 of the peak {s.peak:.3e}; raise omega_max"
                )
    for s in integrals:
        if s.outcome is None:
            s.outcome = IntegrationResult(s.total, s.err_total, len(s.heap), s.evals)
    return [s.outcome for s in integrals]


def integrate_with_diagnostics(
    kernel: Callable[..., np.ndarray],
    quad: QuadratureConfig,
    n: int | None = None,
    *,
    first: tuple[np.ndarray, np.ndarray] | None = None,
) -> IntegrationResult | list[IntegrationResult | NanospinError]:
    """Globally adaptive integration of kernel over [omega_min, omega_max].

    Splits the current worst panel at its midpoint until the summed error
    estimate meets rel_tol * |integral|. Raises
    ConvergenceError (with the worst panel bounds) after max_subdivisions,
    unless the error sum then lies within the roundoff floor
    50 * eps * integral(|f|), and TailNotNegligibleError when tail
    certification fails; a kernel that is not finite inside a panel or
    at omega_max raises ConvergenceError.

    With n, integrates n integrands in lockstep: kernel(w, owners) maps a
    2-D frequency array w to same-shape values, row i belonging to
    integrand owners[i], called once per round on all of the round's
    rows, so its temporaries grow with the number of integrands; the
    tail check is one more call, one row per finished integrand. Each
    integrand gets the panels, sums and result it would get alone, and
    the return value is a list with, for each integrand, its
    IntegrationResult or the error it would have raised.

    first, when given, pairs the kernel's values on the first round's
    rows, _first_mesh(quad, n or 1), in row order, with its value at
    omega_max for each integrand, read only for those that finish: a
    caller that keeps them passes them in place of those kernel calls.
    They must have the bits the kernel returns on the first mesh's
    _nodes; the engine keeps nothing.
    """
    if n is not None:
        return _lockstep(kernel, quad, n, first)
    (result,) = _lockstep(lambda w, _owners: kernel(w), quad, 1, first)
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
    return replace(quad, omega_max=omax, breakpoints=tuple(b for b in merged if 0.0 < b < omax))
