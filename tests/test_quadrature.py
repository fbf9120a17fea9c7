"""Engine checks: rule-pair exactness, a resonant oracle integral,
failure diagnostics, determinism, and lockstep batches against a
one-panel-at-a-time reference."""

import heapq

import numpy as np
import pytest

from nanospin import ConfigError, ConvergenceError, QuadratureConfig, TailNotNegligibleError, integrate
from nanospin.quadrature import (
    _NODES,
    _WEIGHTS_G,
    _WEIGHTS_K,
    IntegrationResult,
    integrate_with_diagnostics,
    resolved,
)


def reference_integrate(kernel, quad):
    """The engine as a plain loop: one 15-point panel per kernel call,
    split the worst panel until the error budget is met. The lockstep
    engine must reproduce its every bit."""
    lo, hi = quad.omega_min, quad.omega_max

    def panel(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        y = np.asarray(kernel(mid + half * _NODES), dtype=float)
        if not np.all(np.isfinite(y)):
            raise ConvergenceError("not finite", worst_panel=(a, b))
        i15 = half * float(_WEIGHTS_K @ y)
        return i15, abs(i15 - half * float(_WEIGHTS_G @ y)), float(np.max(np.abs(y)))

    heap, total, err_total, peak, evals = [], 0.0, 0.0, 0.0, 0
    edges = [lo] + [b for b in quad.breakpoints if lo < b < hi] + [hi]
    splits = 0
    pending = list(zip(edges[:-1], edges[1:]))
    while True:
        for a, b in pending:
            i15, err, pk = panel(a, b)
            total, err_total, peak, evals = total + i15, err_total + err, max(peak, pk), evals + 15
            heapq.heappush(heap, (-err, evals, a, b, i15))
        if err_total <= quad.rel_tol * abs(total):
            break
        if splits >= quad.max_subdivisions:
            raise ConvergenceError("no convergence", worst_panel=heap[0][2:4])
        neg_err, _, a, b, i_old = heapq.heappop(heap)
        total -= i_old
        err_total += neg_err
        pending = [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
        splits += 1
    tail = float(np.abs(np.asarray(kernel(np.array([hi])), dtype=float))[0])
    evals += 1
    if tail > 1e-12 * max(peak, tail):
        raise TailNotNegligibleError("tail")
    return IntegrationResult(total, err_total, len(heap), evals)


def test_rule_pair_polynomial_exactness():
    # 15-point rule integrates monomials exactly through degree 22; the
    # embedded 7-point rule through 13 and demonstrably not 14
    for k in range(0, 23, 2):
        exact = 2.0 / (k + 1)
        assert float(_WEIGHTS_K @ _NODES**k) == pytest.approx(exact, abs=5e-14)
    for k in range(0, 13, 2):
        exact = 2.0 / (k + 1)
        assert float(_WEIGHTS_G @ _NODES**k) == pytest.approx(exact, abs=5e-14)
    assert abs(float(_WEIGHTS_G @ _NODES**14) - 2.0 / 15.0) > 1e-5


def test_linear_kernel():
    # a ramp down to zero at the cutoff, so the tail certifies
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0)
    assert integrate(lambda w: 1.0 - w, q) == pytest.approx(0.5, rel=1e-9)


def test_lorentzian_against_analytic():
    # resonance of width gamma at w0, integrated with w0 as a breakpoint;
    # antiderivative atan((w-w0)/gamma)/gamma. The 1/w^2 tail falls below
    # 1e-12 of the peak only some 1e6 widths out, so the window ends there
    w0, gamma = 1.492e14, 8.954e11
    hi = 1e18
    q = QuadratureConfig(omega_min=0.0, omega_max=hi, breakpoints=(w0,))
    got = integrate(lambda w: 1.0 / ((w - w0) ** 2 + gamma**2), q)
    expected = (np.arctan((hi - w0) / gamma) + np.arctan(w0 / gamma)) / gamma
    assert got == pytest.approx(expected, rel=5e-9, abs=0)


def test_diagnostics_and_determinism():
    w0, gamma = 1.492e14, 8.954e11
    q = QuadratureConfig(omega_min=1e13, omega_max=9e14, breakpoints=(w0,))
    kernel = lambda w: w * np.exp(-(((w - w0) / (20 * gamma)) ** 2))
    r1 = integrate_with_diagnostics(kernel, q)
    r2 = integrate_with_diagnostics(kernel, q)
    assert r1.value == r2.value  # bit-identical
    assert r1.panels == r2.panels and r1.evaluations == r2.evaluations
    assert r1.error_estimate <= q.rel_tol * abs(r1.value)


def test_convergence_failure_carries_panel():
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0, max_subdivisions=2)
    with pytest.raises(ConvergenceError) as err:
        integrate(lambda w: np.sqrt(np.abs(w - 0.3141)), q)
    assert err.value.worst_panel is not None
    a, b = err.value.worst_panel
    assert 0.0 <= a < b <= 1.0


def test_tail_certification():
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0)
    with pytest.raises(TailNotNegligibleError):
        integrate(lambda w: w, q)
    # a kernel that has decayed at the cutoff passes
    assert integrate(lambda w: np.exp(-80.0 * w), q) > 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_tail_fails_its_integrand(bad):
    # no panel node reaches omega_max = 1, so only the tail check sees the
    # value there: max(peak, nan) keeps the peak, and inf would raise the
    # peak before the test compares the tail with it
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0)

    def kernel(w, owners):
        return np.where((w == 1.0) & (owners[:, None] == 1), bad, np.exp(-80.0 * w))

    with pytest.raises(ConvergenceError, match="not finite at omega_max=1.000000e[+]00"):
        integrate(lambda w: kernel(w, np.ones(len(w), dtype=int)), q)
    fine, failed = integrate_with_diagnostics(kernel, q, 2)
    assert fine == integrate_with_diagnostics(lambda w: np.exp(-80.0 * w), q)
    assert isinstance(failed, ConvergenceError) and "not finite at omega_max" in str(failed)


def test_zero_kernel():
    q = QuadratureConfig(omega_min=1e13, omega_max=9e14)
    assert integrate(lambda w: 0.0 * w, q) == 0.0


def test_nonfinite_kernel_rejected():
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0)
    with np.errstate(divide="ignore"), pytest.raises(ConvergenceError):
        integrate(lambda w: 1.0 / (w - 0.5), q)


def test_config_validation():
    with pytest.raises(ConfigError):
        QuadratureConfig(rel_tol=1e-2)
    with pytest.raises(ConfigError):
        QuadratureConfig(rel_tol=0.0)
    for abs_tol in (-1.0, 1e-30, float("nan")):
        with pytest.raises(ConfigError, match="abs_tol_Nm"):
            QuadratureConfig(abs_tol=abs_tol)
    with pytest.raises(ConfigError):
        QuadratureConfig(omega_max=5e13, breakpoints=(1e14,))
    with pytest.raises(ConfigError):
        QuadratureConfig(omega_min=1e14, omega_max=1e13)
    # breakpoints normalize to a sorted, deduplicated tuple
    q = QuadratureConfig(breakpoints=(3.0, 1.0, 3.0, 2.0), omega_max=1e15)
    assert q.breakpoints == (1.0, 2.0, 3.0)


def test_negative_omega_min_rejected():
    with pytest.raises(ConfigError, match="omega_min must be >= 0"):
        QuadratureConfig(omega_min=-1.0)


def test_kernel_of_another_shape_rejected():
    # one value per panel instead of one per node
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0)
    with pytest.raises(ConfigError, match="same-shape array"):
        integrate(lambda w: w.sum(axis=-1), q)


@pytest.mark.parametrize(
    "late_block",
    [lambda w: w[:-1], lambda w: w[:1], lambda w: w[0], lambda w: 1.0],
    ids=["row_short", "one_row", "one_node_row", "scalar"],
)
def test_kernel_of_another_shape_rejected_in_a_later_block(late_block):
    # a later round's kernel call, the block of rows it evaluates: three
    # integrands of sqrt(w), which one panel does not resolve, make a first
    # round of 3 rows and a second of 6, whose values have another shape,
    # some of which would broadcast into the round's rows
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0)
    rows = []

    def kernel(w, owners):
        rows.append(len(w))
        return np.sqrt(w) if len(rows) == 1 else late_block(w)

    with pytest.raises(ConfigError, match="same-shape array"):
        integrate_with_diagnostics(kernel, q, 3)
    assert rows == [3, 6]


def test_first_round_of_another_row_count_rejected():
    # two integrands on a window with no breakpoints have two first-round rows
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0)
    first = (np.zeros((1, len(_NODES))), np.zeros(2))
    with pytest.raises(ConfigError, match="first round has 1 rows, the first mesh 2"):
        integrate_with_diagnostics(lambda w, owners: w, q, 2, first=first)


def test_resolved_fills_and_clips():
    q = QuadratureConfig(omega_max=None, breakpoints=(1e14,))
    r = resolved(q, 5e14, extra_breakpoints=(2e14, 9e14, 0.0))
    assert r.omega_max == 5e14
    assert r.breakpoints == (1e14, 2e14)  # 9e14 and 0.0 dropped
    # explicit omega_max wins over the fill value
    q2 = QuadratureConfig(omega_max=7e14)
    assert resolved(q2, 5e14).omega_max == 7e14


def test_unresolved_omega_max_rejected():
    with pytest.raises(ConfigError):
        integrate(lambda w: w, QuadratureConfig())


def resonance(w, width):
    # by 5e15 the algebraic tail is below 1e-12 of the peak the refinement
    # sees at every width used here, so the windows end there
    return w * np.exp(-(((w - 1.492e14) / width) ** 2)) + 1e-3 * np.sqrt(w / (1.0 + (w / 3e14) ** 8))


def test_single_integral_matches_reference():
    quads = [
        QuadratureConfig(omega_min=1e13, omega_max=5e15, breakpoints=(1.492e14,)),
        QuadratureConfig(omega_min=1e13, omega_max=5e15, rel_tol=1e-11),
    ]
    for q in quads:
        for width in (2e11, 1.8e13, 3e14):
            kernel = lambda w: resonance(w, width)  # noqa: E731
            assert integrate_with_diagnostics(kernel, q) == reference_integrate(kernel, q)


def test_lockstep_batch_matches_reference_per_integrand():
    # widths over three decades converge after very different numbers of
    # rounds; each must get the bits it gets alone
    rng = np.random.default_rng(7)
    widths = np.exp(rng.uniform(np.log(1e11), np.log(1e14), 40))
    q = QuadratureConfig(omega_min=1e13, omega_max=5e15, breakpoints=(1.492e14, 1.823e14))
    batch = integrate_with_diagnostics(lambda w, owners: resonance(w, widths[owners, None]), q, len(widths))
    for width, got in zip(widths.tolist(), batch):
        assert got == reference_integrate(lambda w: resonance(w, width), q)


def test_lockstep_failures_stay_per_integrand():
    # integrand 1 runs out of subdivisions, integrand 2 is not finite and
    # integrand 3 has not decayed at the cutoff; 0 and 4 converge as alone
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0, max_subdivisions=30)
    shifts = np.array([0.0, 0.0, 0.5, 0.0, 1.0])

    def kernel(w, owners):
        y = np.exp(-80.0 * w) * (1.0 + shifts[owners, None])
        y = np.where(owners[:, None] == 1, y / np.sqrt(np.abs(w - 0.03141)), y)
        y = np.where((owners[:, None] == 2) & (np.abs(w - 0.5) < 0.01), np.inf, y)
        return np.where(owners[:, None] == 3, 1.0 + 0.0 * w, y)

    results = integrate_with_diagnostics(kernel, q, len(shifts))
    assert isinstance(results[1], ConvergenceError) and results[1].worst_panel is not None
    assert isinstance(results[2], ConvergenceError) and "not finite" in str(results[2])
    assert isinstance(results[3], TailNotNegligibleError)
    for j in (0, 4):
        assert results[j] == reference_integrate(lambda w: np.exp(-80.0 * w) * (1.0 + shifts[j]), q)


def test_lockstep_of_nothing():
    assert integrate_with_diagnostics(lambda w, owners: w, QuadratureConfig(omega_max=1e15), 0) == []
