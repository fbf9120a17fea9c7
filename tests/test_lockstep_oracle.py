"""The lockstep engine against the engine it replaced: one split per
integrand per round, each round's halves in one kernel call, and each
panel's sums as 1-D dot products. The replayed engine evaluates panels
ahead of need, in far fewer kernel calls; every result, error class and
message must stay the same, bit for bit, and a panel the greedy order
never reaches must not matter."""

import heapq
import itertools

import numpy as np
import pytest

from nanospin import ConfigError, ConvergenceError, NanospinError, QuadratureConfig, TailNotNegligibleError
from nanospin import quadrature
from nanospin.config import RunConfig
from nanospin.dynamics import solve_nonlinear
from nanospin.quadrature import _WEIGHTS_G, _WEIGHTS_K, _NODES, IntegrationResult, integrate_with_diagnostics
from nanospin.torque import _gamma_b_results, _integrate_gamma_s, _mutual_torques

ROUNDOFF = 50.0 * np.finfo(float).eps


def oracle_panels(kernel, owners, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    w = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(kernel(w, owners), dtype=float)
    if y.shape != w.shape:
        raise ConfigError("kernel must map a float array to a same-shape array")
    finite = np.isfinite(y).all(axis=1).tolist()
    peaks = np.max(np.abs(y), axis=1).tolist()
    i15, err, resabs = [], [], []
    for h, row, ok in zip(half.tolist(), y, finite):
        k = h * float(_WEIGHTS_K @ row) if ok else 0.0
        i15.append(k)
        err.append(abs(k - h * float(_WEIGHTS_G @ row)) if ok else 0.0)
        resabs.append(h * float(_WEIGHTS_K @ np.abs(row)) if ok else 0.0)
    return i15, err, resabs, peaks, finite


class OracleIntegral:
    def __init__(self):
        self.heap = []
        self.pushes = itertools.count()
        self.total = self.err_total = self.resabs = self.peak = 0.0
        self.evals = self.splits = 0
        self.outcome = None

    def add(self, a, b, i15, err, resabs, peak):
        self.total += i15
        self.err_total += err
        self.resabs += resabs
        self.peak = max(self.peak, peak)
        self.evals += 15
        heapq.heappush(self.heap, (-err, next(self.pushes), a, b, i15, resabs))

    def converged(self, quad):
        return self.err_total <= max(quad.abs_tol, quad.rel_tol * abs(self.total))

    def pop_worst(self):
        neg_err, _, a, b, i_old, resabs = heapq.heappop(self.heap)
        self.total -= i_old
        self.err_total += neg_err
        self.resabs -= resabs
        return a, b


def oracle_lockstep(kernel, quad, n):
    """Every round splits the worst panel of each unfinished integrand;
    an integrand out of splits whose error sum lies within the roundoff
    floor 50*eps*integral(|f|) is done, any other fails."""
    if quad.omega_max is None:
        raise ConfigError("omega_max unresolved")
    lo, hi = quad.omega_min, quad.omega_max
    edges = [lo] + [b for b in quad.breakpoints if lo < b < hi] + [hi]
    integrals = [OracleIntegral() for _ in range(n)]
    rows = [(j, a, b) for j in range(n) for a, b in zip(edges[:-1], edges[1:])]
    while rows:
        owners, a, b = (np.array(c) for c in zip(*rows))
        for (j, aa, bb), i15, err, resabs, pk, ok in zip(rows, *oracle_panels(kernel, owners, a, b)):
            s = integrals[j]
            if s.outcome is not None:
                continue
            if not ok:
                s.outcome = ConvergenceError(
                    f"kernel is not finite inside panel [{aa:.6e}, {bb:.6e}]",
                    worst_panel=(aa, bb),
                )
                continue
            s.add(aa, bb, i15, err, resabs, pk)
        rows = []
        for j, s in enumerate(integrals):
            if s.outcome is not None or s.converged(quad):
                continue
            if s.splits >= quad.max_subdivisions:
                if s.err_total <= ROUNDOFF * s.resabs:
                    continue
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
            s.outcome = IntegrationResult(s.total, s.err_total, len(s.heap), s.evals, s.peak)
    return [s.outcome for s in integrals]


ENGINE = quadrature._lockstep


def bits(result):
    """A result as exact text: float reprs round-trip, and -0.0 differs
    from 0.0; an error as its class, message and worst panel."""
    if isinstance(result, list):
        return [bits(r) for r in result]
    if isinstance(result, NanospinError):
        return (type(result).__name__, str(result), repr(getattr(result, "worst_panel", None)))
    return repr(result)


def by_oracle(monkeypatch, route):
    """route() with the oracle engine in place of the lockstep engine."""
    with monkeypatch.context() as m:
        m.setattr(quadrature, "_lockstep", oracle_lockstep)
        return bits(route())


def outcome(route):
    try:
        return bits(route())
    except NanospinError as exc:
        return bits(exc)


def assert_same_as_oracle(monkeypatch, route):
    expected = by_oracle(monkeypatch, route)
    assert bits(route()) == expected
    # every panel the oracle never evaluates returns NaN: speculative
    # panels are neither counted nor able to raise
    seen = []

    def recording(kernel, quad, n):
        rows = set()
        seen.append(rows)

        def kernel_rec(w, owners):
            rows.update((j, r.tobytes()) for j, r in zip(owners.tolist(), w))
            return kernel(w, owners)

        return oracle_lockstep(kernel_rec, quad, n)

    calls = iter(seen)

    def nan_elsewhere(kernel, quad, n):
        rows = next(calls)

        def kernel_nan(w, owners):
            y = np.array(kernel(w, owners), dtype=float)
            unseen = [(j, r.tobytes()) not in rows for j, r in zip(owners.tolist(), w)]
            y[np.array(unseen, dtype=bool)] = np.nan
            return y

        return ENGINE(kernel_nan, quad, n)

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_lockstep", recording)
        assert bits(route()) == expected
        m.setattr(quadrature, "_lockstep", nan_elsewhere)
        assert bits(route()) == expected


def test_gamma_s_matches_oracle(monkeypatch, particle, thermal, quad):
    # the integral itself: a memo hit would not reach the engine
    assert_same_as_oracle(monkeypatch, lambda: _integrate_gamma_s(particle, thermal, quad))


# 2.691e-6 m lies at gamma_b's sign change: no 200 splits meet rel_tol
# there, and the roundoff floor resolves it
DISTANCES = [5e-8, 1e-7, 3.3e-7, 9.49e-7, 2.691e-6, 4e-6, 2e-5]


def test_gamma_b_matches_oracle_batched_and_lone(monkeypatch, particle, quad):
    assert_same_as_oracle(monkeypatch, lambda: _gamma_b_results(DISTANCES, particle, 300.0, quad))
    for d in DISTANCES[::2]:
        assert_same_as_oracle(monkeypatch, lambda: _gamma_b_results([d], particle, 300.0, quad))


# the degree-8 nodes of a 1e10 spin-up plus the gap torque at rest
NODE_SPINS = [(1e10, w) for w in np.linspace(1e9, 9e9, 9).tolist()] + [(1e10, 0.0)]


@pytest.mark.parametrize(("d", "max_subdivisions"), [(1e-7, 200), (9.49e-7, 200), (3e-7, 27)])
def test_mutual_node_batch_matches_oracle(monkeypatch, particle, d, max_subdivisions):
    # with 27 splits at 300 nm, 7 integrands converge and 3 run out
    quad = QuadratureConfig(max_subdivisions=max_subdivisions)
    assert_same_as_oracle(monkeypatch, lambda: _mutual_torques(NODE_SPINS, d, particle, 300.0, quad))


def test_a_starved_mutual_batch_mixes_outcomes(particle):
    results = _mutual_torques(NODE_SPINS, 3e-7, particle, 300.0, QuadratureConfig(max_subdivisions=27))
    assert "".join("F" if isinstance(r, ConvergenceError) else "." for r in results) == "..F.....FF"


def test_floor_resolves_the_sign_change_of_gamma_b(particle, quad):
    (res,) = _gamma_b_results([2.691e-6], particle, 300.0, quad)
    assert isinstance(res, IntegrationResult) and res.value > 0.0
    assert res.panels == quad.max_subdivisions + 4  # every split made, then the floor


def synthetic(w, owners):
    # owner 0 converges, 1 has an integrable singularity that exhausts the
    # splits, 2 is not finite near 0.5, 3 has not decayed at the cutoff
    y = np.exp(-80.0 * w) * (1.0 + owners[:, None])
    y = np.where(owners[:, None] == 1, y / np.sqrt(np.abs(w - 0.03141)), y)
    y = np.where((owners[:, None] == 2) & (np.abs(w - 0.5) < 0.01), np.inf, y)
    return np.where(owners[:, None] == 3, 1.0 + 0.0 * w, y)


@pytest.mark.parametrize("max_subdivisions", [1, 7, 30])
def test_synthetic_outcomes_match_oracle(monkeypatch, max_subdivisions):
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0, max_subdivisions=max_subdivisions, breakpoints=(0.25,))
    assert_same_as_oracle(monkeypatch, lambda: integrate_with_diagnostics(synthetic, q, 4))
    for j in range(4):
        assert_same_as_oracle(
            monkeypatch, lambda: [outcome(lambda: integrate_with_diagnostics(lambda w: synthetic(w, np.full(len(w), j)), q))]
        )
    results = integrate_with_diagnostics(synthetic, q, 4)
    assert isinstance(results[1], ConvergenceError) and "subdivisions" in str(results[1])


def test_vecdot_rows_match_one_dimensional_dots():
    rng = np.random.default_rng(2024)
    n = 4000
    y = rng.standard_normal((n, 15)) * 10.0 ** rng.uniform(-30, 30, (n, 1)) * 10.0 ** rng.uniform(-3, 3, (n, 15))
    y = np.ascontiguousarray(y)
    for rows in (y, np.abs(y)):
        for weights in (_WEIGHTS_K, _WEIGHTS_G):
            got = np.vecdot(rows, weights).tolist()
            assert got == [float(weights @ row) for row in rows]


def test_spin_up_kernel_calls(monkeypatch, particle, thermal, quad):
    # the four integrals of a 1e10 / 100 nm spin-up (gamma_s, gamma_b and
    # one node batch per channel) took 97 panel calls one split per round
    calls = []
    panels = quadrature._panels
    monkeypatch.setattr(quadrature, "_panels", lambda *args: calls.append(1) or panels(*args))
    solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=1e10, mode="nonlinear"))
    assert len(calls) <= 32
