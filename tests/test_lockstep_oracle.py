"""The lockstep engine against an independent implementation of the
same algorithm: one split per integrand per round, each round's halves
in one kernel call, and each panel's sums as 1-D dot products. Every
result, error class and message must be the same, bit for bit, the
engine must evaluate no panel the oracle does not, and a prior integral
on the same window must leave no trace."""

import heapq
import itertools

import numpy as np
import pytest

from nanospin import CONSTANTS, ConfigError, ConvergenceError, NanospinError, ParticleSpec, QuadratureConfig, TailNotNegligibleError, ThermalState
from nanospin import quadrature, torque
from nanospin.config import RunConfig
from nanospin.dynamics import solve_nonlinear
from nanospin.quadrature import _WEIGHTS_G, _WEIGHTS_K, _NODES, IntegrationResult, integrate_with_diagnostics
from nanospin.torque import _gamma_b_result, _gamma_s_result, _gap_moments, _mutual_torques, clear_memo

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
        return self.err_total <= quad.rel_tol * abs(self.total)

    def pop_worst(self):
        neg_err, _, a, b, i_old, resabs = heapq.heappop(self.heap)
        self.total -= i_old
        self.err_total += neg_err
        self.resabs -= resabs
        return a, b


def oracle_lockstep(kernel, quad, n, first=None):
    """Every round splits the worst panel of each unfinished integrand;
    an integrand out of splits whose error sum lies within the roundoff
    floor 50*eps*integral(|f|) is done, any other fails. first, the
    values a caller keeps for the first round, is ignored: the oracle
    evaluates the kernel there too, so kept values that differ from the
    kernel's own fail the comparison."""
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
    if done:
        owners = np.array(done)
        tails = np.abs(np.asarray(kernel(np.full((len(done), 1), hi), owners), dtype=float)).reshape(-1)
        for j, tail in zip(done, tails.tolist()):
            s = integrals[j]
            s.evals += 1
            if not np.isfinite(tail):
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

    def recording(kernel, quad, n, first=None):
        rows = set()
        seen.append(rows)

        def kernel_rec(w, owners):
            rows.update((j, r.tobytes()) for j, r in zip(owners.tolist(), w))
            return kernel(w, owners)

        return oracle_lockstep(kernel_rec, quad, n)

    calls = iter(seen)

    def nan_elsewhere(kernel, quad, n, first=None):
        rows = next(calls)

        def kernel_nan(w, owners):
            y = np.array(kernel(w, owners), dtype=float)
            unseen = [(j, r.tobytes()) not in rows for j, r in zip(owners.tolist(), w)]
            y[np.array(unseen, dtype=bool)] = np.nan
            return y

        return ENGINE(kernel_nan, quad, n, first)

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_lockstep", recording)
        assert bits(route()) == expected
        m.setattr(quadrature, "_lockstep", nan_elsewhere)
        assert bits(route()) == expected


def seeded(fill, route):
    """route() right after fill(), an earlier and different integral on
    the same window, on a cold memo; a clear_memo() inside route leaves
    the engine nothing fill could have passed on."""
    clear_memo()
    fill()
    return route()


def test_gamma_s_matches_oracle(monkeypatch, particle, thermal, quad):
    def route():
        clear_memo()  # a memo hit would not reach the engine
        return _gamma_s_result(particle, thermal, quad)

    assert_same_as_oracle(monkeypatch, route)


def test_seeded_gamma_s_matches_oracle(monkeypatch, particle, thermal, quad):
    def route():
        clear_memo()
        return _gamma_s_result(particle, thermal, quad)

    assert_same_as_oracle(monkeypatch, lambda: seeded(lambda: _gap_moments(particle, thermal.T, quad), route))


# the tolerances gamma_b tightens its moments to: 1e-9 certifies below
# 1 um, 1e-12 at 2.7 um, and at 1e-14 every moment ends at its roundoff floor
MOMENT_TOLERANCES = [1e-9, 1e-10, 1e-12, 1e-14]

# 2.691e-6 m lies at gamma_b's sign change, where the moments reach
# their roundoff floor before the distance certifies
DISTANCES = [5e-8, 1e-7, 3.3e-7, 9.49e-7, 2.691e-6, 4e-6, 2e-5]


def moments(particle, quad):
    def route():
        clear_memo()  # a memo hit would not reach the engine
        return _gap_moments(particle, 300.0, quad)

    return route


def gamma_b_at(d, particle, quad):
    def route():
        clear_memo()
        return _gamma_b_result(d, particle, 300.0, quad)

    return route


def test_gamma_b_matches_oracle_batched_and_lone(monkeypatch, particle, quad):
    # the three moments as one batch at each tolerance, then gamma_b at
    # each distance with the tightening it needs
    for rel_tol in MOMENT_TOLERANCES:
        assert_same_as_oracle(monkeypatch, moments(particle, QuadratureConfig(rel_tol=rel_tol)))
    for d in DISTANCES:
        assert_same_as_oracle(monkeypatch, gamma_b_at(d, particle, quad))


# the degree-8 nodes of a 1e10 spin-up plus the gap torque at rest
NODE_SPINS = [(1e10, w) for w in np.linspace(1e9, 9e9, 9).tolist()] + [(1e10, 0.0)]


def test_seeded_gamma_b_matches_oracle_batched_and_lone(monkeypatch, particle, quad):
    # after a mutual node batch on the same window, as at a sweep's next
    # distance; at 1e-14 the roundoff floor ends every refinement. The
    # distances certify at rel_tol, so gamma_b stays on the batch's window
    def fill(q):  # at the tighter tolerances the node batch raises
        return lambda: outcome(lambda: _mutual_torques(NODE_SPINS, 1e-7, particle, 300.0, q))

    for rel_tol in MOMENT_TOLERANCES:
        tight = QuadratureConfig(rel_tol=rel_tol)
        assert_same_as_oracle(monkeypatch, lambda: seeded(fill(tight), moments(particle, tight)))
    for d in (5e-8, 3.3e-7, 2e-5):
        assert_same_as_oracle(monkeypatch, lambda: seeded(fill(quad), gamma_b_at(d, particle, quad)))


NODE_BATCHES = [(1e-7, 200), (9.49e-7, 200), (3e-7, 27), (9.49e-7, 8)]


@pytest.mark.parametrize(("d", "max_subdivisions"), NODE_BATCHES)
def test_mutual_node_batch_matches_oracle(monkeypatch, particle, d, max_subdivisions):
    # with 8 splits at 949 nm, 9 integrands converge and 1 runs out, and
    # the batch raises its error; at 300 nm the graded first mesh leaves
    # 27 splits more than enough
    quad = QuadratureConfig(max_subdivisions=max_subdivisions)
    assert_same_as_oracle(monkeypatch, lambda: [outcome(lambda: _mutual_torques(NODE_SPINS, d, particle, 300.0, quad))])


@pytest.mark.parametrize(("d", "max_subdivisions"), NODE_BATCHES)
def test_seeded_mutual_node_batch_matches_oracle(monkeypatch, particle, d, max_subdivisions):
    # after the gap moments at the same settings, as in a spin-up
    quad = QuadratureConfig(max_subdivisions=max_subdivisions)
    assert_same_as_oracle(
        monkeypatch,
        lambda: seeded(
            lambda: [outcome(lambda: _gap_moments(particle, 300.0, quad))],
            lambda: [outcome(lambda: _mutual_torques(NODE_SPINS, d, particle, 300.0, quad))],
        ),
    )


@pytest.mark.parametrize("case", ["resonant_tail", "non_finite_tail"])
def test_a_warm_gap_batch_fails_its_tail_check_as_a_cold_one(monkeypatch, particle, case):
    # a warm gap node batch takes its tails as the factor kept at
    # omega_max times 2|g_t(d, omega_max)|^2, with no kernel call; it must
    # fail as a cold batch and the oracle fail, which call the kernel there:
    # an omega_max inside the resonance's tail, and a 2|g_t|^2 that is not
    # finite at omega_max, a frequency no panel node reaches
    spins = NODE_SPINS[:9]
    if case == "resonant_tail":
        quad, error = QuadratureConfig(omega_max=2e14), "TailNotNegligibleError"
    else:
        quad, error = QuadratureConfig(), "ConvergenceError"
        k_max = torque._window(quad, particle, ThermalState(300.0, 300.0)).omega_max / CONSTANTS.c
        closed_form = torque._abs2_transverse
        monkeypatch.setattr(torque, "_abs2_transverse", lambda k, d: np.where(k == k_max, np.nan, closed_form(k, d)))

    def batch(d):
        return [outcome(lambda: _mutual_torques(spins, d, particle, 300.0, quad))]

    def warm():  # after a batch at 100 nm, whose failure keeps its factors
        clear_memo()
        batch(1e-7)
        assert len(torque._first_rounds) == 1
        return batch(3.3e-7)

    def cold():
        clear_memo()
        return batch(3.3e-7)

    assert_same_as_oracle(monkeypatch, warm)
    (got,) = warm()
    assert [got] == cold() and got[0] == error and "omega_max" in got[1]


def test_a_starved_mutual_batch_raises_its_failing_node(particle, integrals):
    # with 8 splits at 949 nm the nodes of a 1e10 spin-up converge and
    # the pair (1e12, 5e11), which needs 12, runs out: the batch raises
    # its lone call's error after integrating every node, and the first
    # failing entry, in entry order, decides between it and a spin
    # beyond the band
    starved = QuadratureConfig(max_subdivisions=8)
    failing, wide = (1e12, 5e11), (1e10, 6e12)
    batch = NODE_SPINS[:8] + [failing] + NODE_SPINS[9:]
    errors = []
    for spins in (batch, [failing] + NODE_SPINS[:8], [failing, wide], [wide, failing], [failing]):
        errors.append(outcome(lambda: _mutual_torques(spins, 9.49e-7, particle, 300.0, starved)))
    assert errors[0][0] == "ConvergenceError" and errors[:3] == [errors[4]] * 3
    assert errors[3][0] == "ConfigError" and "half the infrared cutoff" in errors[3][1]
    assert [n for _, n in integrals] == [10, 9, 1, 1, 1]
    assert _mutual_torques(NODE_SPINS, 9.49e-7, particle, 300.0, starved) == [
        _mutual_torques([pair], 9.49e-7, particle, 300.0, starved)[0] for pair in NODE_SPINS
    ]


def test_floor_resolves_the_sign_change_of_gamma_b(particle, quad):
    # at 2.691 um gamma_b tightens its moments until their estimate stops
    # falling: at rel_tol 1e-13 every moment has made all its splits and
    # lies within its roundoff floor, so 1e-14 changes nothing, and the
    # value comes back with its estimate, above rel_tol * |gamma_b|
    res = _gamma_b_result(2.691e-6, particle, 300.0, quad)
    tight = QuadratureConfig(rel_tol=1e-13)
    floor = _gap_moments(particle, 300.0, tight)
    window = torque._window(tight, particle, ThermalState(300.0, 300.0))
    first = 1 + sum(window.omega_min < b < window.omega_max for b in window.breakpoints)
    assert [m.panels for m in floor] == [quad.max_subdivisions + first] * 3  # every split made, then the floor
    assert _gap_moments(particle, 300.0, QuadratureConfig(rel_tol=1e-14)) == floor
    assert res.value > 0.0 and res.error_estimate > quad.rel_tol * res.value
    assert res.panels == sum(m.panels for m in floor)


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


@pytest.mark.parametrize("max_subdivisions", [1, 7, 30])
def test_seeded_synthetic_outcomes_match_oracle(monkeypatch, max_subdivisions):
    # each integrand after another integrand's integral: the batch after
    # the batch with its owners rotated, a lone integrand after the next one
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0, max_subdivisions=max_subdivisions, breakpoints=(0.25,))

    def rotated():
        return integrate_with_diagnostics(lambda w, owners: synthetic(w, (owners + 1) % 4), q, 4)

    assert_same_as_oracle(monkeypatch, lambda: seeded(rotated, lambda: integrate_with_diagnostics(synthetic, q, 4)))
    for j in range(4):

        def fill():
            return integrate_with_diagnostics(lambda w, owners: synthetic(w, np.full(len(w), (j + 1) % 4)), q, 1)

        assert_same_as_oracle(
            monkeypatch,
            lambda: seeded(
                fill, lambda: [outcome(lambda: integrate_with_diagnostics(lambda w: synthetic(w, np.full(len(w), j)), q))]
            ),
        )


def non_finite_tails(w, owners):
    # owners 1, 2 and 3 read nan, inf and -inf at the cutoff 1, which no
    # panel node reaches: only the tail check sees them
    bad = np.array([0.0, np.nan, np.inf, -np.inf])[owners][:, None]
    return np.where((w == 1.0) & (owners[:, None] > 0), bad, np.exp(-80.0 * w))


def test_non_finite_tails_match_oracle(monkeypatch):
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0)
    assert_same_as_oracle(monkeypatch, lambda: integrate_with_diagnostics(non_finite_tails, q, 4))
    results = integrate_with_diagnostics(non_finite_tails, q, 4)
    assert isinstance(results[0], IntegrationResult)
    assert [type(r) for r in results[1:]] == [ConvergenceError] * 3


def rows_per_panel_call(monkeypatch):
    """A list that gets the row count of every kernel call the engine
    makes on panel nodes, 15 per row, from now on; its tail checks, one
    column, are not counted."""
    rows, engine = [], quadrature._lockstep

    def counted(kernel, quad, n, first=None):
        def kernel_counted(w, owners):
            if w.shape[1] == len(_NODES):
                rows.append(len(owners))
            return kernel(w, owners)

        return engine(kernel_counted, quad, n, first)

    monkeypatch.setattr(quadrature, "_lockstep", counted)
    return rows


# 100 first panels: a batch of three integrands starts with a round of
# 300 rows in one kernel call; a lone one starts with one of 100
FINE = tuple(k / 100 for k in range(1, 100))


def spread(w, owners):
    # owner 0 has an integrable singularity that exhausts the splits; 1
    # converges in the first round, its rows 100-199 between the other
    # two's, so its sum keeps its bits only if the entries are added in
    # row order; 2 is not finite in its panels [0.49, 0.5] and
    # [0.5, 0.51], rows 249 and 250
    y = np.exp(-10.0 * w) * (1.0 - w) ** 2 * (1.0 + owners[:, None])
    y = np.where(owners[:, None] == 0, y / np.sqrt(np.abs(w - 0.03141)), y)
    return np.where((owners[:, None] == 2) & (np.abs(w - 0.5) < 0.01), np.inf, y)


@pytest.mark.parametrize("max_subdivisions", [7, 30])
def test_wide_rounds_match_oracle(monkeypatch, max_subdivisions):
    q = QuadratureConfig(omega_min=0.0, omega_max=1.0, max_subdivisions=max_subdivisions, breakpoints=FINE)
    assert_same_as_oracle(monkeypatch, lambda: integrate_with_diagnostics(spread, q, 3))
    for j in range(3):
        assert_same_as_oracle(
            monkeypatch, lambda: [outcome(lambda: integrate_with_diagnostics(lambda w: spread(w, np.full(len(w), j)), q))]
        )
    rows = rows_per_panel_call(monkeypatch)
    results = integrate_with_diagnostics(spread, q, 3)
    assert rows[0] == 300
    assert isinstance(results[0], ConvergenceError) and "subdivisions" in str(results[0])
    assert isinstance(results[1], IntegrationResult)
    assert results[2].worst_panel == (0.49, 0.5)


def test_vecdot_rows_match_one_dimensional_dots():
    rng = np.random.default_rng(2024)
    n = 4000
    y = rng.standard_normal((n, 15)) * 10.0 ** rng.uniform(-30, 30, (n, 1)) * 10.0 ** rng.uniform(-3, 3, (n, 15))
    y = np.ascontiguousarray(y)
    for rows in (y, np.abs(y)):
        for weights in (_WEIGHTS_K, _WEIGHTS_G):
            got = np.vecdot(rows, weights).tolist()
            assert got == [float(weights @ row) for row in rows]


def test_spin_up_kernel_calls(monkeypatch, thermal, quad):
    # the four integrals of a cold 1e10 / 100 nm bare spin-up take 31
    # refinement rounds: gamma_s 3, the gap moments 15, the mutual node
    # batch 10 and the vacuum node batch 3. A round makes one panel call
    # with all of its rows: of each node batch's 9 nodes the gap torque
    # at omega1 and the vacuum torque at 0 need no integral, and 8 nodes
    # times 24 first panels make a first round of 192 rows. The gap
    # batch's first round and tail check are its kept distance-free
    # factor, evaluated in one call on that round's rows and one at
    # omega_max outside the engine, times 2|g_t|^2, so 30 panel calls. A later distance reads
    # gamma_b off the kept moments, the vacuum nodes off the memo and the
    # gap batch's first round and tails off the kept factor, and
    # integrates the gap batch's 9 later rounds alone, in 9 calls of at
    # most 16 rows, with no tail-check call. The first mesh is graded
    # around each model's own peak, so clausius_mossotti, which peaks at
    # its Froehlich frequency, takes about as few (83, 22 and 57 with the
    # mesh graded around omega_T): 33 cold, its vacuum node batch taking
    # 3 rounds as under bare. Every kernel call, each panel call, a kept
    # factor's first round, its tails and each other integral's one
    # tail check, makes one im_polarizability call: the direct kernels
    # stack their spin-shifted spectra (four for the gap, two for the
    # vacuum) into one array
    calls, material = rows_per_panel_call(monkeypatch), []
    polarizability = torque.im_polarizability
    monkeypatch.setattr(torque, "im_polarizability", lambda *args: material.append(1) or polarizability(*args))

    def spin_up(particle, d):
        calls.clear()
        material.clear()
        solve_nonlinear(RunConfig(particle, thermal, quad, distance=d, omega1=1e10, mode="nonlinear"))
        return len(calls), len(material), max(calls)

    for model, counts, spectra in (
        ("bare", (30, 9, 9), (35, 9, 9)),
        ("clausius_mossotti", (33, 10, 10), (38, 10, 10)),
    ):
        particle = ParticleSpec(polarizability_model=model)
        clear_memo()
        got = [spin_up(particle, d) for d in (1e-7, 3.3e-7, 5e-7)]
        assert tuple(panel for panel, _, _ in got) == counts, model
        assert tuple(spectrum for _, spectrum, _ in got) == spectra, model
        # the cold node batches' first rounds are the widest; a warm
        # spin-up's largest round is 2 halves of each of the 8 integrated
        # gap nodes
        assert tuple(rows for _, _, rows in got) == (192, 16, 16), model


@pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
@pytest.mark.parametrize("omega1, widest", [(1e12, 16), (4e12, 32)])
def test_warm_spin_up_rounds_stay_narrow(monkeypatch, thermal, quad, model, omega1, widest):
    # a round is one kernel call however many rows it has, which costs a
    # warm spin-up little only because its rounds are narrow: the kept
    # first round spares it the node batches' first rounds of 192 or 384
    # rows, and its widest later round is 2 halves of each of 8 (1e12) or
    # 16 (4e12) integrated gap nodes. A warm round of 192 rows or more
    # would bring back the kernel temporaries that made the allocator trim
    # the heap and fault it in again on every spin-up
    particle = ParticleSpec(polarizability_model=model)
    clear_memo()
    solve_nonlinear(RunConfig(particle, thermal, quad, distance=1e-7, omega1=omega1, mode="nonlinear"))
    calls = rows_per_panel_call(monkeypatch)
    solve_nonlinear(RunConfig(particle, thermal, quad, distance=3.3e-7, omega1=omega1, mode="nonlinear"))
    assert max(calls) == widest
