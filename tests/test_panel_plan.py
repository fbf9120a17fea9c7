"""The quadrature's panel plan lasts for the process. Its seeds are only
first-round requests, and each integrand replays its own greedy order, so
what ran before, and on which thread, may change the number of kernel
calls but never a value, a panel count or an artifact byte."""

import json
import sys
import threading

from nanospin import QuadratureConfig, integrate_with_diagnostics, parse_config, quadrature, solve_nonlinear
from nanospin.cli import run
from nanospin.dynamics import coefficients_for
from nanospin.torque import clear_memo


def spin_up(d, omega1=1e10, **keys):
    return solve_nonlinear(parse_config(json.dumps({"distance_m": d, "omega1_rad_per_s": omega1, "mode": "nonlinear", **keys})))


def bits(traj):
    return traj.times.tobytes(), traj.omega2.tobytes(), traj.solver


def summary(out_dir):
    doc = {"distance_m": 1e-7, "omega1_rad_per_s": 1e10, "mode": "nonlinear", "out_dir": str(out_dir)}
    return run(parse_config(json.dumps(doc))).summary_json.read_bytes()


def test_history_does_not_change_a_spin_up(tmp_path):
    clear_memo()
    cold = bits(spin_up(1e-7))
    clear_memo()
    cold_summary = summary(tmp_path / "cold")
    spin_up(9.49e-7, 1e11)
    spin_up(5e-8, 1e12)
    spin_up(1e-7, temperature_K=320.0)  # T != T0: two windows of their own
    assert quadrature._plan
    assert bits(spin_up(1e-7)) == cold
    assert summary(tmp_path / "warm") == cold_summary


def test_threads_get_the_serial_bits():
    work = [[5e-8, 2e-7, 6e-7], [9.49e-7, 1e-7, 3.3e-7]]
    clear_memo()
    serial = [[bits(spin_up(d)) for d in ds] for ds in work]
    clear_memo()
    start = threading.Barrier(len(work))
    got = [None] * len(work)

    def worker(i):
        start.wait()
        got[i] = [bits(spin_up(d)) for d in work[i]]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(work))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


def test_plan_never_holds_more_than_its_windows():
    clear_memo()
    windows = [QuadratureConfig(omega_min=0.0, omega_max=1.0 + k) for k in range(quadrature._PLAN_WINDOWS + 3)]
    for q in windows:
        integrate_with_diagnostics(lambda w: (q.omega_max - w) ** 2, q)  # zero at the cutoff
        assert len(quadrature._plan) <= quadrature._PLAN_WINDOWS
    assert list(quadrature._plan) == windows[-quadrature._PLAN_WINDOWS :]  # the oldest went first
    clear_memo()
    assert not quadrature._plan


def test_concurrent_windows_keep_the_bound():
    # eviction reads the oldest window and deletes it; without the lock two
    # threads can pick the same window and one raises KeyError
    errors = []

    def integrate(worker):
        try:
            for k in range(100):
                q = QuadratureConfig(omega_min=0.0, omega_max=1.0 + worker + 0.01 * k)
                integrate_with_diagnostics(lambda w: (q.omega_max - w) ** 2, q)
        except Exception as exc:  # any lost race fails the test below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=integrate, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(quadrature._plan) == quadrature._PLAN_WINDOWS


def test_coefficients_then_solver_costs_no_more_kernel_calls(monkeypatch):
    # coefficients_for(config) followed by solve_nonlinear(config, coeffs),
    # the README's library pattern, against solve_nonlinear(config) alone
    calls = []
    panels = quadrature._panels
    monkeypatch.setattr(quadrature, "_panels", lambda *args: calls.append(1) or panels(*args))
    cfg = parse_config(json.dumps({"distance_m": 3.3e-7, "omega1_rad_per_s": 1e10, "mode": "nonlinear"}))
    counts = []
    for pattern in (lambda: solve_nonlinear(cfg, coefficients_for(cfg)[0]), lambda: solve_nonlinear(cfg)):
        clear_memo()
        spin_up(1e-7)
        calls.clear()
        pattern()
        counts.append(len(calls))
    assert counts[0] <= counts[1]
