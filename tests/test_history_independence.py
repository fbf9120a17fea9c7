"""The quadrature keeps no panels between calls: every integral starts
from its window's first mesh, so what ran before, and on which thread,
changes no value, panel count or artifact byte. Only the torque memo
carries values over, each with the bits a fresh integral returns."""

import json
import threading

import pytest

from nanospin import parse_config, solve_nonlinear, torque
from nanospin.cli import run
from nanospin.dynamics import coefficients_for
from nanospin.torque import clear_memo

from test_lockstep_oracle import rows_per_panel_call


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
    assert bits(spin_up(1e-7)) == cold
    assert summary(tmp_path / "warm") == cold_summary


# the degree-8 gap batch integrates 8 of its 9 nodes (the torque at
# omega1 is 0.0), a first round of 192 rows; at 1e12 the degree-16 batch
# adds 8 nodes, 192 rows, two blocks each; at 4e12 a degree-32 batch of
# 16 more nodes starts with 384 rows, three blocks
@pytest.mark.parametrize("model", ["bare", "clausius_mossotti"])
@pytest.mark.parametrize(
    "omega1, keys, batch_rows",
    [(1e10, {}, [192]), (1e10, {"temperature_K": 320.0}, [192]), (1e12, {}, [192, 192]), (4e12, {}, [192, 192, 384])],
)
def test_a_kept_first_round_gives_a_cold_spin_ups_bits(model, omega1, keys, batch_rows):
    # the gap node batches' first rounds come from factors kept at 100 nm
    keys = {"polarizability_model": model, **keys}
    clear_memo()
    cold = bits(spin_up(3.3e-7, omega1, **keys))
    clear_memo()
    spin_up(1e-7, omega1, **keys)
    kept = dict(torque._first_rounds)
    assert [spectra.size // 15 for spectra, _, _ in kept.values()] == batch_rows
    assert bits(spin_up(3.3e-7, omega1, **keys)) == cold
    assert torque._first_rounds.keys() == kept.keys()


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


def test_coefficients_then_solver_costs_no_more_kernel_calls(monkeypatch):
    # coefficients_for(config) followed by solve_nonlinear(config, coeffs),
    # the README's library pattern, against solve_nonlinear(config) alone
    calls = rows_per_panel_call(monkeypatch)
    cfg = parse_config(json.dumps({"distance_m": 3.3e-7, "omega1_rad_per_s": 1e10, "mode": "nonlinear"}))
    counts = []
    for pattern in (lambda: solve_nonlinear(cfg, coefficients_for(cfg)[0]), lambda: solve_nonlinear(cfg)):
        clear_memo()
        spin_up(1e-7)
        calls.clear()
        pattern()
        counts.append(len(calls))
    assert counts[0] <= counts[1]
