"""The benchmark workloads: seeded inputs, one operation, output checks.

Every workload is a closed loop: one caller, one operation at a time,
the next one started when the previous one returned.

    sweep   one `python -m nanospin.cli sweep` process over 64 distances
    spinup  solve_nonlinear at omega1 = 1e10 rad/s, direct kernels
    coeffs  friction_coefficients on a fresh config per operation

BENCHMARK.json lists sweep and spinup. coeffs runs the same way on
request; it is not listed because its throughput, a loop of ~10 ms calls
on one core, moved by up to 30% between runs on a shared 2-core host.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

D_MIN, D_MAX = 5e-8, 1e-6  # separation range of every workload, m


@dataclass
class Loop:
    """What one closed loop did."""

    latencies: list[float] = field(default_factory=list)  # s, operations that returned
    attempted: int = 0
    raised: set[int] = field(default_factory=set)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    results: dict[int, object] = field(default_factory=dict)


def closed_loop(op, seconds: float, max_ops: int | None = None, tracer=None) -> Loop:
    """Run op(i) for i = 0, 1, ... until `seconds` have passed (at least once).

    op(i) returns (latency_s, result); only the call under test is inside
    its latency. With a tracer, each operation is one "op" span.
    """
    loop = Loop()
    t_start = time.perf_counter()
    while True:
        i = loop.attempted
        loop.attempted += 1
        try:
            if tracer is None:
                latency, result = op(i)
            else:
                tracer.op = i
                with tracer.span("op"):
                    latency, result = op(i)
        except Exception:  # an operation that raised counts as failed
            if not loop.raised:
                traceback.print_exc(file=sys.stderr)
            loop.raised.add(i)
        else:
            loop.latencies.append(latency)
            loop.results[i] = result
        loop.wall_s = time.perf_counter() - t_start
        if loop.wall_s >= seconds or loop.attempted == max_ops:
            return loop


def log_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(D_MIN), math.log(D_MAX), n))


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def coefficients(friction_coefficients, cfg):
    """friction_coefficients called with a config's fields, as the CLI does."""
    coeffs, _ = friction_coefficients(
        cfg.particle,
        cfg.distance,
        cfg.thermal,
        cfg.quad,
        coupling_scale=cfg.coupling_scale,
        thermal_weight=cfg.thermal_weight,
        coth_half_argument=cfg.coth_half_argument,
    )
    return coeffs


class InProcess:
    """A workload whose operation is one library call in this process.

    Subclasses name the library function under test and say how one
    operation calls it with a parsed config.
    """

    function = ""
    trace_ops = 1

    def __init__(self, nanospin, seed: int) -> None:
        self.nanospin = nanospin
        self.seed = seed

    def run(self, seconds: float, max_ops: int | None = None, tracer=None) -> Loop:
        parse, fn = self.nanospin.parse_config, getattr(self.nanospin, self.function)
        if tracer is not None:
            parse = tracer.traced("bench.parse_config", parse)
            fn = tracer.wrap(f"bench.{self.function}", fn)

        def op(i):
            cfg = parse(self.document(i))
            t0 = time.perf_counter()
            out = self.call(fn, cfg)
            return time.perf_counter() - t0, (cfg, out)

        loop = closed_loop(op, seconds, max_ops, tracer)
        loop.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return loop

    def traced(self):
        """A fixed number of operations with every wrapper installed."""
        tracer = tracing.Tracer()
        tracer.install()
        try:
            loop = self.run(math.inf, self.trace_ops, tracer)
        finally:
            tracer.uninstall()
        # these operations write no files
        return loop, tracer.snapshot(), {"cli.files_written": 0.0, "cli.bytes_written": 0.0}


class Coeffs(InProcess):
    function = "friction_coefficients"
    call = staticmethod(coefficients)
    trace_ops = 128
    n_inputs = 20000  # more than a 60 s run completes; the loop wraps around if not
    n_checked = 8

    def __init__(self, nanospin, seed: int) -> None:
        super().__init__(nanospin, seed)
        rng = np.random.default_rng(seed)
        self.distance = log_uniform(rng, self.n_inputs)
        self.temperature = rng.uniform(200.0, 400.0, self.n_inputs)
        self.inputs_sha256 = digest(self.distance, self.temperature)

    def document(self, i: int) -> str:
        i %= self.n_inputs
        t = float(self.temperature[i])
        return json.dumps({"distance_m": float(self.distance[i]), "temperature_K": t, "vacuum_temperature_K": t})

    def check(self, loop: Loop) -> set[int]:
        """Positive finite coefficients everywhere; on a seeded subsample,
        agreement with an independent scipy quadrature to 1e-8."""
        bad = set()
        for i, (_, c) in loop.results.items():
            if not (math.isfinite(c.gamma_s) and math.isfinite(c.gamma_b) and c.gamma_s > 0.0 and c.gamma_b > 0.0):
                bad.add(i)
        done = sorted(loop.results)
        rng = np.random.default_rng([self.seed, 1])
        for i in rng.choice(done, size=min(self.n_checked, len(done)), replace=False):
            cfg, c = loop.results[int(i)]
            gs, gb = reference_coefficients(self.nanospin, cfg)
            if abs(c.gamma_s - gs) > 1e-8 * abs(gs) or abs(c.gamma_b - gb) > 1e-8 * abs(gb):
                print(f"coeffs check failed at input {int(i)}: {c} vs ({gs}, {gb})", file=sys.stderr)
                bad.add(int(i))
        return bad


def reference_coefficients(nanospin, cfg) -> tuple[float, float]:
    """gamma_s and gamma_b from integrands built here out of public
    functions, integrated by scipy's QUADPACK instead of nanospin's own
    quadrature. epsabs=0 matters: the integrals are ~1e-24, far below
    quad's default absolute tolerance."""
    import warnings

    from scipy.integrate import quad

    p, T, T0 = cfg.particle, cfg.thermal.T, cfg.thermal.T0
    C = nanospin.CONSTANTS
    b, b0 = C.hbar / (C.k_B * T), C.hbar / (C.k_B * T0)
    lo = cfg.quad.omega_min
    hi = max(10.0 * C.k_B * max(T, T0) / C.hbar, 5.0 * p.dielectric.omega_L)
    points = [p.dielectric.omega_T, p.dielectric.omega_L, C.k_B * T / C.hbar]

    def vacuum(w):
        w = np.array([w])
        s, ds = nanospin.im_polarizability(w, p), nanospin.d_im_polarizability(w, p)
        bracket = s * nanospin.d_coth_factor(w, T) + ds * (1.0 / np.tanh(b * w) - 1.0 / np.tanh(b0 * w))
        return float((2.0 * w * w * nanospin.im_g_self_transverse_sum(w) * bracket)[0])

    def gap(w):
        w = np.array([w])
        s, ds = nanospin.im_polarizability(w, p), nanospin.d_im_polarizability(w, p)
        d_weight = ds * (1.0 / np.expm1(b * w) + 0.5) + s * nanospin.d_occupation(w, T)
        return float((4.0 * nanospin.abs2_transverse_sum(cfg.distance, w) * d_weight * s)[0])

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an IntegrationWarning fails the check
        i_s = quad(vacuum, lo, hi, points=points, epsrel=1e-11, epsabs=0, limit=200)[0]
        i_b = quad(gap, lo, hi, points=points, epsrel=1e-11, epsabs=0, limit=200)[0]
    return -(C.hbar / (2.0 * math.pi * C.c**2)) * i_s, cfg.coupling_scale * 4.0 * math.pi * C.hbar * i_b


class Spinup(InProcess):
    function = "solve_nonlinear"
    omega1 = 1e10

    def __init__(self, nanospin, seed: int) -> None:
        super().__init__(nanospin, seed)
        self.distance = log_uniform(np.random.default_rng(seed), 64)
        self.inputs_sha256 = digest(self.distance)

    def document(self, i: int) -> str:
        return json.dumps({"distance_m": float(self.distance[i % 64]), "omega1_rad_per_s": self.omega1, "mode": "nonlinear"})

    @staticmethod
    def call(solve_nonlinear, cfg):
        return solve_nonlinear(cfg)

    def check(self, loop: Loop) -> set[int]:
        """omega2 never decreases and stays within 1e-3*omega1 of the
        linear solution on the same grid with the same coefficients.

        "Never decreases" allows 1e-12*omega1: once converged, the stepper
        jitters around the plateau by rounding (up to 3e-14*omega1 seen,
        at 0.95 um).
        """
        bad = set()
        for i, (cfg, traj) in loop.results.items():
            linear = self.nanospin.solve_linear(
                cfg.omega1,
                self.nanospin.moment_of_inertia(cfg.particle),
                coefficients(self.nanospin.friction_coefficients, cfg),
                traj.times,
            )
            gap = float(np.max(np.abs(traj.omega2 - linear.omega2)))
            drop = float(-np.min(np.diff(traj.omega2)))
            if drop > 1e-12 * cfg.omega1 or not gap <= 1e-3 * cfg.omega1:
                print(f"spinup check failed at input {i}: largest decrease {drop:.3e}, "
                      f"max |nonlinear - linear| = {gap:.3e} rad/s", file=sys.stderr)
                bad.add(i)
        return bad


def tree_digest(root: Path) -> tuple[str, int, int]:
    """(sha256 over relative paths and contents, files, bytes) of a tree."""
    h = hashlib.sha256()
    files = n_bytes = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
        files += 1
        n_bytes += len(data)
    return h.hexdigest(), files, n_bytes


class Sweep:
    """One fresh CLI process per operation, timed from spawn to exit."""

    n_distances = 64

    n_checked = 4

    def __init__(self, nanospin, seed: int, root: Path, env: dict, work: Path) -> None:
        self.nanospin, self.seed, self.root, self.env, self.work = nanospin, seed, root, env, work
        rng = np.random.default_rng(seed)
        while True:  # the CLI names run directories by 6 significant digits
            d = np.sort(log_uniform(rng, self.n_distances))
            if len({f"{x:.6g}" for x in d}) == self.n_distances:
                break
        self.distance = d
        self.inputs_sha256 = digest(d)
        self.config = work / "sweep.json"
        # a relative out_dir keeps sweep_summary.json the same in every operation's directory
        self.config.write_text(json.dumps({"distances_m": d.tolist(), "out_dir": "out"}), encoding="utf-8")

    def run(self, seconds: float, max_ops: int | None = None, spans: Path | None = None) -> Loop:
        rss = []

        def op(i):
            op_dir = self.work / f"op{i}"
            op_dir.mkdir()
            if spans is None:
                cmd = [sys.executable, "-m", "nanospin.cli"]
            else:
                cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans)]
            cmd += ["sweep", "--config", str(self.config)]
            with open(op_dir / "stderr.txt", "wb") as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(cmd, cwd=op_dir, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                latency = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode != 0:
                raise RuntimeError(f"sweep exited {proc.returncode}: {(op_dir / 'stderr.txt').read_text()[-2000:]}")
            rss.append(usage.ru_maxrss / 1024.0)
            return latency, op_dir / "out"

        loop = closed_loop(op, seconds, max_ops)
        loop.peak_rss_mb = max(rss, default=0.0)
        return loop

    def traced(self):
        """One operation through traced_cli.py; files and bytes from its tree."""
        spans = self.work / "sweep_spans.npz"
        loop = self.run(math.inf, 1, spans)
        if not loop.results:
            return loop, None, {}
        _, files, n_bytes = tree_digest(loop.results[0])
        return loop, tracing.load(spans), {"cli.files_written": float(files), "cli.bytes_written": float(n_bytes)}

    def check(self, loop: Loop) -> set[int]:
        """The first tree passes the output checks and every later tree is
        byte-identical to it (the README's repeat-determinism contract)."""
        trees = sorted(loop.results.items())
        if not trees or not self._check_tree(trees[0][1]):
            return set(loop.results)
        expected = tree_digest(trees[0][1])[0]
        return {i for i, out in trees if tree_digest(out)[0] != expected}

    def _check_tree(self, out: Path) -> bool:
        """Schema-valid summaries, no failed distance, gamma_b strictly
        decreasing with distance, and on a seeded subsample the same
        coefficients as the independent scipy reference."""
        import jsonschema

        schema = json.loads((self.root / "docs" / "summary.schema.json").read_text(encoding="utf-8"))
        summaries = sorted(out.glob("d_*/summary.json"))
        problems = []
        if len(summaries) != self.n_distances:
            problems.append(f"{len(summaries)} summaries for {self.n_distances} distances")
        for path in summaries:
            try:
                jsonschema.validate(json.loads(path.read_text(encoding="utf-8")), schema)
            except jsonschema.ValidationError as exc:
                problems.append(f"{path.parent.name}: {exc.message}")
        doc = json.loads((out / "sweep_summary.json").read_text(encoding="utf-8"))
        if doc["failed_distances_m"] or len(doc["runs"]) != self.n_distances:
            problems.append(f"failed distances {doc['failed_distances_m']}")
        rows = [line.split(",") for line in (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]]
        distance = [float(r[0]) for r in rows]
        gamma_b = [float(r[1]) for r in rows]
        if distance != sorted(distance) or any(b >= a for a, b in zip(gamma_b, gamma_b[1:])):
            problems.append("gamma_b does not strictly decrease with distance in sweep.csv")
        for d in np.random.default_rng([self.seed, 1]).choice(self.distance, self.n_checked, replace=False):
            summary = json.loads((out / f"d_{d:.6g}" / "summary.json").read_text(encoding="utf-8"))
            gs, gb = reference_coefficients(self.nanospin, self.nanospin.parse_config(json.dumps({"distance_m": d})))
            if abs(summary["gamma_s_Nms"] - gs) > 1e-8 * abs(gs) or abs(summary["gamma_b_Nms"] - gb) > 1e-8 * abs(gb):
                problems.append(f"coefficients at {d:.6g} m differ from the scipy reference ({gs}, {gb})")
        for p in problems:
            print(f"sweep check failed: {p}", file=sys.stderr)
        return not problems
