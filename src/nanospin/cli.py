"""Command-line entry points and artifact emission.

    nanospin run    --config cfg.json [--out DIR] [--mode linear|nonlinear]
    nanospin sweep  --config cfg.json
    nanospin coeffs --distance 1e-7 [--config cfg.json]

Each run writes trajectory.csv (time_s, omega2_rad_per_s; LF line
endings, 17 significant digits so parsing reproduces the binary values
exactly) and summary.json (sorted keys, no timestamps: repeated runs are
byte-identical). Exit codes: 0 ok, 2 configuration error, 3 numerical
non-convergence, 4 I/O failure.

A sweep runs its distances one at a time, in order, as lone runs;
gamma_s and the gap moments, which do not depend on distance, are
integrated once and kept by nanospin.torque. Each distance gets the
summary.json a lone `run` writes, in d_<distance to 6 significant
digits>; distances that would share a directory are a configuration
error. Its trajectory goes into the sweep's one sweep_trajectories.npy
(fields distance_m, time_s, omega2_rad_per_s, all <f8; sorted by
distance): the values of a lone run's trajectory.csv, bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .config import RunConfig, SweepConfig, fingerprint, parse_config
from .dynamics import (
    Trajectory,
    coefficients_for,
    default_time_grid,
    delta_infinity,
    moment_of_inertia,
    solve_linear,
    solve_nonlinear,
    sync_time,
)
from .errors import ConfigError, ConvergenceError, NanospinError
from .torque import FrictionCoefficients, gamma_b_sign_edge
from .torque import friction_coefficients  # noqa: F401 -- bench/tracing.py wraps nanospin.cli.friction_coefficients

__all__ = ["OutputBundle", "run", "run_sweep", "main"]

_DEFAULT_OUT = "nanospin_out"
# sweep.csv's columns; the keys a sweep_summary.json run takes from its summary.json
_SWEEP_COLUMNS = ("distance_m", "gamma_b_Nms", "delta_infinity", "sync_time_s")
_RUN_SUMMARY_KEYS = ("delta_infinity", "fingerprint_sha256", "gamma_b_Nms", "sync_time_s")
_SWEEP_ROW = np.dtype([("distance_m", "<f8"), ("time_s", "<f8"), ("omega2_rad_per_s", "<f8")])


@dataclass(frozen=True)
class OutputBundle:
    """Paths and parsed content of one run's artifacts."""

    out_dir: Path
    trajectory_csv: Path
    summary_json: Path
    summary: dict[str, Any]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _trajectory_rows(traj: Trajectory) -> str:
    """The trajectory's rows in one %-format call; "%.17g" % x is the text of _fmt(x)."""
    values = tuple(np.stack((traj.times, traj.omega2), axis=1).ravel().tolist())
    return "%.17g,%.17g\n" * len(traj.times) % values


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_json(path: Path, doc: dict[str, Any]) -> None:
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def run(config: RunConfig) -> OutputBundle:
    """Execute one run and write its artifacts under config.out_dir."""
    summary, traj = _solve_run(config, *coefficients_for(config))
    out_dir = Path(config.out_dir or _DEFAULT_OUT)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trajectory.csv"
    summary_path = out_dir / "summary.json"
    _write_text(csv_path, "time_s,omega2_rad_per_s\n" + _trajectory_rows(traj))
    _write_json(summary_path, summary)
    return OutputBundle(out_dir=out_dir, trajectory_csv=csv_path, summary_json=summary_path, summary=summary)


def _check_domain(config: RunConfig, coeffs: FrictionCoefficients) -> None:
    """Raise ConfigError for coefficients outside the model's domain,
    gamma_s <= 0 or gamma_b < 0, naming the one that fails and, for
    gamma_b, the sign edge of the run's own inputs when there is one."""
    if not coeffs.gamma_s > 0.0:
        raise ConfigError(
            f"gamma_s = {coeffs.gamma_s:.6g} N m s at temperature {config.thermal.T:.6g} K and vacuum "
            f"temperature {config.thermal.T0:.6g} K: a run needs gamma_s > 0"
        )
    if not coeffs.gamma_b >= 0.0:
        message = f"gamma_b = {coeffs.gamma_b:.6g} N m s at distance {config.distance:.6g} m: a run needs gamma_b >= 0"
        edge = gamma_b_sign_edge(config.particle, config.thermal.T, config.quad)
        if edge is not None:
            message += (
                f". gamma_b changes sign at the near-field edge, {edge:.6g} m for this particle, temperature and "
                "quadrature, past which the point-dipole coupling no longer pulls the follower toward co-rotation"
            )
        raise ConfigError(message)


def _solve_run(
    config: RunConfig, coeffs: FrictionCoefficients, quad_diags: dict
) -> tuple[dict[str, Any], Trajectory]:
    """Solve one run's trajectory from its coefficients; return its
    summary and trajectory. Writes nothing.

    Coefficients outside the model's domain (_check_domain) raise
    ConfigError before anything is solved.
    """
    _check_domain(config, coeffs)
    inertia = moment_of_inertia(config.particle)
    tau = inertia / (coeffs.gamma_s + coeffs.gamma_b)
    if config.mode == "nonlinear":
        traj = solve_nonlinear(config, coeffs)
    else:
        traj = solve_linear(config.omega1, inertia, coeffs, default_time_grid(tau, config.samples))
    t_sync = sync_time(traj, config.sync_threshold)

    summary = {
        "delta_final": float(traj.delta[-1]),
        "delta_infinity": delta_infinity(coeffs),
        "fingerprint_sha256": fingerprint(config),
        "gamma_b_Nms": coeffs.gamma_b,
        "gamma_s_Nms": coeffs.gamma_s,
        "inertia_kgm2": inertia,
        "inputs": config.canonical_dict(),
        "quadrature": quad_diags,
        "sync_time_s": t_sync,
        "tau_s": tau,
    }
    if traj.solver is not None:
        summary["solver"] = traj.solver
    return summary, traj


def _run_dir_name(d: float) -> str:
    """The directory, under a sweep's out_dir, of its run at distance d."""
    return f"d_{d:.6g}"


def run_sweep(sweep: SweepConfig) -> dict[str, Any]:
    """Run every distance, then write the combined tables.

    Distinct distances that share a run directory raise ConfigError
    before anything is solved or written. Each distance then gets the
    summary.json `run` writes for it, and its trajectory rows go into
    sweep_trajectories.npy (numpy.save's bytes), one distance at a time
    through one open file. A failing distance writes no rows and does not
    stop the others; the first failure is re-raised after the tables are
    written, and sweep_summary.json names each failure's error.
    """
    root = Path(sweep.base.out_dir or _DEFAULT_OUT)
    ordered = sorted(set(sweep.distances))
    for a, b in zip(ordered, ordered[1:]):  # rounding keeps order, so a shared name is adjacent
        if _run_dir_name(a) == _run_dir_name(b):
            raise ConfigError(
                f"distances {a} m and {b} m would share the run directory {_run_dir_name(a)}; "
                "sweep distances must differ in their first 6 significant digits"
            )
    runs: list[dict[str, Any]] = []
    failures: list[tuple[float, Exception]] = []
    gamma_s = None
    root.mkdir(parents=True, exist_ok=True)
    header = np.lib.format.header_data_from_array_1_0(np.empty(0, _SWEEP_ROW))
    n_rows = 0
    with open(root / "sweep_trajectories.npy", "wb") as rows:
        np.lib.format.write_array_header_1_0(rows, header)  # padded: rewritten in place below
        for d in ordered:
            out_dir = root / _run_dir_name(d)
            try:
                config = sweep.base.with_distance(d, out_dir=str(out_dir))
                summary, traj = _solve_run(config, *coefficients_for(config))
                out_dir.mkdir(exist_ok=True)
                _write_json(out_dir / "summary.json", summary)
            except Exception as exc:  # re-raised after the sweep completes
                failures.append((d, exc))
                continue
            block = np.empty(len(traj.times), _SWEEP_ROW)
            block["distance_m"], block["time_s"], block["omega2_rad_per_s"] = d, traj.times, traj.omega2
            rows.write(block.tobytes())
            n_rows += len(block)
            runs.append({"distance_m": d, "out_dir": str(out_dir)} | {key: summary[key] for key in _RUN_SUMMARY_KEYS})
            if gamma_s is None:
                gamma_s = summary["gamma_s_Nms"]
        rows.seek(0)
        np.lib.format.write_array_header_1_0(rows, header | {"shape": (n_rows,)})

    lines = [",".join(_SWEEP_COLUMNS)]
    lines += [",".join(_fmt(r[c]) if r[c] is not None else "" for c in _SWEEP_COLUMNS) for r in runs]
    _write_text(root / "sweep.csv", "\n".join(lines) + "\n")
    doc = {
        "failed_distances_m": [d for d, _ in failures],
        "fingerprint_sha256": fingerprint(sweep),
        "gamma_s_Nms": gamma_s,
        "runs": runs,
    }
    if failures:
        doc["failures"] = [{"distance_m": d, "error": type(exc).__name__, "message": str(exc)} for d, exc in failures]
    _write_json(root / "sweep_summary.json", doc)
    if failures:
        raise failures[0][1]
    return doc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nanospin", description="Nanoparticle-pair friction torques and synchronization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single run: coefficients, trajectory, summary")
    p_run.add_argument("--config", required=True, help="path to JSON configuration")
    p_run.add_argument("--out", default=None, help="output directory (overrides config out_dir)")
    p_run.add_argument("--mode", choices=("linear", "nonlinear"), default=None, help="solver override")

    p_sweep = sub.add_parser("sweep", help="run every distance in distances_m")
    p_sweep.add_argument("--config", required=True, help="path to JSON configuration")

    p_coeffs = sub.add_parser("coeffs", help="print gamma_s, gamma_b, delta_infinity")
    p_coeffs.add_argument("--distance", type=float, required=True, help="separation in meters")
    p_coeffs.add_argument("--config", default=None, help="optional base JSON configuration")
    return parser


def _load_run_config(path: str) -> RunConfig | SweepConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"configuration file {path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def _cmd_run(args) -> int:
    cfg = _load_run_config(args.config)
    if isinstance(cfg, SweepConfig):
        raise ConfigError("'run' needs a single-distance configuration (use 'sweep' for distances_m)")
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.mode is not None:
        cfg = replace(cfg, mode=args.mode)
    bundle = run(cfg)
    print(f"wrote {bundle.trajectory_csv} and {bundle.summary_json}")
    ts = bundle.summary["sync_time_s"]
    print(f"gamma_s_Nms {_fmt(bundle.summary['gamma_s_Nms'])}")
    print(f"gamma_b_Nms {_fmt(bundle.summary['gamma_b_Nms'])}")
    print(f"delta_infinity {_fmt(bundle.summary['delta_infinity'])}")
    print(f"sync_time_s {_fmt(ts) if ts is not None else 'never'}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config)
    if isinstance(cfg, RunConfig):
        cfg = SweepConfig(base=cfg, distances=(cfg.distance,))
    doc = run_sweep(cfg)
    print(f"swept {len(doc['runs'])} distances")
    return 0


def _cmd_coeffs(args) -> int:
    if args.config is not None:
        base = _load_run_config(args.config)
        if isinstance(base, SweepConfig):
            base = base.base
        cfg = replace(base, distance=args.distance)
    else:
        cfg = parse_config(json.dumps({"distance_m": args.distance}))
    coeffs, _ = coefficients_for(cfg)
    _check_domain(cfg, coeffs)
    print(f"gamma_s_Nms {_fmt(coeffs.gamma_s)}")
    print(f"gamma_b_Nms {_fmt(coeffs.gamma_b)}")
    print(f"delta_infinity {_fmt(delta_infinity(coeffs))}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_coeffs(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except NanospinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
