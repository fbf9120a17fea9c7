"""Command-line entry points and artifact emission.

    nanospin run    --config cfg.json [--out DIR] [--mode linear|nonlinear]
    nanospin sweep  --config cfg.json
    nanospin coeffs --distance 1e-7 [--config cfg.json]

Each run writes trajectory.csv (time_s, omega2_rad_per_s, delta; LF line
endings, 17 significant digits so parsing reproduces the binary values
exactly) and summary.json (sorted keys, no timestamps: repeated runs are
byte-identical). Exit codes: 0 ok, 2 configuration error, 3 numerical
non-convergence, 4 I/O failure.

A sweep computes the coefficients of all its distances in one pass
(gamma_s once, every gamma_b integral in lockstep), then writes each
distance exactly as `run` would, into d_<distance to 6 significant
digits>; distances that would share a directory are a configuration
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Any

from .config import RunConfig, SweepConfig, fingerprint, parse_config
from .dynamics import (
    coefficients_for,
    default_time_grid,
    delta_infinity,
    moment_of_inertia,
    solve_linear,
    solve_nonlinear,
    sweep_coefficients_for,
    sync_time,
)
from .errors import ConfigError, ConvergenceError, NanospinError
from .torque import FrictionCoefficients
from .torque import friction_coefficients  # noqa: F401 -- bench/tracing.py wraps nanospin.cli.friction_coefficients

__all__ = ["OutputBundle", "run", "run_sweep", "main"]

_DEFAULT_OUT = "nanospin_out"


@dataclass(frozen=True)
class OutputBundle:
    """Paths and parsed content of one run's artifacts."""

    out_dir: Path
    trajectory_csv: Path
    summary_json: Path
    summary: dict[str, Any]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_trajectory_csv(path: Path, traj) -> None:
    # one %-format call for the whole file; "%.17g" % x is the text of _fmt(x)
    values = tuple(chain.from_iterable(traj.samples))
    rows = "%.17g,%.17g,%.17g\n" * len(traj.times) % values
    path.write_text("time_s,omega2_rad_per_s,delta\n" + rows, encoding="utf-8", newline="\n")


def _write_json(path: Path, doc: dict[str, Any]) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n")


def run(config: RunConfig) -> OutputBundle:
    """Execute one run and write its artifacts under config.out_dir."""
    return _write_run(config, *coefficients_for(config))


def _check_domain(config: RunConfig, coeffs: FrictionCoefficients) -> None:
    """Raise ConfigError for coefficients outside the model's domain,
    gamma_s <= 0 or gamma_b < 0."""
    if not (coeffs.gamma_s > 0.0 and coeffs.gamma_b >= 0.0):
        raise ConfigError(
            f"gamma_s = {coeffs.gamma_s:.6g} N m s and gamma_b = {coeffs.gamma_b:.6g} N m s at distance "
            f"{config.distance:.6g} m: a run needs gamma_s > 0 and gamma_b >= 0. gamma_b changes sign at the "
            "near-field edge (about 2.69e-6 m for the default particle at 300 K), past which the point-dipole "
            "coupling no longer pulls the follower toward co-rotation"
        )


def _write_run(config: RunConfig, coeffs: FrictionCoefficients, quad_diags: dict) -> OutputBundle:
    """Solve one run's trajectory from its coefficients and write its
    artifacts under config.out_dir.

    Coefficients outside the model's domain (_check_domain) raise
    ConfigError before anything is solved or written.
    """
    _check_domain(config, coeffs)
    out_dir = Path(config.out_dir or _DEFAULT_OUT)
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
        "zero_coupling": traj.zero_coupling,
    }
    if traj.solver is not None:
        summary["solver"] = traj.solver

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trajectory.csv"
    summary_path = out_dir / "summary.json"
    _write_trajectory_csv(csv_path, traj)
    _write_json(summary_path, summary)
    return OutputBundle(out_dir=out_dir, trajectory_csv=csv_path, summary_json=summary_path, summary=summary)


def _run_dir_name(d: float) -> str:
    """The directory, under a sweep's out_dir, of its run at distance d."""
    return f"d_{d:.6g}"


def run_sweep(sweep: SweepConfig) -> dict[str, Any]:
    """Run every distance, then write the combined table.

    Distinct distances that share a run directory raise ConfigError
    before anything is solved or written. The coefficients of all
    distances come from one pass; each distance then gets the artifacts
    `run` writes for it. A failing distance does not stop the others;
    the first failure is re-raised after the tables are written, and
    sweep_summary.json names each failure's error.
    """
    root = Path(sweep.base.out_dir or _DEFAULT_OUT)
    ordered = sorted(set(sweep.distances))
    for a, b in zip(ordered, ordered[1:]):  # rounding keeps order, so a shared name is adjacent
        if _run_dir_name(a) == _run_dir_name(b):
            raise ConfigError(
                f"distances {a} m and {b} m would share the run directory {_run_dir_name(a)}; "
                "sweep distances must differ in their first 6 significant digits"
            )
    results: dict[float, OutputBundle | Exception] = {}
    for d, coefficients in zip(ordered, sweep_coefficients_for(sweep.base, ordered)):
        if isinstance(coefficients, NanospinError):
            results[d] = coefficients
            continue
        try:
            results[d] = _write_run(sweep.base.with_distance(d, out_dir=str(root / _run_dir_name(d))), *coefficients)
        except Exception as exc:  # re-raised after the sweep completes
            results[d] = exc

    rows = []
    failed = []
    runs_doc = []
    for d in ordered:
        res = results[d]
        if isinstance(res, Exception):
            failed.append(d)
            continue
        s = res.summary
        rows.append((d, s["gamma_b_Nms"], s["delta_infinity"], s["sync_time_s"]))
        runs_doc.append(
            {
                "delta_infinity": s["delta_infinity"],
                "distance_m": d,
                "fingerprint_sha256": s["fingerprint_sha256"],
                "gamma_b_Nms": s["gamma_b_Nms"],
                "out_dir": str(res.out_dir),
                "sync_time_s": s["sync_time_s"],
            }
        )

    root.mkdir(parents=True, exist_ok=True)
    lines = ["distance_m,gamma_b_Nms,delta_infinity,sync_time_s"]
    for d, gb, dinf, ts in rows:
        lines.append(f"{_fmt(d)},{_fmt(gb)},{_fmt(dinf)},{_fmt(ts) if ts is not None else ''}")
    (root / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    gamma_s_val = None
    for d in ordered:
        if not isinstance(results[d], Exception):
            gamma_s_val = results[d].summary["gamma_s_Nms"]
            break
    doc = {
        "failed_distances_m": failed,
        "fingerprint_sha256": fingerprint(sweep),
        "gamma_s_Nms": gamma_s_val,
        "runs": runs_doc,
    }
    if failed:
        doc["failures"] = [
            {"distance_m": d, "error": type(results[d]).__name__, "message": str(results[d])} for d in failed
        ]
    _write_json(root / "sweep_summary.json", doc)

    for d in ordered:
        if isinstance(results[d], Exception):
            raise results[d]
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
    return parse_config(Path(path).read_text(encoding="utf-8"))


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
