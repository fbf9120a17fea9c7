"""nanospin benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload coeffs|sweep|spinup --seed N --seconds S --trace 0|1

Run it from the root of a nanospin checkout. The package is imported from
src/ through PYTHONPATH, so it need not be installed. Inputs come from
--seed alone. The operation loop runs for --seconds (at least one
operation), then every output is checked.

--trace 0 also times set-up: fresh interpreters through `import
nanospin.cli`. --trace 1 instead runs a fixed number of traced
operations (see tracing.py), so its counts repeat exactly for a seed,
and splits set-up by package with `-X importtime`; its tracing overhead
is taken against the --trace 0 result of the same seed, if one is stored.

Output: a table of every metric with its unit, a provenance line, and as
the last line one JSON object {"correct", "attempted", "failed",
"metrics"} whose metrics are the end_to_end (--trace 0) or per_layer
(--trace 1) entries of BENCHMARK.json. Scratch files go to .bench_work/
in the checkout; the result and the spans of each run stay in
.bench_work/results/. Without src/nanospin the run exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_PER_MILLE = (999, 990, 950, 900, 750)
SETUP_PACKAGES = ("scipy", "numpy", "nanospin")  # precedence order, see import_split


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_nanospin():
    """nanospin from this checkout's src/, never from an installed copy."""
    package = SRC / "nanospin"
    if not (package / "__init__.py").is_file():
        fail(f"no nanospin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nanospin
    import nanospin.cli  # noqa: F401  (the whole package, as every CLI call loads it)

    if Path(nanospin.__file__).resolve().parent != package.resolve():
        fail(f"imported nanospin from {nanospin.__file__}, not from {package}")
    return nanospin


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env) -> float:
    """Median wall time of a fresh interpreter through `import nanospin.cli`."""
    cmd = [sys.executable, "-c", "import nanospin.cli"]
    subprocess.run(cmd, env=env, check=True)  # fills __pycache__ first
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_split(env) -> dict[str, float]:
    """setup.* metrics from `-X importtime`, median over fresh interpreters.

    A module's self time goes to scipy when scipy is the module or one of
    the modules that imported it, else likewise to numpy, else to
    nanospin: each figure is what dropping that package would save.
    """
    cmd = [sys.executable, "-X", "importtime", "-c", "import nanospin.cli"]
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        stderr = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stderr
        # Lines come children first, indented two spaces per nesting level.
        pending: dict[int, list] = {}
        for line in stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            own, _, name = line.removeprefix("import time:").split("|")
            if not own.strip().isdigit():  # the header line
                continue
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            node = (name.strip().split(".")[0], int(own), pending.pop(depth + 1, []))
            pending.setdefault(depth, []).append(node)
        self_us: Counter[str] = Counter()

        def attribute(node, owner):
            package, own, children = node
            if package in SETUP_PACKAGES and (owner is None or SETUP_PACKAGES.index(package) < SETUP_PACKAGES.index(owner)):
                owner = package
            self_us[owner] += own
            for child in children:
                attribute(child, owner)

        for node in pending.get(0, []):
            attribute(node, None)
        runs.append(self_us)
    return {f"setup.import_{p}_s": statistics.median(r[p] for r in runs) * 1e-6 for p in SETUP_PACKAGES}


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest listed percentile with at least
    ten samples beyond it, or None when there are too few samples."""
    n = len(latencies)
    for pm in TAIL_PER_MILLE:
        if n * (1000 - pm) >= 10 * 1000:
            return pm / 10, float(np.percentile(latencies, pm / 10))
    return None


def provenance(seed: int, inputs_sha256: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "nanospin").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        installed = importlib.metadata.version("nanospin")
    except importlib.metadata.PackageNotFoundError:
        installed = None
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "inputs_sha256": inputs_sha256,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "nanospin_installed": installed,
        "nanospin_console_script": shutil.which("nanospin"),
        "import_path": "src/ through PYTHONPATH"
        + (
            ""
            if installed
            else "; nanospin is not installed, which is also why tests/test_cli.py::"
            "test_console_script_entry_point fails (no `nanospin` executable on PATH)"
        ),
    }


def make_workload(name: str, nanospin, seed: int, env, work: Path):
    if name == "coeffs":
        return workloads.Coeffs(nanospin, seed)
    if name == "spinup":
        return workloads.Spinup(nanospin, seed)
    return workloads.Sweep(nanospin, seed, ROOT, env, work)


def timed(args, workload, env) -> dict:
    """--trace 0: set-up time, then the closed loop for --seconds."""
    setup_s = measure_setup(env)
    loop = workload.run(args.seconds)
    failed = loop.raised | workload.check(loop)
    n = len(loop.latencies)
    if n == 0:
        fail(f"all {loop.attempted} operations raised")
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(loop.latencies),
        "ops_per_s": n / loop.wall_s,
        "peak_rss_mb": loop.peak_rss_mb,
        "failed_frac": len(failed) / loop.attempted,
    }
    rows = [
        ("setup_s", f"median of {SETUP_REPEATS} fresh interpreters"),
        ("op_p50_s", f"n={n}"),
        ("op_tail_s", f"left out: n={n} leaves fewer than 10 samples beyond p75"),
        ("ops_per_s", f"{n} operations in {loop.wall_s:.3f} s"),
        ("peak_rss_mb", "sweep child process" if args.workload == "sweep" else "benchmark process"),
        ("failed_frac", f"{len(failed)} of {loop.attempted}"),
    ]
    tail_at = tail(loop.latencies)
    if tail_at is not None:
        metrics["op_tail_s"] = tail_at[1]
        rows[2] = ("op_tail_s", f"p{tail_at[0]:g}, n={n}")
    return {"metrics": metrics, "rows": rows, "attempted": loop.attempted, "failed": len(failed)}


def traced(args, workload, env, results: Path, src_sha256: str) -> dict:
    """--trace 1: a fixed number of traced operations, so counts repeat
    exactly for a seed, plus the set-up split."""
    loop, trace, extra = workload.traced()
    if not loop.latencies:
        fail(f"all {loop.attempted} traced operations raised")
    failed = loop.raised | workload.check(loop)
    metrics = tracing.layer_metrics(trace, loop.attempted) | extra | import_split(env)
    tracing.save(results / f"{args.workload}-seed{args.seed}.spans.npz", trace)
    rows = []
    for name in sorted(metrics):
        how = f"median of {IMPORTTIME_REPEATS} -X importtime runs" if name.startswith("setup.") else "per operation"
        rows.append((name, f"{how}; {loop.attempted} traced operations"))
    metrics["trace.op_p50_s"] = statistics.median(loop.latencies)
    rows.append(("trace.op_p50_s", f"traced, n={len(loop.latencies)}"))
    untraced = results / f"{args.workload}-seed{args.seed}-trace0.json"
    if untraced.is_file():
        earlier = json.loads(untraced.read_text(encoding="utf-8"))
        if earlier["provenance"]["src_sha256"] == src_sha256:
            metrics["trace.overhead_s"] = metrics["trace.op_p50_s"] - earlier["metrics"]["op_p50_s"]
            rows.append(("trace.overhead_s", "traced minus untraced op_p50_s, same seed and sources"))
    return {"metrics": metrics, "rows": rows, "attempted": loop.attempted, "failed": len(failed)}


def unit_of(name: str, spec: dict) -> str:
    """Units as BENCHMARK.json gives them; of the metrics it leaves out,
    failed_frac is a ratio and the rest are times."""
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] == name:
            return entry["unit"]
    return "ratio" if name == "failed_frac" else "s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("coeffs", "sweep", "spinup"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so a running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    nanospin = import_nanospin()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    env = child_env()
    results = WORK_ROOT / "results"
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir()
    try:
        workload = make_workload(args.workload, nanospin, args.seed, env, work)
        prov = provenance(args.seed, workload.inputs_sha256)
        if args.trace:
            report = traced(args, workload, env, results, prov["src_sha256"])
        else:
            report = timed(args, workload, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["provenance"] = prov

    metrics = report["metrics"]
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
            for e in spec["per_layer" if args.trace else "end_to_end"]
        },
    }
    print(f"nanospin benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, note in report.pop("rows"):
        value = f"{metrics[name]:.6g}" if name in metrics else "-"
        print(f"  {name:36s} {value:>14s} {unit_of(name, spec):6s} {note}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    report["result"] = result
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
