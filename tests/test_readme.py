"""README "Library use": its example runs, and every dotted nanospin name
the section mentions exists, so no deletion can leave the README naming
a removed symbol. README "Outputs": its loading snippets run against the
files a fresh run and sweep write, and read what those files hold."""

import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from nanospin.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
SECTION = README.split("## Library use", 1)[1].split("\n## ", 1)[0]
OUTPUTS = README.split("## Outputs", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", SECTION, flags=re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    gamma_s, gamma_b, t_sync = (float(x) for x in done.stdout.split())
    assert 0.0 < gamma_s < gamma_b and t_sync > 0.0


def test_dotted_names_resolve():
    names = sorted(set(re.findall(r"\bnanospin(?:\.\w+)+", SECTION)))
    assert "nanospin.torque.MEMO_ENTRIES" in names and "nanospin.torque.clear_memo" in names
    for name in names:
        obj = importlib.import_module("nanospin")
        for attr in name.split(".")[1:]:
            if not hasattr(obj, attr):
                try:  # a submodule nothing has imported yet
                    importlib.import_module(f"{obj.__name__}.{attr}")
                except ImportError:
                    pass
            assert hasattr(obj, attr), f"README names {name}, but {obj.__name__} has no {attr}"
            obj = getattr(obj, attr)


def test_outputs_examples_read_a_fresh_run_and_sweep(tmp_path, monkeypatch, capsys):
    # the trajectory.csv snippet runs in a lone run's directory and the
    # sweep_trajectories.npy one in a sweep's; both read 1e-7 m (capsys
    # keeps the CLI's lines out of the report)
    run_config, sweep_config = tmp_path / "run.json", tmp_path / "sweep.json"
    run_config.write_text(json.dumps({"distance_m": 1e-7, "out_dir": str(tmp_path / "run")}), encoding="utf-8")
    sweep_config.write_text(
        json.dumps({"distances_m": [5e-8, 1e-7, 2e-7], "out_dir": str(tmp_path / "sweep")}), encoding="utf-8"
    )
    assert main(["run", "--config", str(run_config)]) == 0
    assert main(["sweep", "--config", str(sweep_config)]) == 0
    snippets = [textwrap.dedent(code) for code in re.findall(r"```python\n(.*?)```", OUTPUTS, flags=re.S)]
    assert len(snippets) == 2
    read = {}
    for code in snippets:
        where = "sweep" if "sweep_trajectories.npy" in code else "run"
        monkeypatch.chdir(tmp_path / where)
        read[where] = {}
        exec(code, read[where])
    assert sorted(read) == ["run", "sweep"]

    lines = (tmp_path / "run" / "trajectory.csv").read_text(encoding="utf-8").splitlines()[1:]
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines])
    summary = json.loads((tmp_path / "run" / "summary.json").read_text(encoding="utf-8"))
    for where in ("run", "sweep"):
        found = np.stack((read[where]["t"], read[where]["omega2"]), axis=1)
        assert np.array_equal(found.view(np.uint64), parsed.view(np.uint64)), where
    assert read["run"]["delta"][-1] == summary["delta_final"]
