"""README "Library use": its example runs, and every dotted nanospin name
the section mentions exists, so no deletion can leave the README naming
a removed symbol."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECTION = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]


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
