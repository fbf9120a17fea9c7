"""The benchmark's tracer wraps nanospin functions by module attribute
name (bench/tracing.py TARGETS); a name that leaves its module would
break a traced run, so every one must exist."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_targets() -> dict[str, tuple[str, ...]]:
    # executed from its source text, so nothing is written next to it
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attrs", sorted(load_targets().items()))
def test_every_wrapped_name_exists(module_name, attrs):
    module = importlib.import_module(module_name)
    assert attrs
    missing = [attr for attr in attrs if not callable(getattr(module, attr, None))]
    assert not missing, f"{module_name} lacks {missing}"
