"""Every harmonia name the benchmark's tracer wraps still exists.

``perfbench/run.py --trace 1`` installs its tracer by looking these names up;
one that a refactor removes makes the traced run fail at start-up.  This
reads the tracer's tables without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module_name, name",
    [(m, name) for m, _layer, names in tracing.FUNCTIONS for name in names],
)
def test_traced_function_exists(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))


@pytest.mark.parametrize(
    "module_name, cls_name, name",
    [(m, c, name) for m, c, _layer, names in tracing.METHODS for name in names],
)
def test_traced_method_exists(module_name, cls_name, name):
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert callable(cls.__dict__.get(name))
