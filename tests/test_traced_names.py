"""Every harmonia name the benchmark's tracer wraps still exists.

``perfbench/run.py --trace 1`` installs its tracer by looking these names up;
one that a refactor removes makes the traced run fail at start-up.  This
reads the tracer's tables without installing it.
"""

import importlib
import importlib.util
import inspect
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


@pytest.mark.parametrize(
    "name", [name for name, size in tracing._SIZES.items() if size.out_arg is not None]
)
def test_size_hook_names_the_traced_parameter(name):
    """A size hook reads its output file at a fixed argument position; the
    traced function or method must have the named parameter there, or the
    measured size silently reads 0."""
    traced = [getattr(importlib.import_module(m), name)
              for m, _layer, names in tracing.FUNCTIONS if name in names]
    traced += [getattr(importlib.import_module(m), c).__dict__[name]
               for m, c, _layer, names in tracing.METHODS if name in names]
    assert traced, name
    param, index = tracing._SIZES[name].out_arg
    for fn in traced:
        assert list(inspect.signature(fn).parameters)[index] == param, fn
