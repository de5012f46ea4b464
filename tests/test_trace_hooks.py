"""The benchmark's tracer wraps bklab functions by the names their callers
bind; a name that no longer resolves breaks a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_functions_resolve(tracing):
    for mod_name, attr, name, _, cell in tracing.FUNCTIONS:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{mod_name}.{attr} ({name})"
        if cell == "start":
            # the tracer reads the cell's n and seed from the call
            assert {"n", "seed"} <= set(inspect.signature(fn).parameters)


def test_methods_resolve(tracing):
    for mod_name, cls_name, attr, name, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{cls_name}.{attr} ({name})"
    for mod_name, cls_name, attr, name in tracing.CLASSMETHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert isinstance(cls.__dict__.get(attr), classmethod), \
            f"{cls_name}.{attr} ({name})"
