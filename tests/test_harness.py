"""The benchmark's traced run wraps ``plural`` functions by module and name
(``benchmarks/tracing.py``); every wrapped name must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
