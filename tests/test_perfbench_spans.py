"""The benchmark's tracer names library functions by string; each must
still exist, or a traced run fails when it installs its wrappers."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(layer, fname) for layer, functions in spans.TRACED.items() for fname in functions]


@pytest.mark.parametrize("layer, fname", traced_names(), ids=lambda v: v)
def test_traced_function_resolves(layer, fname):
    module = importlib.import_module(f"mixedcode.{layer}")
    assert callable(getattr(module, fname))
