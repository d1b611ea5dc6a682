"""The benchmark's tracer wraps library functions by name; every name it
lists must still resolve, or a traced benchmark run fails at start-up."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


_spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name,attr,name,kind", tracing.TARGETS,
                         ids=[f"{m}.{a}" for m, a, _, _ in tracing.TARGETS])
def test_tracer_target_resolves(module_name, attr, name, kind):
    owner, key = tracing._resolve(module_name, attr)
    target = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
    assert callable(target.func if kind == "property" else target)
