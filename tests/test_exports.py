"""Every name a module exports through ``__all__`` exists on that module, and
every function the benchmark's layer tracer wraps still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ["ensemble", "liouvillian", "openblas", "pauli", "perturbation", "spectral"]

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"klindblad.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_benchmark_tracer_layers_resolve():
    # perfbench/tracer.py wraps these by name; a renamed or deleted one
    # would make its traced run fail rather than this suite
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, functions, _ in tracer.LAYERS.values():
        module = importlib.import_module(f"klindblad.{module_name}")
        for path in functions:
            target = module
            for part in path.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module_name}.{path}")
    assert missing == []
