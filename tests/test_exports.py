"""Every name a module exports through ``__all__`` exists on that module."""

import importlib

import pytest

MODULES = ["ensemble", "liouvillian", "pauli", "perturbation", "spectral"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"klindblad.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
