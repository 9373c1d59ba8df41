"""Every name a module exports through ``__all__`` exists on that module and
is used by the package, every public method or property of a package class
is read by the package, and every function the benchmark's layer tracer
wraps still exists.  A name that only tests call belongs in ``oracle.py``."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ["ensemble", "liouvillian", "openblas", "pauli", "perturbation", "spectral"]

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"klindblad.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_exported_names_are_used_in_the_package():
    # a name counts as used where it is read (a name or an attribute) in any
    # module but __init__.py, which only re-exports
    exported, loaded = {}, set()
    for path in sorted((ROOT / "src" / "klindblad").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported[path.stem] = ast.literal_eval(node.value)
            elif path.name != "__init__.py" and isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    traced = {(module, path.split(".")[0])
              for module, functions, _ in _tracer_layers().values() for path in functions}
    unused = [f"{module}.{name}" for module, names in exported.items() for name in names
              if name not in loaded and (module, name) not in traced]
    assert unused == []


def test_public_methods_are_read_in_the_package():
    # a method or property counts as read where an attribute of its name is
    # loaded in any module; the tracer's wrapped methods are exempt
    methods, read = [], set()
    for path in sorted((ROOT / "src" / "klindblad").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                methods += [(path.stem, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    traced = {(module, path)
              for module, functions, _ in _tracer_layers().values() for path in functions}
    unread = [f"{module}.{name}" for module, name in methods
              if name.split(".")[1] not in read and (module, name) not in traced]
    assert unread == []


def test_benchmark_tracer_layers_resolve():
    # perfbench/tracer.py wraps these by name; a renamed or deleted one
    # would make its traced run fail rather than this suite
    missing = []
    for module_name, functions, _ in _tracer_layers().values():
        module = importlib.import_module(f"klindblad.{module_name}")
        for path in functions:
            target = module
            for part in path.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.append(f"{module_name}.{path}")
    assert missing == []
