"""Run one klindblad command in this process with the calls into each layer timed.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 \\
        python3 perfbench/tracer.py SPANS.json <klindblad arguments> --workers 1

The public functions listed in ``LAYERS`` are wrapped wherever the package
holds a reference to them (the defining module and every module that
imported the name), so calls made inside the package are caught too.  Each
call becomes a span ``[layer, function, start, end, parent, gflop]``; the
spans stay in memory and are written to SPANS.json when the command returns,
and a per-function table goes to standard error.  Run with ``--workers 1``:
spans recorded in pool workers are lost with the workers.

``layer_metrics`` turns the file into per-layer self times (a span's time
minus that of the spans it encloses) and call counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

# layer -> (module, wrapped functions, whether its calls are counted)
LAYERS = {
    "pauli.basis": ("pauli", ("PauliBasis.__init__",), True),
    "ensemble.sample": (
        "ensemble",
        ("sample_kossakowski", "sample_random_hamiltonian", "heisenberg_hamiltonian"),
        True,
    ),
    "liouvillian.build": (
        "liouvillian",
        ("jump_operator_set", "build_dissipator", "build_unitary_part"),
        True,
    ),
    "liouvillian.generator": (
        "liouvillian",
        ("assemble", "assemble_weak", "pauli_basis_form", "real_pauli_form"),
        True,
    ),
    "liouvillian.unitary_pauli": ("liouvillian", ("unitary_pauli_matrix",), True),
    "perturbation.predict": ("perturbation", ("predict",), True),
    # diagonalize is one function; its spans go to spectral.eigvals or
    # spectral.eigvectors by its ``vectors`` argument.
    "spectral.eigvals": ("spectral", ("diagonalize",), True),
    "spectral.eigvectors": ("spectral", (), True),
    "spectral.csr": (
        "spectral",
        ("complex_spacing_ratios", "csr_reference_ginibre", "csr_reference_poisson"),
        False,
    ),
    "spectral.cluster": ("spectral", ("cluster_by_centers",), False),
    "spectral.modes": (
        "spectral",
        ("persistent_modes", "commutant_basis", "random_weight_operator"),
        False,
    ),
    "cli.write": (
        "cli",
        ("OutputTracker.write_text", "OutputTracker.write_rows", "OutputTracker.write_json"),
        False,
    ),
}

# Operation counts of the dense solves in real flops, computed from the
# dimension n, not measured (Golub & Van Loan): eigenvalues only 10 n^3,
# eigenvalues and right vectors 25 n^3, four times either for a complex
# matrix.  The vectors path adds three complex n x n products at 8 n^3 each:
# the residual M @ V, the inverse of V for the left modes, and the
# biorthogonality check L @ R.
EIGVALS_FLOP = 10
EIG_VECTORS_FLOP = 25
EXTRA_VECTORS_FLOP = 3 * 8
COMPLEX_FACTOR = 4


def _diagonalize_span(args: tuple, kwargs: dict) -> tuple[str, float]:
    matrix = args[0].matrix
    n = matrix.shape[0]
    scale = COMPLEX_FACTOR if matrix.dtype.kind == "c" else 1
    if kwargs.get("vectors", args[1] if len(args) > 1 else True):
        flop = EIG_VECTORS_FLOP * scale * n**3 + EXTRA_VECTORS_FLOP * n**3
        return "spectral.eigvectors", flop / 1e9
    return "spectral.eigvals", EIGVALS_FLOP * scale * n**3 / 1e9


def _fixed(layer: str) -> Callable[[tuple, dict], tuple[str, float]]:
    return lambda args, kwargs: (layer, 0.0)


class Tracer:
    """Keeps the spans of one process in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, func: Callable, describe: Callable[[tuple, dict], tuple[str, float]]) -> Callable:
        @functools.wraps(func)
        def timed(*args, **kwargs):
            layer, gflop = describe(args, kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([layer, func.__qualname__, time.perf_counter(), None, parent, gflop])
            self._open.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][3] = time.perf_counter()

        return timed

    def install(self) -> None:
        """Wrap every function in LAYERS; the package must be imported."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "klindblad"]
        for layer, (module_name, functions, _) in LAYERS.items():
            module = importlib.import_module(f"klindblad.{module_name}")
            for path in functions:
                describe = _diagonalize_span if path == "diagonalize" else _fixed(layer)
                if "." in path:
                    cls_name, method = path.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self.wrap(getattr(cls, method), describe))
                    continue
                original = getattr(module, path)
                wrapped = self.wrap(original, describe)
                for holder in modules:
                    for attr in [a for a, v in vars(holder).items() if v is original]:
                        setattr(holder, attr, wrapped)


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer self time, call counts, computed GFLOP and glue time."""
    spans = trace["spans"]
    enclosed = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            enclosed[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    covered = 0.0
    gflop = 0.0
    for i, (layer, _, start, end, parent, span_gflop) in enumerate(spans):
        self_s[layer] += end - start - enclosed[i]
        calls[layer] += 1
        gflop += span_gflop
        if parent is None:
            covered += end - start
    metrics: dict[str, float] = {}
    for layer, (_, _, counted) in LAYERS.items():
        metrics[f"{layer}_s"] = self_s[layer]
        if counted:
            metrics[f"{layer}_calls"] = calls[layer]
    metrics["spectral.eig_gflop_computed"] = gflop
    metrics["cli.glue_s"] = trace["wall_s"] - covered
    return metrics


def function_table(trace: dict) -> str:
    """Calls and inclusive time per wrapped function, slowest first."""
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for layer, name, start, end, _, _ in trace["spans"]:
        total[f"{layer} {name}"] += end - start
        count[f"{layer} {name}"] += 1
    lines = [f"{'layer function':<60} {'calls':>6} {'total_s':>9}"]
    for key in sorted(total, key=total.get, reverse=True):
        lines.append(f"{key:<60} {count[key]:>6} {total[key]:>9.3f}")
    lines.append(f"{'command wall time':<60} {'':>6} {trace['wall_s']:>9.3f}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    from klindblad import cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = cli.main(cli_args)
    trace = {"wall_s": time.perf_counter() - start, "spans": tracer.spans}
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(trace))
    print(function_table(trace), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
