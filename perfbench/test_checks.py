"""Each correctness check rejects a payload corrupted in the way it guards.

    python3 -m pytest perfbench/test_checks.py

Real payloads come from small klindblad runs; every test copies one,
corrupts one thing, and requires the matching check to report it.  A clean
copy must pass, so the failures come from the corruption.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
HEISENBERG_ALPHAS = ["16", "32"]
SWEEP_BETAS = ["0", "0.05"]
CSR_ALPHAS = ["0.5"]


def _klindblad(out: Path, *args: str) -> Path:
    subprocess.run(
        [sys.executable, "-m", "klindblad.cli", *args, "--seed", "5", "--out", str(out)],
        env=ENV, check=True,
    )  # fmt: skip
    return out


@pytest.fixture(scope="module")
def payloads(tmp_path_factory) -> dict[str, Path]:
    base = tmp_path_factory.mktemp("payloads")
    return {
        "heisenberg": _klindblad(
            base / "heisenberg", "heisenberg", "--sites", "5", "--alpha", ",".join(HEISENBERG_ALPHAS)
        ),
        "sweep": _klindblad(
            base / "sweep", "sweep-beta", "--sites", "4", "--beta", ",".join(SWEEP_BETAS),
            "--exact-h-norm",
        ),
        "csr": _klindblad(
            base / "csr", "csr", "--sites", "5", "--alpha", ",".join(CSR_ALPHAS),
            "--realizations", "2",
        ),
    }  # fmt: skip


@pytest.fixture(scope="module")
def ginibre() -> np.ndarray:
    return checks.ginibre_ratios(np.random.default_rng(5))


def _verify(kind: str, out: Path, ginibre: np.ndarray) -> list[str]:
    if kind == "heisenberg":
        return checks.verify_heisenberg(out, 5, HEISENBERG_ALPHAS)
    if kind == "sweep":
        return checks.verify_sweep(out, 4, SWEEP_BETAS)
    return checks.verify_csr(out, CSR_ALPHAS, ginibre)


def _edit_rows(path: Path, edit) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    body = edit(header, body)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *body])


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _set(column: str, value, pick=lambda header, row: True):
    """Edit: set ``column`` of the first row that ``pick`` selects."""

    def edit(header, body):
        i = header.index(column)
        row = next(r for r in body if pick(header, r))
        row[i] = value(row[i]) if callable(value) else value
        return body

    return edit


def _real_mode(header, row) -> bool:
    re, im = float(row[header.index("re")]), float(row[header.index("im")])
    return im == 0.0 and re < -1e-3


def _scale_im(factor: float):
    def edit(header, body):
        i = header.index("im")
        for row in body:
            row[i] = repr(float(row[i]) * factor)
        return body

    return edit


def _lift_zero_modes(header, body):
    """Move the zero modes of a unitary spectrum to +-0.5i in conjugate pairs."""
    re, im = header.index("re"), header.index("im")
    zeros = [r for r in body if abs(complex(float(r[re]), float(r[im]))) < 1e-8]
    for k, row in enumerate(zeros[: len(zeros) // 2 * 2]):
        row[im] = "0.5" if k % 2 else "-0.5"
    return body


def _poisson_counts(header, body):
    """Replace the pooled histogram by the Poisson law p(r) = 2r."""
    total = sum(int(r[2]) for r in body)
    for row in body:
        lo, hi = float(row[0]), float(row[1])
        row[2] = str(round(total * (hi * hi - lo * lo)))
    return body


def _swap_digests(manifest: dict) -> None:
    files = manifest["files"]
    a, b = sorted(files)[:2]
    files[a], files[b] = files[b], files[a]


A16 = "eigenvalues_r000_a16.csv"
A32 = "eigenvalues_r000_a32.csv"
B0 = "eigenvalues_r000_b0.csv"
B005 = "eigenvalues_r000_b0.05.csv"

CORRUPTIONS = {
    "shifted eigenvalue": ("heisenberg", A16, _set("re", lambda v: repr(float(v) - 1e-6), _real_mode), "trace identity"),
    "dropped row": ("heisenberg", A32, lambda header, body: body[:-1], "spectrum size"),
    "broken conjugate pair": ("heisenberg", A16, _set("im", lambda v: repr(-float(v)), lambda h, r: float(r[4]) > 0.1), "conjugation"),
    "unstable mode": ("heisenberg", A16, _set("re", "1e-06", _real_mode), "stability"),
    "second steady state": ("heisenberg", A32, _set("re", "0", _real_mode), "steady state"),
    "profile off by 1e-9": ("heisenberg", A32, _set("w2", lambda v: repr(float(v) + 1e-9)), "weight profiles"),
    "same-weight coupling": ("heisenberg", "unitary_structure.json", lambda d: d["2,2"].update(nonzeros=4), "unitary structure"),
    "wrong commutant dimension": ("heisenberg", "commutant.json", lambda d: d["dims_by_weight"].update({"2": 8}), "commutant"),
    "wrong window count": ("heisenberg", "persistence_r000.json", lambda d: next(g for g in d["groups"] if g["label"] == "1")["counts"].__setitem__(-1, 4), "persistence"),
    "beta trace shifted": ("sweep", B005, _set("re", lambda v: repr(float(v) - 1e-6), _real_mode), "trace identity"),
    "second steady state at beta > 0": ("sweep", B005, _set("re", "0", _real_mode), "steady state"),
    "damped unitary mode": ("sweep", B0, _set("re", "-1e-06", lambda h, r: float(r[4]) > 0.1), "max |Re|"),
    "unitary Im spread": ("sweep", B0, _scale_im(1.001), "Im std"),
    "missing zero modes": ("sweep", B0, _lift_zero_modes, "zero modes"),
    "histogram count": ("csr", "csr_data_a0.5.csv", _set("count", lambda v: str(int(v) + 1), lambda h, r: int(r[2]) > 0), "histogram"),
    "Poisson reference mean": ("csr", "csr_summary.json", lambda d: d.update(poisson_mean_ratio=0.74), "Poisson reference"),
    "Poisson-like ratios": ("csr", "csr_data_a0.5.csv", _poisson_counts, "spacing ratios"),
    "swapped digest": ("csr", "manifest.json", _swap_digests, "manifest: digest"),
}  # fmt: skip


@pytest.mark.parametrize("kind", ["heisenberg", "sweep", "csr"])
def test_clean_payload_passes(kind, payloads, ginibre):
    assert _verify(kind, payloads[kind], ginibre) == []


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_payload_is_rejected(name, payloads, ginibre, tmp_path):
    kind, file_name, edit, expected = CORRUPTIONS[name]
    out = tmp_path / kind
    shutil.copytree(payloads[kind], out)
    if file_name.endswith(".json"):
        _edit_json(out / file_name, edit)
    else:
        _edit_rows(out / file_name, edit)
    failures = _verify(kind, out, ginibre)
    assert any(expected in f for f in failures), failures


def test_swapped_digest_differs_between_runs(payloads):
    reference = checks.payload_digests(payloads["csr"])
    swapped = json.loads(json.dumps(reference))
    _swap_digests(swapped)
    checks.equal_digests(reference, json.loads(json.dumps(reference)))
    with pytest.raises(checks.CheckFailure, match="digests"):
        checks.equal_digests(reference, swapped)


def test_layer_self_times_exclude_enclosed_spans():
    trace = {
        "wall_s": 12.0,
        "spans": [
            ["spectral.modes", "commutant_basis", 1.0, 6.0, None, 0.0],
            ["liouvillian.unitary_pauli", "unitary_pauli_matrix", 2.0, 4.0, 0, 0.0],
            ["spectral.eigvals", "diagonalize", 7.0, 10.0, None, 1.5],
        ],
    }
    metrics = tracer.layer_metrics(trace)
    assert metrics["spectral.modes_s"] == 3.0
    assert metrics["liouvillian.unitary_pauli_s"] == 2.0
    assert metrics["liouvillian.unitary_pauli_calls"] == 1
    assert metrics["spectral.eig_gflop_computed"] == 1.5
    assert metrics["cli.glue_s"] == 4.0


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "traces", "__pycache__"))  # fmt: skip
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csr-5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert run.returncode != 0
    assert run.stdout == ""
