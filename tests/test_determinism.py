"""Across machines only tolerances hold: the output comparator, and two
OpenBLAS kernels whose bytes differ while the comparator passes."""

import json
import os
import platform
import subprocess
import sys

import pytest
from comparator import compare_dirs

from klindblad import openblas


def _write(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)


def test_comparator_holds_integers_and_labels_exact_and_floats_to_a_tolerance(tmp_path):
    header = "seed,mode_index,re,cluster_label\n"
    base = {
        "eigenvalues.csv": header + "1,0,-0.5,steady\n1,1,1234.5,2\n",
        "summary.json": json.dumps({"count": 3, "mean": 0.25, "label": "a", "none": None}),
        "manifest.json": "{}",
    }
    _write(tmp_path / "a", base)
    close = {
        "eigenvalues.csv": header + "1,0,-0.50000000000000011,steady\n1,1,1234.5000000000002,2\n",
        "summary.json": json.dumps({"count": 3, "mean": 0.25 + 1e-16, "label": "a", "none": None}),
        # a manifest's digests and kernel are expected to differ
        "manifest.json": '{"differs": 1}',
    }
    _write(tmp_path / "close", close)
    assert compare_dirs(tmp_path / "a", tmp_path / "close") == []
    wrong = {
        "eigenvalues.csv": header + "1,0,-0.5000000001,steady\n1,2,1234.5,1\n",
        "summary.json": json.dumps({"count": 4, "mean": 0.25, "label": "b", "none": 0}),
        "manifest.json": "{}",
    }
    _write(tmp_path / "wrong", wrong)
    found = compare_dirs(tmp_path / "a", tmp_path / "wrong")
    assert [m.split(":")[0] for m in found] == [
        "eigenvalues.csv[1][2]", "eigenvalues.csv[2][1]", "eigenvalues.csv[2][3]",
        "summary.json.count", "summary.json.label", "summary.json.none"]
    _write(tmp_path / "short", {k: v for k, v in base.items() if k != "summary.json"})
    assert compare_dirs(tmp_path / "a", tmp_path / "short") == [
        "only in one directory: ['summary.json']"]


def _run(args, out, coretype=None):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    result = subprocess.run([sys.executable, "-m", "klindblad.cli", *args, "--out", str(out)],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads((out / "manifest.json").read_text())


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
@pytest.mark.skipif(openblas.numpy_openblas() is None, reason="numpy's OpenBLAS was not found")
@pytest.mark.parametrize("args", [
    ("spectrum", "--sites", "4", "--alpha", "0.1", "--seed", "1"),
    ("csr", "--sites", "4", "--alpha", "0.1,0.5", "--realizations", "2", "--seed", "1"),
], ids=["spectrum", "csr"])
def test_another_blas_kernel_changes_bytes_within_the_tolerance(tmp_path, args):
    # the Haar QR behind K rounds by kernel, so the K digests differ; the
    # payloads agree to the comparator's tolerance, with equal labels and counts
    native = _run(args, tmp_path / "native")
    other = _run(args, tmp_path / "prescott", coretype="Prescott")
    if native["libraries"]["blas"]["core"] == other["libraries"]["blas"]["core"]:
        pytest.skip("the default kernel is the one OPENBLAS_CORETYPE=Prescott selects")
    assert ([m["kossakowski_sha256"] for m in native["models"]]
            != [m["kossakowski_sha256"] for m in other["models"]])
    assert compare_dirs(tmp_path / "native", tmp_path / "prescott") == []
