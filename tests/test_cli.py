"""End-to-end checks of the experiment runner: exit codes, output inventory,
and the byte-level reproducibility contract."""

import csv
import ctypes
import hashlib
import importlib.metadata
import json
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import klindblad.cli as cli
from klindblad.cli import main
from klindblad.errors import NumericalError
from klindblad.liouvillian import assemble, lambda0, unitary_pauli_matrix
from klindblad import openblas
from klindblad.spectral import commutant_basis
from klindblad.ensemble import (
    HamiltonianSpec,
    heisenberg_hamiltonian,
    kossakowski_to_json_dict,
    sample_random_hamiltonian,
)
from klindblad.pauli import PauliBasis


def run(*args):
    return main([str(a) for a in args])


def manifest_of(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


# --- spectrum ---------------------------------------------------------------


def test_spectrum_outputs_and_manifest_inventory(tmp_path):
    out = tmp_path / "run"
    assert run("spectrum", "--sites", 2, "--seed", 11, "--alpha", "0,0.1",
               "--realizations", 2, "--out", out) == 0
    manifest = manifest_of(out)
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["files"]) == on_disk
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    for r in range(2):
        for tag in ("0", "0.1"):
            assert f"eigenvalues_r{r:03d}_a{tag}.csv" in on_disk
            assert f"clusters_r{r:03d}_a{tag}.json" in on_disk
    rows = (out / "eigenvalues_r000_a0.csv").read_text().splitlines()
    assert len(rows) == 1 + 16
    assert manifest["config"]["sites"] == 2
    assert manifest["axis_rescale"]["im"] == {"0": None, "0.1": 10.0}


def test_manifest_records_numeric_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "run"
    assert run("spectrum", "--sites", 2, "--seed", 11, "--alpha", "0", "--out", out) == 0
    manifest = manifest_of(out)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # the run pins numpy's OpenBLAS to one thread, where it finds that library
    pinned = None if openblas.numpy_openblas() is None else 1
    # the kernel OpenBLAS picked for this CPU and its build string, read
    # from the library as the thread count is
    lib = openblas.numpy_openblas()
    strings = [None, None]
    if lib is not None:
        for i, name in enumerate(("scipy_openblas_get_corename64_",
                                  "scipy_openblas_get_config64_")):
            getter = getattr(lib, name)
            getter.restype = ctypes.c_char_p
            strings[i] = getter().decode()
        assert strings[0] and strings[0] in strings[1]
    assert manifest["libraries"]["blas"] == {
        "name": blas["name"], "version": blas["version"], "threads": pinned,
        "core": strings[0], "config": strings[1]}
    # looked up without importing scipy, with its own version string
    import scipy
    assert manifest["libraries"]["scipy"] == scipy.__version__
    threads = manifest["blas_threads"]
    assert threads["OMP_NUM_THREADS"] == "3"
    assert threads["MKL_NUM_THREADS"] is None
    assert threads["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")


def test_manifest_without_numpy_openblas_records_null(tmp_path, monkeypatch):
    monkeypatch.setattr(openblas, "numpy_openblas", lambda: None)
    out = tmp_path / "run"
    assert run("spectrum", "--sites", 2, "--seed", 11, "--alpha", "0", "--out", out) == 0
    blas = manifest_of(out)["libraries"]["blas"]
    assert blas["threads"] is blas["core"] is blas["config"] is None


def test_manifest_without_scipy_records_null(tmp_path, monkeypatch):
    def absent(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(importlib.metadata, "version", absent)
    out = tmp_path / "run"
    assert run("spectrum", "--sites", 2, "--seed", 11, "--alpha", "0", "--out", out) == 0
    assert manifest_of(out)["libraries"]["scipy"] is None


def test_spectrum_byte_reproducibility(tmp_path):
    args = ("spectrum", "--sites", 2, "--seed", 7, "--alpha", "0.3",
            "--realizations", 2)
    assert run(*args, "--out", tmp_path / "a") == 0
    assert run(*args, "--out", tmp_path / "b") == 0
    files_a = manifest_of(tmp_path / "a")["files"]
    files_b = manifest_of(tmp_path / "b")["files"]
    assert files_a == files_b


def test_model_digests_do_not_depend_on_alpha_list(tmp_path):
    assert run("spectrum", "--sites", 2, "--seed", 5, "--alpha", "0.1",
               "--out", tmp_path / "a") == 0
    assert run("spectrum", "--sites", 2, "--seed", 5, "--alpha", "0.3,0.7",
               "--out", tmp_path / "b") == 0
    assert manifest_of(tmp_path / "a")["models"] == manifest_of(tmp_path / "b")["models"]


WORKER_CASES = {
    "spectrum": ("spectrum", "--sites", 4, "--alpha", "0,0.2,1"),
    "sweep-beta0": ("sweep-beta", "--sites", 4, "--beta", "0"),
    "sweep-beta": ("sweep-beta", "--sites", 4, "--beta", "0,0.05,0.2"),
    "csr": ("csr", "--sites", 4, "--alpha", "0.1,0.5"),
    "heisenberg": ("heisenberg", "--sites", 4, "--alpha", "1,4,16"),
    "density": ("density", "--sites", 3, "--alpha", "0,0.5"),
}


# One realization spreads its couplings over the pool; three realizations
# map onto it whole.  density needs at least two realizations.
@pytest.mark.parametrize(
    "args, realizations",
    [
        pytest.param(args, realizations, id=f"{name}-r{realizations}")
        for name, args in WORKER_CASES.items()
        for realizations in (1, 3)
        if not (name == "density" and realizations == 1)
    ],
)
def test_worker_count_does_not_change_output_bytes(tmp_path, args, realizations):
    common = (*args, "--seed", 3, "--realizations", realizations)
    assert run(*common, "--workers", 1, "--out", tmp_path / "serial") == 0
    assert run(*common, "--workers", 2, "--out", tmp_path / "pool") == 0
    serial, pool = manifest_of(tmp_path / "serial"), manifest_of(tmp_path / "pool")
    assert serial["files"] == pool["files"]
    assert serial["models"] == pool["models"]


def test_pool_output_survives_frequent_thread_switches(tmp_path):
    # four workers, switching threads every microsecond: a race on
    # a realization's shared state would change the bytes
    interval = sys.getswitchinterval()
    outputs = {}
    try:
        sys.setswitchinterval(1e-6)
        for realizations, alphas in ((1, "0,0.1,0.2,0.5,1,2"), (6, "0.1,1")):
            for workers in (1, 4):
                out = tmp_path / f"r{realizations}w{workers}"
                assert run("spectrum", "--sites", 3, "--seed", 9, "--alpha", alphas,
                           "--realizations", realizations, "--workers", workers,
                           "--out", out) == 0
                outputs[realizations, workers] = manifest_of(out)["files"]
    finally:
        sys.setswitchinterval(interval)
    assert outputs[1, 1] == outputs[1, 4]
    assert outputs[6, 1] == outputs[6, 4]


def test_pool_workers_are_threads_of_this_process(tmp_path, monkeypatch):
    import multiprocessing
    import threading

    seen = []
    diagonalize = cli.diagonalize

    def recording(*args, **kwargs):
        seen.append((os.getpid(), threading.get_ident(), multiprocessing.active_children()))
        return diagonalize(*args, **kwargs)

    monkeypatch.setattr(cli, "diagonalize", recording)
    for realizations in (1, 3):
        assert run("spectrum", "--sites", 3, "--seed", 1, "--alpha", "0.1,0.2",
                   "--realizations", realizations, "--workers", 2,
                   "--out", tmp_path / f"r{realizations}") == 0
    assert len(seen) == 2 + 6
    assert {pid for pid, _, _ in seen} == {os.getpid()}
    assert threading.get_ident() not in {ident for _, ident, _ in seen}
    assert all(children == [] for _, _, children in seen)
    source = "".join(p.read_text() for p in Path(cli.__file__).parent.glob("*.py"))
    assert "ProcessPoolExecutor" not in source


def test_blas_thread_count_does_not_change_output_bytes(tmp_path):
    # 5 sites: smaller matrices stay under OpenBLAS's threading thresholds
    args = [sys.executable, "-m", "klindblad.cli", "csr", "--sites", "5",
            "--alpha", "0.05,0.5", "--realizations", "2", "--seed", "77", "--workers", "2"]
    manifests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([*args, "--out", str(out)], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        manifests.append(manifest_of(out))
    if manifests[0]["libraries"]["blas"]["threads"] is None:
        pytest.skip("numpy's OpenBLAS was not found, so nothing pins its threads")
    assert [m["libraries"]["blas"]["threads"] for m in manifests] == [1, 1]
    assert manifests[0]["files"] == manifests[1]["files"]
    assert manifests[0]["models"] == manifests[1]["models"]


def test_predictions_file_round_trips_exact_centers(tmp_path):
    out = tmp_path / "run"
    assert run("spectrum", "--sites", 4, "--seed", 2, "--alpha", "0.1",
               "--out", out) == 0
    rows = (out / "predictions.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        cells = row.split(",")
        k = int(cells[1])
        assert float(cells[2]) == lambda0(k, 4)


def test_predictions_and_clusters_follow_k_max(tmp_path):
    out = tmp_path / "run"
    assert run("spectrum", "--sites", 3, "--seed", 1, "--kmax", 1, "--alpha", "0",
               "--out", out) == 0
    rows = [r.split(",") for r in (out / "predictions.csv").read_text().splitlines()[1:]]
    assert [float(r[2]) for r in rows] == [lambda0(k, 3, k_max=1) for k in range(4)]
    assert float(rows[1][2]) == -4 / 9
    clusters = json.loads((out / "clusters_r000_a0.json").read_text())
    populations = {c["label"]: c["population"] for c in clusters["clusters"]}
    assert populations["0"] == 0
    assert clusters["steady_count"] == 1


def test_couplings_with_colliding_file_names_are_rejected(tmp_path, capsys):
    assert run("spectrum", "--sites", 2, "--seed", 1, "--alpha", "0.1234567,0.1234568",
               "--out", tmp_path / "run") == 2
    assert "colliding" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert run("sweep-beta", "--sites", 2, "--seed", 1, "--beta", "0.1,0.1",
               "--out", tmp_path / "run") == 2


def test_gnuplot_stub_references_payloads(tmp_path):
    out = tmp_path / "run"
    assert run("spectrum", "--sites", 2, "--seed", 1, "--alpha", "0.1",
               "--gnuplot", "--out", out) == 0
    stub = (out / "plot.gp").read_text()
    assert "eigenvalues_r000_a0.1.csv" in stub


# --- sweep-beta -------------------------------------------------------------


def test_sweep_beta_trace_identity(tmp_path):
    out = tmp_path / "run"
    assert run("sweep-beta", "--sites", 2, "--seed", 13, "--beta", "0,0.02,0.05",
               "--out", out) == 0
    rows = (out / "summary_beta.csv").read_text().splitlines()[1:]
    for row in rows:
        _, beta, mean_re, std_im = row.split(",")
        beta = float(beta)
        if beta == 0:
            # pure commutator generator: spectrum on the imaginary axis
            assert abs(float(mean_re)) < 1e-12
            assert float(std_im) > 0.1
        else:
            assert abs(float(mean_re) + beta) < 1e-10 * beta


def test_sweep_beta_zero_comes_from_the_levels_of_h(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("beta = 0 built or solved a superoperator")

    for name in ("build_unitary_part", "dissipator_factor", "diagonalize"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "run"
    assert run("sweep-beta", "--sites", 4, "--seed", 3, "--beta", 0, "--exact-h-norm",
               "--out", out) == 0
    rows = (out / "eigenvalues_r000_b0.csv").read_text().splitlines()[1:]
    eigs = np.array([complex(float(r.split(",")[3]), float(r.split(",")[4])) for r in rows])
    assert eigs.size == 4**4
    assert np.abs(eigs.real).max() == 0.0
    assert np.count_nonzero(eigs == 0) >= 2**4
    # Im variance 2 Tr H^2 / 2^l = 2 for the traceless H with Tr H^2 = 2^l
    assert abs(eigs.imag.std() - np.sqrt(2.0)) < 1e-12


def test_non_finite_hamiltonian_exits_4(tmp_path, monkeypatch):
    def non_finite(num_sites, rng=None, exact_norm=False):
        h = heisenberg_hamiltonian(num_sites)
        return HamiltonianSpec(num_sites, h.kind, {s: np.nan for s in h.coefficients})

    monkeypatch.setattr(cli, "sample_random_hamiltonian", non_finite)
    assert run("sweep-beta", "--sites", 3, "--seed", 1, "--beta", 0,
               "--out", tmp_path / "run") == 4


# --- csr --------------------------------------------------------------------


def test_csr_outputs(tmp_path):
    out = tmp_path / "run"
    assert run("csr", "--sites", 3, "--seed", 17, "--alpha", "0.5",
               "--realizations", 2, "--bins", 10, "--out", out) == 0
    summary = json.loads((out / "csr_summary.json").read_text())
    assert summary["poisson_geometry"] == "disk"
    entry = summary["data"]["a0.5"]
    assert 0.0 <= entry["ks_vs_ginibre"] <= 1.0
    assert 0.0 <= entry["ks_vs_poisson"] <= 1.0
    data_rows = (out / "csr_data_a0.5.csv").read_text().splitlines()[1:]
    assert len(data_rows) == 10
    assert sum(int(r.split(",")[2]) for r in data_rows) == entry["ratio_count"]
    assert (out / "csr_ginibre.csv").exists()
    assert (out / "csr_poisson.csv").exists()


def test_csr_unitary_only_uses_line_reference(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a unitary-only run built a superoperator")

    for name in ("jump_operator_set", "dissipator_factor", "build_unitary_part"):
        monkeypatch.setattr(cli, name, refuse)
    out = tmp_path / "run"
    assert run("csr", "--sites", 4, "--seed", 17, "--unitary-only",
               "--out", out) == 0
    summary = json.loads((out / "csr_summary.json").read_text())
    assert summary["poisson_geometry"] == "line"
    assert set(summary["data"]) == {"unitary"}


def test_csr_unitary_only_keeps_only_nonzero_level_differences(tmp_path):
    # of the 4^l differences E_n - E_m, the 2^l with n = m are zero and sit
    # on the real axis up to solver noise; half of the rest have Im > 0
    out = tmp_path / "run"
    assert run("csr", "--sites", 4, "--seed", 1, "--unitary-only", "--realizations", 2,
               "--min-ratios", 3, "--out", out) == 0
    summary = json.loads((out / "csr_summary.json").read_text())
    assert summary["data"]["unitary"]["ratio_count"] == 2 * (4**4 - 2**4) // 2


def test_csr_unitary_only_uses_distinct_levels_at_odd_sites(tmp_path):
    # every level of a 2-local H is a Kramers pair at 3 sites: 4 distinct
    # levels give 4 * 3 / 2 differences with Im > 0 per realization
    out = tmp_path / "run"
    assert run("csr", "--sites", 3, "--seed", 1, "--unitary-only", "--realizations", 2,
               "--min-ratios", 3, "--out", out) == 0
    summary = json.loads((out / "csr_summary.json").read_text())
    assert summary["data"]["unitary"]["ratio_count"] == 2 * (4 * 3 // 2)
    assert run("csr", "--sites", 3, "--seed", 1, "--unitary-only",
               "--out", tmp_path / "run2") == 2


def test_csr_too_few_ratios_is_config_error(tmp_path, capsys):
    # 4 energies give only 6 upper-half-plane differences, under the default 10
    assert run("csr", "--sites", 2, "--seed", 1, "--unitary-only",
               "--out", tmp_path / "run") == 2
    assert "error:" in capsys.readouterr().err
    assert run("csr", "--sites", 2, "--seed", 1, "--unitary-only",
               "--min-ratios", 3, "--out", tmp_path / "run2") == 0


# --- heisenberg -------------------------------------------------------------


def test_heisenberg_outputs(tmp_path):
    out = tmp_path / "run"
    assert run("heisenberg", "--sites", 3, "--seed", 23, "--alpha", "0.5,1",
               "--out", out) == 0
    dims = json.loads((out / "commutant.json").read_text())["dims_by_weight"]
    h = heisenberg_hamiltonian(3)
    assert dims == {str(w): commutant_basis(h, w).shape[1] for w in (1, 2)}
    persistence = json.loads((out / "persistence_r000.json").read_text())
    assert persistence["alphas"] == [0.5, 1.0]
    assert {"label", "center", "counts", "modes"} <= set(persistence["groups"][0])
    structure = json.loads((out / "unitary_structure.json").read_text())
    for pair, block in structure.items():
        k_row, k_col = (int(p) for p in pair.split(","))
        if abs(k_row - k_col) != 1:
            assert block["nonzeros"] == 0


@pytest.mark.parametrize("num_sites", [3, 4, 5])
def test_structure_census_matches_sparse_matrix_slicing(num_sites):
    # the census the payload had when it sliced a scipy.sparse matrix
    import scipy.sparse as sp

    basis = PauliBasis(num_sites)
    for h in (heisenberg_hamiltonian(num_sites), sample_random_hamiltonian(num_sites, seed=4)):
        l_u = unitary_pauli_matrix(h, basis)
        csc = sp.csc_matrix((l_u.values, (l_u.rows, l_u.cols)), shape=(l_u.dim, l_u.dim))
        want = {}
        for k_row in basis.weights():
            for k_col in basis.weights():
                block = csc[basis.sector(k_row), basis.sector(k_col)]
                want[f"{k_row},{k_col}"] = {
                    "nonzeros": int(block.nnz),
                    "max_abs": float(np.abs(block.data).max()) if block.nnz else 0.0,
                }
        assert cli._structure_payload(l_u, basis) == want


def test_persistence_profiles_equal_the_eigenvalue_rows(tmp_path):
    # one reader gives a mode's weight profile to both files, so the JSON
    # floats equal the 17-digit CSV columns of the strongest coupling
    out = tmp_path / "run"
    assert run("heisenberg", "--sites", 4, "--seed", 1, "--alpha", "0.5,2", "--out", out) == 0
    with open(out / "eigenvalues_r000_a2.csv") as f:
        rows = {tuple(float(row[key]) for key in ("re", "im", "w0", "w1", "w2", "w3", "w4"))
                for row in csv.DictReader(f)}
    persistence = json.loads((out / "persistence_r000.json").read_text())
    modes = [(m["eigenvalue_re"], m["eigenvalue_im"], *m["profile"])
             for group in persistence["groups"] for m in group["modes"]]
    assert len(modes) == persistence["total_persistent"] > 0
    assert [mode for mode in modes if mode not in rows] == []


def test_heisenberg_rejects_random_hamiltonian(tmp_path):
    assert run("heisenberg", "--sites", 3, "--seed", 1, "--alpha", "0.5,1",
               "--hamiltonian", "random", "--out", tmp_path / "run") == 2


def test_heisenberg_needs_two_alphas(tmp_path):
    assert run("heisenberg", "--sites", 3, "--seed", 1, "--alpha", "0.5",
               "--out", tmp_path / "run") == 2


# --- density ----------------------------------------------------------------


def test_density_outputs_and_rescale(tmp_path):
    out = tmp_path / "run"
    assert run("density", "--sites", 2, "--seed", 31, "--alpha", "0,1.5",
               "--realizations", 3, "--re-bins", 8, "--im-bins", 8,
               "--rescale-im", "--out", out) == 0
    summary = json.loads((out / "density_summary.json").read_text())
    assert summary["wide_error_bars"] is True
    assert summary["per_alpha"]["0"]["im_scale"] == 1.0
    assert summary["per_alpha"]["1.5"]["im_scale"] == pytest.approx(1 / 1.5)
    for entry in summary["per_alpha"].values():
        assert 0.0 <= entry["tv_single_vs_pool"] <= 1.0
    assert (out / "density_pooled_a1.5.csv").exists()
    assert (out / "density_single_a1.5.csv").exists()


def test_density_needs_two_realizations(tmp_path):
    assert run("density", "--sites", 2, "--seed", 1, "--alpha", "0.1",
               "--realizations", 1, "--out", tmp_path / "run") == 2


# --- config resolution ------------------------------------------------------


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sites": 3, "seed": 9, "alphas": [0.2],
                               "out": str(tmp_path / "ignored")}))
    out = tmp_path / "run"
    assert run("spectrum", "--config", cfg, "--sites", 2, "--out", out) == 0
    resolved = manifest_of(out)["config"]
    assert resolved["sites"] == 2
    assert resolved["seed"] == 9
    assert resolved["alphas"] == [0.2]


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sites": 2, "seed": 1, "out": "x", "frobnicate": 1}))
    assert run("spectrum", "--config", cfg, "--alpha", "0.1") == 2
    assert "frobnicate" in capsys.readouterr().err


def test_config_missing_required_settings(tmp_path, capsys):
    assert run("spectrum", "--sites", 2, "--alpha", "0.1",
               "--out", tmp_path / "run") == 2
    assert "seed" in capsys.readouterr().err


def test_config_invalid_json(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run("spectrum", "--config", cfg) == 2


def test_config_file_missing(tmp_path):
    assert run("spectrum", "--config", tmp_path / "absent.json") == 2


def test_alpha_and_beta_mutually_exclusive(tmp_path):
    assert run("spectrum", "--sites", 2, "--seed", 1, "--alpha", "0.1",
               "--beta", "0.1", "--out", tmp_path / "run") == 2


@pytest.mark.parametrize(
    "settings, args",
    [
        pytest.param({}, ["--seed", -1], id="negative-seed"),
        pytest.param({"seed": 1.5}, [], id="float-seed"),
        pytest.param({"seed": True}, [], id="bool-seed"),
        pytest.param({"sites": "3"}, ["--seed", 1], id="string-sites"),
        pytest.param({"alphas": 0.1}, ["--seed", 1], id="scalar-alphas"),
        pytest.param({"alphas": ["0.1"]}, ["--seed", 1], id="string-alpha"),
        pytest.param({"window": "wide"}, ["--seed", 1], id="string-window"),
        pytest.param({"gnuplot": 1}, ["--seed", 1], id="int-flag"),
        pytest.param({}, ["--seed", 1, "--alpha", "nan"], id="nan-alpha"),
        pytest.param({}, ["--seed", 1, "--alpha", "0.1,inf"], id="inf-alpha"),
        pytest.param({}, ["--seed", 1, "--window", "nan"], id="nan-window"),
    ],
)
def test_configuration_errors_exit_2(tmp_path, capsys, settings, args):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sites": 3, "alphas": [0.1], **settings}))
    assert run("csr", "--config", cfg, *args, "--out", tmp_path / "run") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_file_must_hold_an_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('["sites"]')
    assert run("csr", "--config", cfg) == 2


def test_k_max_out_of_range(tmp_path):
    assert run("spectrum", "--sites", 2, "--seed", 1, "--alpha", "0.1",
               "--kmax", 5, "--out", tmp_path / "run") == 2


# --- guardrails and failure mapping -----------------------------------------


def test_site_guardrail_exit_code(tmp_path, monkeypatch, capsys):
    # every subcommand that solves a generator is refused at 7 sites, where
    # it first needs the complete basis: before K, the basis or a part is built
    def refuse(*args, **kwargs):
        raise AssertionError("built something before the guardrail")

    for name in ("sample_kossakowski", "PauliBasis", "jump_operator_set",
                 "build_unitary_part", "dissipator_factor"):
        monkeypatch.setattr(cli, name, refuse)
    for args in (("spectrum", "--alpha", "0.1"), ("sweep-beta", "--beta", "0.1"),
                 ("csr", "--alpha", "0.1"), ("heisenberg", "--alpha", "0.1,1"),
                 ("density", "--alpha", "0.1", "--realizations", 2)):
        assert run(*args, "--sites", 7, "--seed", 1, "--out", tmp_path / args[0]) == 3
        assert "resource limit: dense superoperator at 7 sites needs a 16384x16384 matrix" \
            in capsys.readouterr().err


def test_runs_without_a_superoperator_need_no_large_flag(tmp_path, monkeypatch):
    # beta = 0 and unitary-only build neither a superoperator nor the
    # complete basis, so 7 sites run without --allow-large
    def refuse(*args, **kwargs):
        raise AssertionError("built the complete string basis")

    monkeypatch.setattr(cli, "PauliBasis", refuse)
    assert run("sweep-beta", "--sites", 7, "--beta", 0, "--seed", 1,
               "--out", tmp_path / "sweep") == 0
    assert run("csr", "--sites", 7, "--unitary-only", "--seed", 1,
               "--out", tmp_path / "csr") == 0


def test_guardrails_refuse_before_sampling_k(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled K")

    monkeypatch.setattr(cli, "sample_kossakowski", refuse)
    # a superoperator run is refused before its K (1128 channels) is drawn
    assert run("spectrum", "--sites", 16, "--alpha", "0.1", "--seed", 1,
               "--out", tmp_path / "sites") == 3
    # every run digests K, so its channel count is capped up front: 16383 at
    # 7 sites and k_max 7, even where no superoperator is built
    assert run("spectrum", "--sites", 7, "--kmax", 7, "--alpha", "0.1", "--seed", 1,
               "--out", tmp_path / "spectrum") == 3
    assert run("sweep-beta", "--sites", 8, "--kmax", 8, "--beta", 0, "--seed", 1,
               "--out", tmp_path / "sweep") == 3
    assert "16383 jump channels" in capsys.readouterr().err


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericalError("eigensolver did not converge")

    monkeypatch.setattr(cli, "diagonalize", explode)
    assert run("spectrum", "--sites", 2, "--seed", 1, "--alpha", "0.1",
               "--out", tmp_path / "run") == 4
    # raised in a pool thread: spreading couplings, then mapping realizations
    for realizations in (1, 2):
        assert run("spectrum", "--sites", 2, "--seed", 1, "--alpha", "0.1,0.2",
                   "--realizations", realizations, "--workers", 2,
                   "--out", tmp_path / f"pool{realizations}") == 4


def test_non_hermitian_coupling_exits_4(tmp_path, monkeypatch, capsys):
    # a K built without validation reaches the generator writer, which
    # refuses the imaginary residue of a non-Hermitian K
    sample = cli.sample_kossakowski

    def skewed(*args, **kwargs):
        k = sample(*args, **kwargs)
        k.k_matrix[0, 1] += 0.5
        return k

    monkeypatch.setattr(cli, "sample_kossakowski", skewed)
    monkeypatch.setattr(cli, "dissipator_factor", partial(cli.dissipator_factor, validate=False))
    for command, coupling in (("spectrum", "--alpha"), ("sweep-beta", "--beta")):
        assert run(command, "--sites", 2, "--seed", 1, coupling, "0.1",
                   "--out", tmp_path / command) == 4
        assert "imaginary residue" in capsys.readouterr().err


def test_realization_holds_no_dense_matrix():
    # at 5 sites a realization's parts, the sparse L_U and the factor of
    # L_D, take under a quarter of one n x n matrix; a generator call
    # allocates its one solver matrix plus one column block's temporaries
    cfg = cli.ExperimentConfig(sites=5, seed=1, out="unused", alphas=(0.1,))
    rz = cli.Realization(cfg, 0)
    rz.k, rz.basis  # drawn and listed before the count starts
    matrix_bytes = 8 * 4**10
    tracemalloc.start()
    try:
        parts = rz.generators()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        generator = assemble(*parts, unitary=0.1)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < matrix_bytes / 4
    solver_bytes = generator.matrix.base.nbytes
    assert solver_bytes <= after - held < solver_bytes + 2**16
    assert peak - held < solver_bytes + matrix_bytes / 2


def _counting(calls: list, name: str, function):
    def counted(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    return counted


def test_spectra_builds_the_parts_once_and_solves_the_vector_couplings_first(monkeypatch):
    built, mapped = [], []
    for name in ("build_unitary_part", "dissipator_factor", "unitary_eigenvalues"):
        monkeypatch.setattr(cli, name, _counting(built, name, getattr(cli, name)))

    def recording_map(solve, couplings):
        mapped.append(list(couplings))
        return map(solve, couplings)

    cfg = cli.ExperimentConfig(sites=3, seed=1, out="unused", alphas=(0.1, 0.5, 2.0))
    rz = cli.Realization(cfg, 0, recording_map)
    read = []
    spectra = rz.spectra(lambda alpha, spectrum: read.append(alpha) or spectrum, vectors=(2.0,))
    assert mapped == [[2.0, 0.1, 0.5]] and read == [2.0, 0.1, 0.5]
    assert built == ["build_unitary_part", "dissipator_factor"]
    assert {a for a, s in spectra.items() if s.right_modes is not None} == {2.0}
    want = cli.diagonalize(assemble(*rz.generators(), unitary=0.5), vectors=False)
    assert np.array_equal(spectra[0.5].eigenvalues, want.eigenvalues)

    # a beta list: the parts once, beta = 0 from the levels of H, no modes
    built.clear()
    cfg = cli.ExperimentConfig(sites=3, seed=1, out="unused", betas=(0.0, 0.05))
    rz = cli.Realization(cfg, 0, recording_map)
    spectra = rz.spectra(lambda beta, spectrum: spectrum)
    assert mapped[-1] == [0.0, 0.05]
    assert built == ["build_unitary_part", "dissipator_factor", "unitary_eigenvalues"]
    assert all(s.right_modes is None for s in spectra.values())
    assert np.array_equal(spectra[0.0].eigenvalues, cli.unitary_eigenvalues(rz.h))
    want = cli.diagonalize(assemble(*rz.generators(), dissipator=0.05), vectors=False)
    assert np.array_equal(spectra[0.05].eigenvalues, want.eigenvalues)

    # beta = 0 alone builds no part
    built.clear()
    cfg = cli.ExperimentConfig(sites=3, seed=1, out="unused", betas=(0.0,))
    cli.Realization(cfg, 0).spectra(lambda beta, spectrum: spectrum)
    assert built == ["unitary_eigenvalues"]


def _traced(function):
    tracemalloc.start()
    try:
        return function(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_k_digest_streams_its_record():
    # the digest hashes K's JSON record 64 rows at a time: at 375 channels a
    # sixth of the record per piece, a quarter of the peak of forming it whole
    cfg = cli.ExperimentConfig(sites=5, seed=1, out="unused", k_max=3, alphas=(0.1,))
    rz = cli.Realization(cfg, 0)
    record = partial(kossakowski_to_json_dict, rz.k)  # K drawn before the count
    digests, streamed = _traced(rz.digests)
    whole, formed = _traced(lambda: hashlib.sha256(
        json.dumps(record(), sort_keys=True).encode()).hexdigest())
    assert digests["kossakowski_sha256"] == whole
    assert streamed < formed / 2


def test_failed_solve_exit_code(tmp_path, monkeypatch, capsys):
    assemble = cli.assemble

    def poisoned(*args, **kwargs):
        generator = assemble(*args, **kwargs)
        generator.matrix[1, 1] = np.nan
        return generator

    monkeypatch.setattr(cli, "assemble", poisoned)
    for command in ("spectrum", "csr"):
        assert run(command, "--sites", 2, "--seed", 1, "--alpha", "0.1", "--min-ratios", 3,
                   "--out", tmp_path / f"nan-{command}") == 4
        assert "non-finite entries" in capsys.readouterr().err
    monkeypatch.setattr(cli, "assemble", assemble)

    def unconverged(a, vectors):
        n = a.shape[0]
        return np.zeros(n), np.zeros(n), np.zeros((n, n)) if vectors else None, 3

    monkeypatch.setattr(openblas, "dgeev", unconverged)
    for command in ("spectrum", "csr"):
        assert run(command, "--sites", 2, "--seed", 1, "--alpha", "0.1", "--min-ratios", 3,
                   "--out", tmp_path / f"info-{command}") == 4
        assert "info 3" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "klindblad.cli", "spectrum", "--sites", "2",
         "--seed", "1", "--alpha", "0.1", "--out", str(tmp_path / "run")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert (tmp_path / "run" / "manifest.json").exists()


def test_runs_import_no_scipy_sparse_stats_or_linalg(tmp_path):
    # a fresh interpreter, since this suite's own imports load scipy; a run
    # loads no scipy module at all, not even for the manifest's version
    runs = [
        ["csr", "--alpha", "0.5", "--realizations", "2"],
        ["csr", "--unitary-only", "--min-ratios", "3"],
        ["spectrum", "--alpha", "0.1,0.5"],
        ["sweep-beta", "--beta", "0"],
        ["sweep-beta", "--beta", "0,0.05"],
        ["density", "--alpha", "0.1", "--realizations", "2"],
        ["heisenberg", "--alpha", "0.5,1"],
    ]
    script = (
        "import json, sys\n"
        "from klindblad.cli import main\n"
        "for i, args in enumerate(json.loads(sys.argv[1])):\n"
        "    code = main([*args, '--sites', '3', '--seed', '1', '--out', f'{sys.argv[2]}/{i}'])\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    print(json.dumps([args, code, loaded]))\n"
    )
    result = subprocess.run([sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert [json.loads(line) for line in result.stdout.splitlines()] == [
        [args, 0, []] for args in runs
    ]
