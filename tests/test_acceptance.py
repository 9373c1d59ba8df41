"""Acceptance gate: twelve end-to-end contract checks with pinned tolerances.

Each numbered group below is one deliverable-level claim about the package,
exercised at desk scale (5 sites and under) unless marked ``nightly`` (full
6-site eigensolves) or ``slow`` (hundred-realization sweeps).  Known-bad
clauses are asserted exactly as intended and carry strict xfail markers whose
reasons quote the measured values, so a behavior change in either direction
turns the suite red.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import ks_2samp, kstest

import oracle
from klindblad.cli import _one_blas_thread as one_blas_thread
from klindblad.cli import main as cli_main
from klindblad.ensemble import (
    STREAM_HAMILTONIAN,
    STREAM_KOSSAKOWSKI,
    heisenberg_hamiltonian,
    sample_kossakowski,
    sample_random_hamiltonian,
    substream,
)
from klindblad.liouvillian import (
    assemble,
    assemble_weak,
    build_dissipator,
    build_unitary_part,
    jump_operator_set,
    lambda0,
    unitary_pauli_matrix,
)
from klindblad.pauli import PHASES, PauliBasis, anticommutes, product_exponent, to_dense
from klindblad.perturbation import predict
from klindblad.spectral import (
    cluster_by_centers,
    commutant_basis,
    complex_spacing_ratios,
    cptp_checks,
    csr_reference_ginibre,
    density_total_variation,
    diagonalize,
    evolve_expectation,
    spectral_density,
    unitary_eigenvalues,
)

nightly = pytest.mark.nightly
slow = pytest.mark.slow


def predicted_centers(num_sites, alpha):
    pred = predict(num_sites)
    centers = []
    for k in range(num_sites + 1):
        shift = pred.lambda2_means[k]
        if shift is None:
            centers.append((k, float(pred.lambda0_values[k])))
        else:
            centers.append((k, pred.center(k, alpha)))
    return centers


def group_population(label, num_sites):
    return sum(math.comb(num_sites, int(k)) * 3 ** int(k) for k in label.split(","))


def linear_fit(xs, ys):
    design = np.vstack([xs, np.ones(len(xs))]).T
    coef, residual, *_ = np.linalg.lstsq(design, ys, rcond=None)
    total = float(((ys - ys.mean()) ** 2).sum())
    r_squared = 1.0 - float(residual[0]) / total if residual.size else 1.0
    return float(coef[0]), float(coef[1]), r_squared


# --- 1: string algebra against dense matrices --------------------------------


def test_a01_string_algebra_matches_dense_exhaustively():
    # the rule the builders run: broadcast over the uint64 bit arrays of the
    # complete basis, where the uint8 bit counts wrap below zero
    start = time.monotonic()
    for num_sites in (2, 3):
        basis = PauliBasis(num_sites)
        x, z = basis.x_array, basis.z_array
        exponent = product_exponent(x[:, None], z[:, None], x, z)
        anti = anticommutes(x[:, None], z[:, None], x, z)
        image = basis.lookup(x[:, None] ^ x, z[:, None] ^ z)
        dense = [to_dense(s) for s in basis]
        dim = 2**num_sites
        for i in range(len(basis)):
            for j in range(len(basis)):
                prod = PHASES[exponent[i, j]] * dense[image[i, j]]
                assert np.array_equal(dense[i] @ dense[j], prod)
                assert np.trace(dense[i].conj().T @ dense[j]) == (dim if i == j else 0)
                lhs = dense[i] @ dense[j] - dense[j] @ dense[i]
                assert np.array_equal(lhs, 2 * anti[i, j] * prod)
    assert time.monotonic() - start < 10.0


# --- 2: mean-coupling dissipator is diagonal with exact centers --------------


@pytest.mark.parametrize("num_sites", [2, 3, 4, 5])
def test_a02_mean_coupling_dissipator_diagonal(num_sites):
    basis = PauliBasis(num_sites)
    jumps = jump_operator_set(num_sites, 2)
    n_jumps = 3 * num_sites + 9 * num_sites * (num_sites - 1) // 2
    k_mean = np.eye(n_jumps) * (2.0**num_sites / n_jumps)
    mat = build_dissipator(k_mean, jumps, basis).matrix
    assert np.abs(mat - np.diag(np.diag(mat))).max() < 1e-10
    targets = np.array([lambda0(s.weight, num_sites) for s in basis])
    assert np.abs(np.diag(mat) - targets).max() < 1e-10


# --- 3: the commutator supermatrix couples only adjacent weights -------------


@pytest.mark.parametrize("num_sites", [3, 4, 5])
def test_a03_adjacent_weight_coupling_counts(num_sites):
    basis = PauliBasis(num_sites)
    pred = predict(num_sites)
    sectors = [basis.sector(k) for k in range(num_sites + 1)]
    for r in range(50):
        h = sample_random_hamiltonian(
            num_sites, rng=substream(424, r, STREAM_HAMILTONIAN)
        )
        mat = unitary_pauli_matrix(h, basis).tocsr()
        for k_row in range(num_sites + 1):
            rows = mat[sectors[k_row]]
            for k_col in range(num_sites + 1):
                block = rows[:, sectors[k_col]]
                if abs(k_row - k_col) != 1:
                    assert block.nnz == 0
                elif k_col == k_row + 1:
                    assert np.all(block.getnnz(axis=1) == pred.h_up[k_row])
                else:
                    assert np.all(block.getnnz(axis=1) == pred.h_down[k_row])


# --- 4: spectral invariants of valid generators ------------------------------


def test_a04_cptp_spectral_invariants():
    num_sites, seed = 4, 606
    basis = PauliBasis(num_sites)
    jumps = jump_operator_set(num_sites, 2)
    for r in range(100):
        k = sample_kossakowski(num_sites, 2, rng=substream(seed, r, STREAM_KOSSAKOWSKI))
        h = sample_random_hamiltonian(num_sites, rng=substream(seed, r, STREAM_HAMILTONIAN))
        l_u, l_d = build_unitary_part(h, basis), build_dissipator(k, jumps, basis)
        for alpha in (0.0, 0.15, 1.5):
            spectrum = diagonalize(assemble(alpha, l_u, l_d))
            report = cptp_checks(spectrum)
            assert report.max_re < 1e-8
            assert report.zero_mode_present
            assert report.conjugation_residual < 1e-8
            assert report.steady_identity_overlap > 1 - 1e-8
            assert spectrum.diagonalizable


# --- 5: cluster recovery at zero coupling ------------------------------------


@pytest.fixture(scope="module")
def zero_coupling_report_5():
    basis = PauliBasis(5)
    k = sample_kossakowski(5, 2, seed=77)
    eigs = np.linalg.eigvals(build_dissipator(k, jump_operator_set(5, 2), basis).matrix)
    return cluster_by_centers(eigs, predicted_centers(5, 0.0))


@pytest.fixture(scope="module")
def l6_sweep():
    """Six-site coupling sweep shared by the nightly cluster checks."""
    basis = PauliBasis(6)
    k = sample_kossakowski(6, 2, seed=21)
    h = sample_random_hamiltonian(6, seed=32)
    l_u = build_unitary_part(h, basis)
    l_d = build_dissipator(k, jump_operator_set(6, 2), basis)
    out = {}
    for alpha in (0.0, 0.02, 0.04, 0.06, 0.08, 0.10):
        eigs = np.linalg.eigvals(assemble(alpha, l_u, l_d).matrix)
        out[alpha] = (eigs, cluster_by_centers(eigs, predicted_centers(6, alpha)))
    return out


def _population_check(report, num_sites):
    assert report.steady_indices.size == 1
    for cluster in report.clusters:
        if cluster.label == "0":
            continue  # the lone weight-0 mode is reported as the steady state
        assert cluster.population == group_population(cluster.label, num_sites)


def _mean_check(report, num_sites):
    for k in (1, 2):
        cluster = next(c for c in report.clusters if c.label == str(k))
        target = lambda0(k, num_sites)
        assert abs(cluster.center.real - target) / abs(target) < 0.05


@pytest.mark.xfail(
    strict=True,
    reason="nearest-center assignment strays at 5 sites: the weight-2 cluster"
    " collects 101 of its 90 eigenvalues and the higher clusters trade"
    " members (267/380/260 against 270/405/243)",
)
def test_a05_cluster_populations_5(zero_coupling_report_5):
    _population_check(zero_coupling_report_5, 5)


@nightly
@pytest.mark.xfail(
    strict=True,
    reason="the two merged six-site bands exchange 118 members under"
    " nearest-center assignment (1387/2555 against 1269/2673)",
)
def test_a05_cluster_populations_6(l6_sweep):
    _population_check(l6_sweep[0.0][1], 6)


def test_a05_cluster_means_5(zero_coupling_report_5):
    _mean_check(zero_coupling_report_5, 5)


@nightly
def test_a05_cluster_means_6(l6_sweep):
    _mean_check(l6_sweep[0.0][1], 6)


# --- 6: quadratic center drift of the weight-1 cluster -----------------------


ALPHA_GRID = (0.02, 0.04, 0.06, 0.08, 0.10)


def quadratic_coefficient(alphas, shifts):
    alphas = np.asarray(alphas)
    return float(np.sum(shifts * alphas**2) / np.sum(alphas**4))


def test_a06_center_drift_without_coupling_fluctuations():
    num_sites = 5
    basis = PauliBasis(num_sites)
    jumps = jump_operator_set(num_sites, 2)
    n_jumps = 3 * num_sites + 9 * num_sites * (num_sites - 1) // 2
    k_mean = np.eye(n_jumps) * (2.0**num_sites / n_jumps)
    l_d = build_dissipator(k_mean, jumps, basis)
    h = sample_random_hamiltonian(
        num_sites, rng=substream(21, 0, STREAM_HAMILTONIAN), exact_norm=True
    )
    l_u = build_unitary_part(h, basis)
    shifts = []
    for alpha in ALPHA_GRID:
        eigs = np.linalg.eigvals(assemble(alpha, l_u, l_d).matrix)
        report = cluster_by_centers(eigs, predicted_centers(num_sites, alpha))
        cluster = next(c for c in report.clusters if c.label == "1")
        shifts.append(cluster.center.real - lambda0(1, num_sites))
    coeff = quadratic_coefficient(ALPHA_GRID, np.array(shifts))
    target = predict(num_sites).lambda2_means[1]
    assert abs(coeff - target) / abs(target) < 0.05


@nightly
def test_a06_center_drift_full_dissipator_6(l6_sweep):
    shifts = []
    for alpha in ALPHA_GRID:
        report = l6_sweep[alpha][1]
        cluster = next(c for c in report.clusters if c.label == "1")
        shifts.append(cluster.center.real - lambda0(1, 6))
    coeff = quadratic_coefficient(ALPHA_GRID, np.array(shifts))
    target = predict(6).lambda2_means[1]
    assert abs(coeff - target) / abs(target) < 0.25


# --- 7: linear imaginary spread of the merged bands --------------------------


def _spread_series(sweep, alphas, label):
    values = []
    for alpha in alphas:
        report = sweep[alpha][1]
        cluster = next(c for c in report.clusters if c.label == label)
        values.append(cluster.std_im)
    return np.array(values)


@nightly
def test_a07_imaginary_spread_grows_only_in_merged_bands(l6_sweep):
    alphas = sorted(l6_sweep)
    band = []
    for alpha in alphas:
        eigs, rep = l6_sweep[alpha]
        members = np.concatenate(
            [c.member_indices for c in rep.clusters
             if set(c.label.split(",")) <= {"3", "4", "5", "6"} and c.population]
        )
        band.append(float(eigs.imag[members].std()))
    slope, _, r_squared = linear_fit(alphas, np.array(band))
    assert slope > 0
    assert r_squared > 0.9
    values = _spread_series(l6_sweep, alphas, "1")
    k_slope, _, _ = linear_fit(alphas, values)
    # drift over the whole sweep stays below the zero-coupling spread
    assert abs(k_slope) * alphas[-1] < values[0]


@nightly
@pytest.mark.xfail(
    strict=True,
    reason="the weight-2 spread is flat through alpha = 0.06, but past that the "
    "fanning band edge sheds modes into the weight-2 window (cluster spread "
    "0.0047 -> 0.0288, drift ratio 4.9; both seed families agree)",
)
def test_a07_weight2_spread_stays_flat(l6_sweep):
    alphas = sorted(l6_sweep)
    values = _spread_series(l6_sweep, alphas, "2")
    k_slope, _, _ = linear_fit(alphas, values)
    assert abs(k_slope) * alphas[-1] < values[0]


# --- 8: weak-dissipation identities ------------------------------------------


def test_a08_unitary_spread_and_weak_dissipation_trace():
    for num_sites in (4, 5):
        h = heisenberg_hamiltonian(num_sites)
        basis = PauliBasis(num_sites)
        eigs = np.linalg.eigvals(build_unitary_part(h, basis).matrix)
        assert abs(eigs.imag.std() - math.sqrt(2.0)) < 1e-10
    num_sites, seed = 4, 19
    basis = PauliBasis(num_sites)
    k = sample_kossakowski(num_sites, 2, rng=substream(seed, 0, STREAM_KOSSAKOWSKI))
    h = sample_random_hamiltonian(num_sites, rng=substream(seed, 0, STREAM_HAMILTONIAN))
    l_u = build_unitary_part(h, basis)
    l_d = build_dissipator(k, jump_operator_set(num_sites, 2), basis)
    for beta in (0.01, 0.03, 0.05):
        eigs = np.linalg.eigvals(assemble_weak(beta, l_u, l_d).matrix)
        assert abs(eigs.real.mean() + beta) < 0.02 * beta


# --- 9: spacing-ratio statistics ---------------------------------------------


CSR_ALPHAS = (0.05, 0.15, 0.5, 1.5)


@pytest.fixture(scope="module")
def csr_pools():
    """Pooled spacing ratios over 100 realizations at 5 sites, solved on two
    threads with numpy's BLAS pinned to one thread and merged in realization
    order."""
    num_sites, seed = 5, 77
    basis = PauliBasis(num_sites)
    jumps = jump_operator_set(num_sites, 2)

    def ratios_of(r):
        k = sample_kossakowski(num_sites, 2, rng=substream(seed, r, STREAM_KOSSAKOWSKI))
        h = sample_random_hamiltonian(num_sites, rng=substream(seed, r, STREAM_HAMILTONIAN))
        l_u, l_d = build_unitary_part(h, basis), build_dissipator(k, jumps, basis)
        # differences of the distinct levels: at 5 sites every level of H
        # is a Kramers pair
        ratios = {"unitary": complex_spacing_ratios(unitary_eigenvalues(h, distinct=True)).ratios}
        for alpha in CSR_ALPHAS:
            eigs = np.linalg.eigvals(assemble(alpha, l_u, l_d).matrix)
            ratios[alpha] = complex_spacing_ratios(eigs).ratios
        return ratios

    with one_blas_thread(), ThreadPoolExecutor(max_workers=2) as pool:
        per_realization = list(pool.map(ratios_of, range(100)))
    return {key: np.concatenate([ratios[key] for ratios in per_realization])
            for key in per_realization[0]}


@pytest.fixture(scope="module")
def ginibre_oracle():
    return csr_reference_ginibre(128, 200, np.random.default_rng(902)).ratios


@slow
@pytest.mark.parametrize(
    "alpha",
    [
        0.05,
        0.15,
        0.5,
        pytest.param(
            1.5,
            marks=pytest.mark.xfail(
                strict=True,
                reason="pooled distance 0.14 at 5 sites: the spectrum's local"
                " density varies on only a few mean spacings, and rescaling"
                " the imaginary axis does not repair it (0.147)",
            ),
        ),
    ],
)
def test_a09_pooled_ratios_match_ginibre(csr_pools, ginibre_oracle, alpha):
    distance = ks_2samp(csr_pools[alpha], ginibre_oracle).statistic
    assert distance < 0.05


@slow
def test_a09_unitary_ratios_flat(csr_pools):
    ratios = csr_pools["unitary"]
    assert abs(ratios.mean() - 0.5) < 0.02
    assert kstest(ratios, "uniform").statistic < 0.05


# --- 10: structured Hamiltonian with random dissipation ----------------------


@pytest.mark.parametrize(
    "num_sites",
    [
        pytest.param(
            4,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the 4-site ring carries an extra weight-2 invariant:"
                " measured dimension 8, not 7",
            ),
        ),
        5,
        6,
    ],
)
def test_a10_conserved_space_dimensions(num_sites):
    h = heisenberg_hamiltonian(num_sites)
    assert commutant_basis(h, 1).shape[1] == 3
    assert commutant_basis(h, 2).shape[1] == 7


@pytest.fixture(scope="module")
def heisenberg_run_6(tmp_path_factory):
    out = tmp_path_factory.mktemp("heis6")
    rc = cli_main(
        ["heisenberg", "--sites", "6", "--seed", "21", "--alpha", "16,32",
         "--workers", "2", "--out", str(out)]
    )
    assert rc == 0
    return json.loads((out / "persistence_r000.json").read_text())


@nightly
def test_a10_tracker_counts_at_strong_coupling(heisenberg_run_6):
    by_label = {g["label"]: g for g in heisenberg_run_6["groups"]}
    assert by_label["1"]["counts"] == [3, 3]
    assert by_label["2"]["counts"] == [7, 7]
    assert len(by_label["1"]["modes"]) + len(by_label["2"]["modes"]) == 10


@nightly
@pytest.mark.xfail(
    strict=True,
    reason="persistent modes spread across the full conserved space instead"
    " of aligning with the Hamiltonian: best measured overlap 0.38",
)
def test_a10_tracker_hamiltonian_overlap(heisenberg_run_6):
    best = 0.0
    for group in heisenberg_run_6["groups"]:
        for mode in group["modes"]:
            ref = mode["best_reference"]
            if ref is not None and ref["name"] == "H":
                best = max(best, ref["overlap"])
    assert best > 0.99


# --- 11: eigenmode evolution against the matrix exponential ------------------


def test_a11_evolution_matches_matrix_exponential():
    num_sites = 3
    k = sample_kossakowski(num_sites, 2, seed=21)
    h = sample_random_hamiltonian(num_sites, seed=32)
    # the column-stacked computational form, so rho and the observable
    # vectorize directly
    sup = assemble(
        0.7,
        oracle.build_unitary_part(h),
        oracle.build_dissipator(k, jump_operator_set(num_sites, 2)),
    )
    spectrum = diagonalize(sup)
    dim = 2**num_sites
    rng = np.random.default_rng(5)
    times = (0.1, 1.0, 10.0)
    propagators = {t: expm(sup.matrix * t) for t in times}
    for _ in range(10):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        obs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        obs = 0.5 * (obs + obs.conj().T)
        rho_vec = rho.reshape(-1, order="F")
        obs_vec = obs.reshape(-1, order="F")
        got = evolve_expectation(spectrum, rho_vec, obs_vec, times)
        for t, value in zip(times, got):
            propagated = (propagators[t] @ rho_vec).reshape((dim, dim), order="F")
            assert abs(value - np.trace(obs @ propagated)) < 1e-6


# --- 12: self-averaging of the spectral density ------------------------------


@pytest.fixture(scope="module")
def density_pools():
    num_sites, seed = 4, 77
    basis = PauliBasis(num_sites)
    jumps = jump_operator_set(num_sites, 2)
    alphas = (0.0, 0.15, 1.5)
    pools = {alpha: [] for alpha in alphas}
    for r in range(100):
        k = sample_kossakowski(num_sites, 2, rng=substream(seed, r, STREAM_KOSSAKOWSKI))
        h = sample_random_hamiltonian(num_sites, rng=substream(seed, r, STREAM_HAMILTONIAN))
        l_u, l_d = build_unitary_part(h, basis), build_dissipator(k, jumps, basis)
        for alpha in alphas:
            pools[alpha].append(np.linalg.eigvals(assemble(alpha, l_u, l_d).matrix))
    return pools


@pytest.mark.parametrize("alpha", [0.0, 0.15, 1.5])
def test_a12_single_realization_tracks_pooled_density(density_pools, alpha):
    single = density_pools[alpha][0]
    pooled = np.concatenate(density_pools[alpha])
    re_range = (float(pooled.real.min()), float(pooled.real.max()))
    im_lo, im_hi = float(pooled.imag.min()), float(pooled.imag.max())
    if im_hi - im_lo < 1e-12:
        im_lo, im_hi = im_lo - 0.5, im_hi + 0.5
    bins = dict(re_bins=5, im_bins=5, re_range=re_range, im_range=(im_lo, im_hi))
    distance = density_total_variation(
        spectral_density(single, **bins), spectral_density(pooled, **bins)
    )
    assert distance < 0.1
