"""Tests for spectral decomposition, statistics, and mode analysis."""

import numpy as np
import pytest
from scipy.linalg import expm

from klindblad.ensemble import (
    HamiltonianSpec,
    heisenberg_hamiltonian,
    sample_kossakowski,
    sample_random_hamiltonian,
)
from klindblad.errors import EigensolverError, SpectralAnalysisError
from klindblad.liouvillian import (
    Superoperator,
    assemble,
    build_dissipator,
    build_unitary_part,
    jump_operator_set,
    lambda0,
)
from klindblad.pauli import PauliBasis, PauliString, to_dense
from klindblad.spectral import (
    LEVEL_MERGE_TOL,
    cluster_by_centers,
    commutant_basis,
    complex_spacing_ratios,
    conjugation_residual,
    cptp_checks,
    csr_reference_ginibre,
    csr_reference_poisson,
    density_total_variation,
    diagonalize,
    evolve_expectation,
    mode_weight_profile,
    operator_overlap,
    persistent_modes,
    random_weight_operator,
    spectral_density,
    unitary_eigenvalues,
)

from conftest import pairing_distance
import oracle


def full_liouvillian(num_sites, alpha, k_seed=21, h_seed=32, basis_form="pauli"):
    """Assembled alpha * L_U + L_D in the requested basis; the
    computational one comes from the Kronecker oracle."""
    k = sample_kossakowski(num_sites, 2, seed=k_seed)
    h = sample_random_hamiltonian(num_sites, seed=h_seed)
    jumps = jump_operator_set(num_sites, 2)
    if basis_form == "computational":
        return assemble(alpha, oracle.build_unitary_part(h), oracle.build_dissipator(k, jumps))
    basis = PauliBasis(num_sites)
    return assemble(alpha, build_unitary_part(h, basis), build_dissipator(k, jumps, basis))


# --- eigendecomposition -----------------------------------------------------


def test_diagonalize_invariants():
    s = full_liouvillian(3, 0.5)
    spec = diagonalize(s)
    assert spec.dim == 64
    m = s.matrix
    residual = np.abs(m @ spec.right_modes - spec.right_modes * spec.eigenvalues).max()
    assert residual < 1e-8
    # the probe residual of one unit vector is bounded by sqrt(n) times the full one
    assert spec.diag_residual < 1e-8
    assert spec.diag_residual <= residual * np.sqrt(64)
    # the left system is built on first access
    assert spec.diagonalizable
    assert np.abs(spec.left_modes @ spec.right_modes - np.eye(64)).max() < 1e-8
    assert spec.biorth_residual < 1e-8


def test_left_modes_are_computed_on_first_access(monkeypatch):
    inversions = []
    inv = np.linalg.inv

    def counting_inv(a):
        inversions.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    spec = diagonalize(full_liouvillian(3, 0.5))
    assert inversions == []
    report = cptp_checks(spec)
    assert report.steady_identity_overlap > 1 - 1e-8
    assert report.all_ok
    assert spec.left_modes is spec.left_modes
    assert spec.diagonalizable
    assert inversions == [(64, 64)]


def test_eigenvalue_ordering_is_canonical():
    spec = diagonalize(full_liouvillian(3, 0.3))
    eigs = spec.eigenvalues
    re = eigs.real
    assert np.all(re[:-1] >= re[1:] - 1e-15)
    # within a real-part tie, imaginary parts ascend
    for i in range(eigs.size - 1):
        if re[i] == re[i + 1]:
            assert eigs.imag[i] <= eigs.imag[i + 1]


def test_eigenvalues_only_matches_full_solve():
    s = full_liouvillian(3, 0.8)
    a = diagonalize(s, vectors=False).eigenvalues
    b = diagonalize(s).eigenvalues
    assert pairing_distance(a, b) < 1e-10


# --- closed-form unitary spectrum -------------------------------------------


def unitary_cases():
    for num_sites in (2, 3, 4, 5):
        yield sample_random_hamiltonian(num_sites, seed=40 + num_sites)
        if num_sites >= 3:
            yield heisenberg_hamiltonian(num_sites)


@pytest.mark.parametrize("h", list(unitary_cases()), ids=lambda h: f"{h.kind}{h.num_sites}")
def test_unitary_eigenvalues_match_dense_oracle(h):
    eigs = unitary_eigenvalues(h)
    dense = np.linalg.eigvals(build_unitary_part(h, PauliBasis(h.num_sites)).matrix)
    assert eigs.size == 4**h.num_sites
    # both sorted by Im: the closed form has Re = 0, the dense solve ~1e-15
    assert np.abs(eigs - dense[np.argsort(dense.imag, kind="stable")]).max() <= 1e-13
    assert np.all(eigs.real == 0.0) and not np.signbit(eigs.real).any()
    assert np.count_nonzero(eigs == 0) >= 2**h.num_sites
    assert np.all(np.diff(eigs.imag) >= 0)


@pytest.mark.parametrize("num_sites", [3, 4, 5])
def test_distinct_unitary_eigenvalues_merge_kramers_pairs(num_sites):
    # the levels pair up to < 1e-12 at odd size and never repeat at even
    # size (test_weight2_spectra_pair_at_odd_site_count)
    for seed in (1, 2, 3):
        h = sample_random_hamiltonian(num_sites, seed=seed)
        full = unitary_eigenvalues(h)
        distinct = unitary_eigenvalues(h, distinct=True)
        if num_sites % 2:
            assert distinct.size == 4 ** (num_sites - 1)
            nearest = np.abs(full[:, None] - distinct[None, :]).min(axis=1)
            assert nearest.max() < 1e-12
            assert np.diff(np.unique(distinct.imag)).min() > LEVEL_MERGE_TOL
        else:
            assert np.array_equal(distinct, full)


def test_unitary_eigenvalues_reject_non_finite_levels(monkeypatch):
    h = sample_random_hamiltonian(3, seed=1)
    bad = HamiltonianSpec(3, h.kind, {s: np.nan for s in h.coefficients})
    with pytest.raises(EigensolverError):
        unitary_eigenvalues(bad)  # LAPACK reports no convergence
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(a.shape[0], np.inf))
    with pytest.raises(EigensolverError):
        unitary_eigenvalues(h)


# --- structural spectrum checks ---------------------------------------------


def test_cptp_checks_on_full_liouvillian():
    spec = diagonalize(full_liouvillian(3, 0.7))
    report = cptp_checks(spec)
    assert report.all_ok, report
    assert report.max_re < 1e-8
    assert report.zero_mode_present
    assert report.conjugation_residual < 1e-8
    assert report.steady_identity_overlap > 1.0 - 1e-8


def test_identity_is_the_trace_functional():
    """The steady left mode is vec(1) in either basis convention."""
    s = full_liouvillian(2, 0.4, basis_form="computational")
    ident = oracle.vec_identity(2)
    assert np.abs(ident @ s.matrix).max() < 1e-12


def test_conjugation_residual_values():
    assert conjugation_residual(np.array([1 + 2j, 1 - 2j, 3.0 + 0j])) == 0.0
    got = conjugation_residual(np.array([1 + 2j, 3.0 + 0j]))
    assert got == pytest.approx(np.sqrt(8.0), rel=1e-12)
    many = np.arange(2000) * (0.01 + 0.03j)  # chunked path, conjugates absent
    assert conjugation_residual(many, chunk=256) > 0.0


# --- complex spacing ratios -------------------------------------------------


def test_csr_equally_spaced_triple():
    hist = complex_spacing_ratios(np.array([0.0, 1.0, 2.0]) + 1j)
    assert sorted(hist.ratios) == pytest.approx([0.5, 0.5, 1.0])


def test_csr_values_bounded_and_affine_invariant():
    rng = np.random.default_rng(5)
    eigs = rng.standard_normal(200) + 1j * rng.uniform(0.1, 2.0, 200)
    base = complex_spacing_ratios(eigs)
    assert base.ratios.size == 200
    assert np.all(base.ratios >= 0.0) and np.all(base.ratios <= 1.0)
    # a real scale and a shift with positive Im keep every point kept
    moved = complex_spacing_ratios(2.5 * eigs + (3.0 + 4.0j))
    assert moved.ratios.size == 200
    assert np.abs(np.sort(base.ratios) - np.sort(moved.ratios)).max() < 1e-12


def test_csr_half_plane_filter():
    eigs = np.array([1j, 2j, 3j, -1j, -2j, -3j, 0.5 + 1j])
    hist = complex_spacing_ratios(eigs)
    assert hist.ratios.size == 4
    # Im at or below 1e-10 counts as real and is dropped with the lower half
    noisy = np.concatenate([eigs, [2.0 + 1e-12j, 3.0 + 1e-10j, 4.0]])
    assert np.array_equal(complex_spacing_ratios(noisy).ratios, hist.ratios)
    with pytest.raises(SpectralAnalysisError):
        complex_spacing_ratios(np.array([1j, 2j]))
    with pytest.raises(SpectralAnalysisError):
        complex_spacing_ratios(eigs, min_count=10)


def test_csr_histogram_density_normalization():
    rng = np.random.default_rng(11)
    eigs = rng.standard_normal(500) + 1j * rng.uniform(0.1, 2.0, 500)
    hist = complex_spacing_ratios(eigs, bins=25)
    widths = np.diff(hist.bin_edges)
    assert float((hist.density * widths).sum()) == pytest.approx(1.0)
    assert int(hist.counts.sum()) == hist.ratios.size


def test_ginibre_reference_repulsion_and_stability():
    rng = np.random.default_rng(7)
    small = csr_reference_ginibre(64, 60, rng)
    large = csr_reference_ginibre(128, 40, rng)
    # level repulsion empties the first bin
    assert small.density[0] < 0.05
    assert large.density[0] < 0.05
    assert abs(small.mean_ratio - large.mean_ratio) < 0.02 * large.mean_ratio
    with pytest.raises(ValueError):
        csr_reference_ginibre(4, 10, rng)


def test_poisson_references_disk_and_line():
    rng = np.random.default_rng(9)
    disk = csr_reference_poisson(200, 120, rng)
    assert disk.mean_ratio == pytest.approx(2.0 / 3.0, abs=0.01)
    line = csr_reference_poisson(200, 120, rng, geometry="line")
    assert line.mean_ratio == pytest.approx(0.5, abs=0.01)
    # flat ratio law on the line: every fifth of [0,1] holds ~20%
    counts, _ = np.histogram(line.ratios, bins=5, range=(0.0, 1.0))
    fractions = counts / line.ratios.size
    assert np.abs(fractions - 0.2).max() < 0.02
    with pytest.raises(ValueError):
        csr_reference_poisson(200, 10, rng, geometry="square")
    with pytest.raises(ValueError):
        csr_reference_poisson(2, 10, rng)


# --- clustering -------------------------------------------------------------


def test_cluster_assignment_synthetic():
    eigs = np.array([0.0, -0.49, -0.51 + 0.1j, -1.02, -0.98, -1.0, 1e-12 + 0j])
    centers = [(1, -0.5), (2, -1.0)]
    report = cluster_by_centers(eigs, centers)
    assert report.steady_indices.size == 2  # both near-zero entries
    assert report.by_label("1").population == 2
    assert report.by_label("2").population == 3
    assert report.by_label("2").center == pytest.approx((-1.02 - 0.98 - 1.0) / 3)
    assert report.separation_score is not None
    with pytest.raises(KeyError):
        report.by_label("7")


def test_cluster_merges_identical_centers():
    eigs = np.array([-1.0, -1.01, -0.2])
    report = cluster_by_centers(eigs, [(3, -1.0), (6, -1.0), (1, -0.2)])
    labels = [c.label for c in report.clusters]
    assert "3,6" in labels
    assert report.by_label("3,6").population == 2


def test_single_occupied_cluster_has_no_separation_score():
    report = cluster_by_centers(np.array([-1.0, -1.1]), [(2, -1.0)])
    assert report.separation_score is None


def test_dissipative_cluster_populations_at_zero_coupling():
    """Without the coupling the weight-1 cluster count is exact.

    Higher clusters sit closer together than the off-diagonal smearing,
    so only the outermost cluster keeps a sharp boundary; its population
    must equal the number of weight-1 strings.
    """
    for num_sites, expected in ((4, 12), (5, 15)):
        basis = PauliBasis(num_sites)
        k = sample_kossakowski(num_sites, 2, seed=21)
        l_d = build_dissipator(k, jump_operator_set(num_sites, 2), basis)
        eigs = diagonalize(l_d, vectors=False).eigenvalues
        centers = [(w, lambda0(w, num_sites)) for w in range(num_sites + 1)]
        report = cluster_by_centers(eigs, centers)
        assert report.by_label("1").population == expected
        assert report.steady_indices.size == 1
        total = sum(c.population for c in report.clusters)
        assert total == 4**num_sites - 1


# --- mode operator content --------------------------------------------------


def test_mode_weight_profile_basics():
    basis = PauliBasis(3)
    vec = np.zeros(64, dtype=complex)
    vec[basis.index_of(PauliString.from_label("XII"))] = 0.6
    vec[basis.index_of(PauliString.from_label("XYI"))] = 0.8j
    profile = mode_weight_profile(vec, basis)
    assert profile.sum() == pytest.approx(1.0)
    assert profile[1] == pytest.approx(0.36)
    assert profile[2] == pytest.approx(0.64)
    rotated = mode_weight_profile(np.exp(0.7j) * vec, basis)
    assert np.abs(profile - rotated).max() < 1e-14
    with pytest.raises(SpectralAnalysisError):
        mode_weight_profile(np.zeros(64), basis)


def test_diagonal_dissipator_modes_are_weight_pure():
    num_sites = 3
    basis = PauliBasis(num_sites)
    k = sample_kossakowski(num_sites, 2, seed=4)
    flat = np.eye(k.jump_dimension) * k.mean_diagonal_target
    l_d = build_dissipator(flat, jump_operator_set(num_sites, 2), basis)
    spec = diagonalize(l_d)
    for idx in range(spec.dim):
        profile = mode_weight_profile(spec.right_modes[:, idx], basis)
        assert profile.max() > 1.0 - 1e-10


def test_random_weight_operator_support():
    basis = PauliBasis(4, max_weight=3)
    op = random_weight_operator(basis, 2, np.random.default_rng(3))
    assert np.linalg.norm(op) == pytest.approx(1.0)
    sector = basis.sector(2)
    outside = np.delete(op, np.arange(sector.start, sector.stop))
    assert np.abs(outside).max() == 0.0


def test_operator_overlap_properties():
    basis = PauliBasis(3)
    rng = np.random.default_rng(8)
    op1 = random_weight_operator(basis, 1, rng)
    op2 = random_weight_operator(basis, 2, rng)
    assert operator_overlap(op1.astype(complex), op1, basis) == pytest.approx(1.0)
    assert operator_overlap(op1.astype(complex), op2, basis) == pytest.approx(0.0, abs=1e-14)
    # mixing in an orthogonal component dilutes the overlap monotonically
    overlaps = [
        operator_overlap(op1 + eps * op2, op1, basis) for eps in (0.0, 0.3, 0.6, 1.0)
    ]
    assert all(a > b for a, b in zip(overlaps, overlaps[1:]))
    with pytest.raises(SpectralAnalysisError):
        operator_overlap(np.zeros(64), op1, basis)
    with pytest.raises(SpectralAnalysisError):
        operator_overlap(op1.astype(complex), np.zeros(64), basis)


# --- commutant --------------------------------------------------------------


def dense_operator(coeffs, basis):
    op = np.zeros((2**basis.num_sites, 2**basis.num_sites), dtype=complex)
    for i, s in enumerate(basis):
        if coeffs[i] != 0.0:
            op += coeffs[i] * to_dense(s)
    return op


def heisenberg_commutant_case(num_sites, weight, expected_dim):
    h = heisenberg_hamiltonian(num_sites)
    cols = commutant_basis(h, weight)
    assert cols.shape[1] == expected_dim, (num_sites, weight, cols.shape)
    gram = cols.conj().T @ cols
    assert np.abs(gram - np.eye(expected_dim)).max() < 1e-10
    sector_basis = PauliBasis(num_sites, max_weight=weight, min_weight=weight)
    h_dense = sum(j * to_dense(s) for s, j in h.terms())
    for col in cols.T:
        op = dense_operator(col, sector_basis)
        comm = h_dense @ op - op @ h_dense
        assert np.abs(comm).max() < 1e-8


def test_heisenberg_commutant_weight_one():
    for num_sites in (4, 5):
        heisenberg_commutant_case(num_sites, 1, 3)


def test_heisenberg_commutant_weight_two():
    # the 4-site ring carries one extra weight-2 invariant beyond the
    # generic seven; five sites settle to the generic count
    heisenberg_commutant_case(4, 2, 8)
    heisenberg_commutant_case(5, 2, 7)


def test_ising_coupling_commutant():
    h = HamiltonianSpec(2, "random", {PauliString.from_label("ZZ"): 1.0})
    cols = commutant_basis(h, 1)
    assert cols.shape[1] == 2  # the two single-site Z operators
    basis1 = PauliBasis(2, max_weight=1, min_weight=1)
    spanned = cols @ (cols.conj().T)
    for label in ("ZI", "IZ"):
        e = np.zeros(6)
        e[basis1.index_of(PauliString.from_label(label))] = 1.0
        assert np.linalg.norm(spanned @ e - e) < 1e-10


def test_commutant_weight_bounds():
    h = heisenberg_hamiltonian(4)
    with pytest.raises(ValueError):
        commutant_basis(h, 5)


# --- persistence tracking ---------------------------------------------------


def fabricated_spectrum(eigs, basis):
    """Diagonal superoperator whose modes are the basis strings."""
    return diagonalize(Superoperator(basis.num_sites, np.diag(np.asarray(eigs, dtype=complex))))


def test_persistence_tracker_on_fabricated_sweep():
    basis = PauliBasis(2)
    center = -0.5
    base = np.full(16, -2.0, dtype=complex)
    base[1] = -0.5  # weight-1 slot, stays inside the window
    base[2] = -0.49  # weight-1 slot, stays inside the window
    base[4] = -0.52  # weight-1 slot: wanders out by the final coupling
    drifted = base.copy()
    drifted[4] = -0.9
    sweep = [(1.0, fabricated_spectrum(base, basis)), (4.0, fabricated_spectrum(drifted, basis))]
    ref = np.zeros(16)
    ref[1] = 1.0
    report = persistent_modes(
        sweep, basis, [(1, center)], reference_operators=[("probe", ref)]
    )
    assert not report.degenerate_input
    (group,) = report.groups
    assert group.counts == (3, 2)
    assert group.persistent_count == 2
    names = {m.best_reference[0] for m in group.modes}
    assert names == {"probe"}
    best = max(m.best_reference[1] for m in group.modes)
    assert best == pytest.approx(1.0)
    spans = sorted(m.span_overlap for m in group.modes)
    assert spans[0] == pytest.approx(0.0, abs=1e-12)
    assert spans[1] == pytest.approx(1.0)


def test_persistence_weight_threshold_excludes_mixed_modes():
    basis = PauliBasis(2)
    eigs = np.full(16, -2.0, dtype=complex)
    eigs[3] = -0.5  # weight-1 slot
    eigs[9] = -0.5  # weight-2 slot inside the weight-1 window
    sweep = [
        (1.0, fabricated_spectrum(eigs - 0.001j, basis)),
        (2.0, fabricated_spectrum(eigs, basis)),
    ]
    report = persistent_modes(sweep, basis, [(1, -0.5)])
    (group,) = report.groups
    assert group.counts == (2, 2)
    assert group.persistent_count == 1  # the weight-2 intruder fails the profile cut


def test_persistence_flags_degenerate_sweep():
    basis = PauliBasis(2)
    eigs = np.linspace(-1.5, -0.1, 16).astype(complex)
    spec = fabricated_spectrum(eigs, basis)
    report = persistent_modes([(0.0, spec), (0.0, spec)], basis, [(1, -0.5)])
    assert report.degenerate_input
    # distinct couplings with identical spectra are just as meaningless
    report = persistent_modes([(0.0, spec), (1.0, spec)], basis, [(1, -0.5)])
    assert report.degenerate_input


def test_persistence_argument_validation():
    basis = PauliBasis(2)
    spec = fabricated_spectrum(np.linspace(-1, 0, 16), basis)
    with pytest.raises(ValueError):
        persistent_modes([(1.0, spec)], basis, [(1, -0.5)])
    bare = diagonalize(
        Superoperator(2, np.diag(np.linspace(-1, 0, 16)).astype(complex)), vectors=False
    )
    with pytest.raises(ValueError):
        persistent_modes([(1.0, spec), (2.0, bare)], basis, [(1, -0.5)])


# --- spectral density -------------------------------------------------------


def test_spectral_density_normalization_and_scaling():
    eigs = np.array([-1.0 + 0.5j, -1.0 - 0.5j, -0.2 + 0.1j, -0.2 - 0.1j])
    d = spectral_density(eigs, 8, 8)
    assert d.total == 4
    assert d.probability.sum() == pytest.approx(1.0)
    scaled = spectral_density(eigs, 8, 8, im_scale=2.0)
    manual = spectral_density(eigs.real + 2.0j * eigs.imag, 8, 8)
    assert np.array_equal(scaled.counts, manual.counts)
    with pytest.raises(SpectralAnalysisError):
        spectral_density(np.array([]))


def test_density_total_variation_bounds():
    a = spectral_density(np.array([0j, 1j]), 2, 2, re_range=(-1, 1), im_range=(-2, 2))
    assert density_total_variation(a, a) == 0.0
    b = spectral_density(np.array([-0.5 - 1j]), 2, 2, re_range=(-1, 1), im_range=(-2, 2))
    assert density_total_variation(a, b) == pytest.approx(1.0)
    c = spectral_density(np.array([0j]), 3, 3, re_range=(-1, 1), im_range=(-2, 2))
    with pytest.raises(ValueError):
        density_total_variation(a, c)
    d = spectral_density(np.array([0j, 1j]), 2, 2, re_range=(-1, 2), im_range=(-2, 2))
    with pytest.raises(ValueError):
        density_total_variation(a, d)


def test_conjugation_symmetric_density():
    # odd bin count centers one bin on the real axis, where the
    # exactly-real eigenvalues of the real supermatrix live
    spec = diagonalize(full_liouvillian(3, 0.6), vectors=False)
    d = spectral_density(spec.eigenvalues, 10, 11, im_range=(-0.2, 0.2))
    assert np.abs(d.counts - d.counts[:, ::-1]).max() == 0.0


# --- time evolution ---------------------------------------------------------


def vec_f(mat):
    return mat.reshape(-1, order="F")


def test_evolution_matches_matrix_exponential():
    s = full_liouvillian(3, 0.7, basis_form="computational")
    spec = diagonalize(s)
    rng = np.random.default_rng(13)
    dim = 8
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    o = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    o = 0.5 * (o + o.conj().T)
    times = (0.1, 1.0, 10.0)
    got = evolve_expectation(spec, vec_f(rho), vec_f(o), times)
    for t, value in zip(times, got):
        propagated = (expm(s.matrix * t) @ vec_f(rho)).reshape((dim, dim), order="F")
        want = np.trace(o @ propagated)
        assert abs(value - want) < 1e-6
    at_zero = evolve_expectation(spec, vec_f(rho), vec_f(o), [0.0])[0]
    assert abs(at_zero - np.trace(o @ rho)) < 1e-8


def test_evolution_requires_diagonalizable_spectrum():
    from klindblad.spectral import Spectrum

    eigs = np.zeros(16, dtype=complex)
    # singular right modes: the lazy inverse fails and leaves no left system
    bad = Spectrum(2, eigs, np.zeros((16, 16), dtype=complex))
    assert bad.left_modes is None
    assert bad.biorth_residual == np.inf
    assert not bad.diagonalizable
    with pytest.raises(SpectralAnalysisError):
        evolve_expectation(bad, np.zeros(16), np.zeros(16), [1.0])
    with pytest.raises(SpectralAnalysisError):
        evolve_expectation(Spectrum(2, eigs), np.zeros(16), np.zeros(16), [1.0])
