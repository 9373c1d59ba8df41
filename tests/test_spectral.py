"""Tests for spectral decomposition, statistics, and mode analysis."""

import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from klindblad import openblas, spectral
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
    dissipator_factor,
    jump_operator_set,
    lambda0,
    unitary_pauli_matrix,
)
from klindblad.pauli import PauliBasis, PauliString, to_dense
from klindblad.spectral import (
    LEVEL_MERGE_TOL,
    _canonical_order,
    _spacing_ratios,
    cluster_by_centers,
    commutant_basis,
    complex_spacing_ratios,
    csr_reference_ginibre,
    csr_reference_poisson,
    density_total_variation,
    diagonalize,
    ks_statistic,
    persistent_modes,
    random_weight_operator,
    spectral_density,
    unitary_eigenvalues,
    weight_profiles,
    window_counts,
)

from conftest import assert_cptp_spectrum, pairing_distance
import oracle


def full_liouvillian(num_sites, alpha, k_seed=21, h_seed=32, basis_form="pauli"):
    """Assembled alpha * L_U + L_D in the requested basis; the
    computational one comes from the Kronecker oracle."""
    k = sample_kossakowski(num_sites, 2, seed=k_seed)
    h = sample_random_hamiltonian(num_sites, seed=h_seed)
    jumps = jump_operator_set(num_sites, 2)
    if basis_form == "computational":
        return oracle.assemble(alpha, oracle.build_unitary_part(h),
                               oracle.build_dissipator(k, jumps))
    basis = PauliBasis(num_sites)
    return assemble(build_unitary_part(h, basis), dissipator_factor(k, jumps, basis),
                    unitary=alpha)


# --- eigendecomposition -----------------------------------------------------


def test_diagonalize_invariants(monkeypatch):
    inversions = []
    inv = np.linalg.inv

    def counting_inv(a):
        inversions.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    s = full_liouvillian(3, 0.5)
    m = s.matrix.copy()  # diagonalize consumes s.matrix
    spec = diagonalize(s)
    assert spec.dim == 64
    right = spec.modes(slice(None))
    residual = np.abs(m @ right - right * spec.eigenvalues).max()
    assert residual < 1e-8
    # the probe residual of one unit vector is bounded by sqrt(n) times the full one
    assert spec.diag_residual < 1e-8
    assert spec.diag_residual <= residual * np.sqrt(64)
    # a solve inverts nothing; the left modes are the inverse of the right ones
    assert inversions == []
    assert np.abs(inv(right) @ right - np.eye(64)).max() < 1e-8


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
    a = diagonalize(Superoperator(3, s.matrix.copy()), vectors=False).eigenvalues
    b = diagonalize(s).eigenvalues
    assert pairing_distance(a, b) < 1e-10


def _has_dgeev():
    return openblas.dgeev(np.zeros((1, 1)), False) is not None


def _solve_cases():
    for num_sites in (3, 4, 5):
        yield f"l{num_sites}", lambda n=num_sites: full_liouvillian(n, 0.5)
    # every eigenvalue real: numpy returns real eigenvalues and modes
    yield "real-spectrum", lambda: build_dissipator(
        np.eye(36), jump_operator_set(3, 2), PauliBasis(3))
    # a C-ordered input is copied into the solver's layout first
    yield "c-order", lambda: Superoperator(3, np.ascontiguousarray(full_liouvillian(3, 0.5).matrix))


@pytest.mark.parametrize("library", ["found", "forced-none"])
@pytest.mark.parametrize("case", list(_solve_cases()), ids=lambda case: case[0])
def test_solve_gives_the_bits_of_numpy(case, library, monkeypatch):
    if library == "forced-none":
        monkeypatch.setattr(openblas, "numpy_openblas", lambda: None)
    elif not _has_dgeev():
        pytest.skip("numpy's OpenBLAS or its dgeev was not found")
    s = case[1]()
    m = s.matrix.copy()
    in_place = library == "found" and case[0] != "c-order"

    want = np.linalg.eigvals(m)
    got = diagonalize(Superoperator(s.num_sites, s.matrix.copy(order="K")), vectors=False)
    assert got.eigenvalues.dtype == want.dtype
    assert got.eigenvalues.tobytes() == want[_canonical_order(want)].tobytes()

    want, right = np.linalg.eig(m)
    order = _canonical_order(want)
    got = diagonalize(s)
    assert got.eigenvalues.dtype == want.dtype
    assert got.eigenvalues.tobytes() == want[order].tobytes()
    whole = got.modes(slice(None))
    assert whole.dtype == right.dtype
    assert whole.flags.f_contiguous
    assert whole.tobytes() == right[:, order].tobytes()
    # the in-place solve leaves the Schur form where the generator was; a
    # diagonal matrix is its own Schur form
    overwritten = in_place and case[0] != "real-spectrum"
    assert np.array_equal(s.matrix, m) != overwritten


def _reader_cases():
    for num_sites in (3, 4, 5):
        yield f"l{num_sites}", num_sites, lambda n=num_sites: full_liouvillian(n, 0.5).matrix
    yield "real-spectrum", 3, lambda: build_dissipator(
        np.eye(36), jump_operator_set(3, 2), PauliBasis(3)).matrix
    # complex input takes np.linalg.eig, whose modes the spectrum keeps as they are
    yield "complex-input", 3, lambda: full_liouvillian(3, 0.5).matrix.astype(complex)


def _persistence_bits(groups):
    return [(label, center, [(m.index, m.eigenvalue, m.profile.tobytes(), m.best_reference,
                              m.span_overlap) for m in modes]) for label, center, modes in groups]


@pytest.mark.parametrize("case", list(_reader_cases()), ids=lambda case: case[0])
def test_block_readers_give_the_bits_of_the_whole_modes(case):
    name, num_sites, make = case
    m = make()
    eigs, right = np.linalg.eig(m)
    whole = right[:, _canonical_order(eigs)]
    spec = diagonalize(Superoperator(num_sites, m.copy(order="F")))
    assert (spec.wi is None) == (name == "complex-input" or not _has_dgeev())
    n = spec.dim
    for cols in (slice(64, 128), [n - 1, 5, 17, 6]):
        unpacked = spec.modes(cols)
        assert unpacked.flags.f_contiguous
        assert unpacked.tobytes() == whole[:, cols].tobytes()

    basis = PauliBasis(num_sites)
    rng = np.random.default_rng(5)
    probe = random_weight_operator(basis, 2, rng)
    # a spectrum that holds the whole modes, as one that kept them used to
    held = spectral.Spectrum(spec.eigenvalues, whole, order=np.arange(n))
    profiles, norms, overlaps = weight_profiles(spec, basis, probe)
    want_profiles, want_norms, _ = weight_profiles(held, basis)
    assert profiles.tobytes() == want_profiles.tobytes()
    assert norms.tobytes() == want_norms.tobytes()
    assert overlaps.tobytes() == (np.abs(probe @ whole) / want_norms).tobytes()

    # the persistence report of the packed modes and of the whole ones
    refs = [("w1", random_weight_operator(basis, 1, rng)), ("w2", probe),
            ("w2b", random_weight_operator(basis, 2, rng))]
    # a center per weight where that weight's modes lie, so that each keeps some
    dominant = profiles.argmax(axis=1)
    centers = [(k, float(np.median(spec.eigenvalues.real[dominant == k])))
               for k in range(1, num_sites + 1)]

    def report(final):
        return _persistence_bits(persistent_modes(
            final, weight_profiles(final, basis), basis, centers, refs, window=0.2,
            weight_threshold=0.5))

    got = report(spec)
    assert sum(len(modes) for _, _, modes in got) > 0
    assert got == report(held)


def test_dgeev_refuses_what_it_cannot_solve():
    if not _has_dgeev():
        pytest.skip("numpy's OpenBLAS or its dgeev was not found")
    for bad in (np.zeros((2, 3)), np.zeros((2, 2), dtype=np.float32), np.zeros(4)):
        with pytest.raises(ValueError):
            openblas.dgeev(bad, False)


def test_solve_allocates_no_copy_of_the_generator():
    if not _has_dgeev():
        pytest.skip("numpy's OpenBLAS or its dgeev was not found")
    matrix = full_liouvillian(5, 0.5).matrix
    n = matrix.shape[0]
    real_nn = 8 * n * n
    tracemalloc.start()
    try:
        for vectors in (False, True):
            s = Superoperator(5, matrix.copy(order="F"))
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            spec = diagonalize(s, vectors=vectors)
            peak = tracemalloc.get_traced_memory()[1] - before
            if vectors:
                # the real eigenvectors dgeev writes (VR, padded as the solver
                # lays it out), LAPACK's workspace, which dtrevc3 sizes at up
                # to 2 n x 128 entries, and one block of columns being
                # unpacked for the probe residual; never a complex V
                workspace = 8 * 2 * n * 128
                blocks = 4 * 8 * n * spectral._MODE_BLOCK
                assert peak <= spec.vr.base.nbytes + workspace + blocks
                assert spec.vr.base.nbytes < real_nn + 8 * n * 64
            else:
                # eigenvalues, LAPACK's workspace and one block of the
                # finiteness check
                assert peak < real_nn / 16
    finally:
        tracemalloc.stop()


def test_solve_releases_the_interpreter_lock():
    if not _has_dgeev():
        pytest.skip("numpy's OpenBLAS or its dgeev was not found")
    s = full_liouvillian(5, 0.5)
    worker = threading.Thread(target=diagonalize, args=(s, False))
    start = last = time.perf_counter()
    longest = 0.0
    worker.start()
    while worker.is_alive() and last - start < 60:
        now = time.perf_counter()
        longest, last = max(longest, now - last), now
    worker.join(timeout=60)
    assert not worker.is_alive()
    # a solve that held the lock would stall this loop for all of its length
    assert longest < (last - start) / 4


# --- closed-form unitary spectrum -------------------------------------------


def unitary_cases():
    for num_sites in (2, 3, 4, 5):
        yield sample_random_hamiltonian(num_sites, seed=40 + num_sites)
        if num_sites >= 3:
            yield heisenberg_hamiltonian(num_sites)


@pytest.mark.parametrize("h", list(unitary_cases()), ids=lambda h: f"{h.kind}{h.num_sites}")
def test_unitary_eigenvalues_match_dense_oracle(h):
    eigs = unitary_eigenvalues(h)
    dense = np.linalg.eigvals(oracle.dense(build_unitary_part(h, PauliBasis(h.num_sites))))
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
    assert_cptp_spectrum(diagonalize(full_liouvillian(3, 0.7)))


def test_identity_is_the_trace_functional():
    """The steady left mode is vec(1) in either basis convention."""
    s = full_liouvillian(2, 0.4, basis_form="computational")
    ident = oracle.vec_identity(2)
    assert np.abs(ident @ s.matrix).max() < 1e-12


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


def _spacing_ratios_by_sorting(points):
    """The former per-point loop: a stable sort of each point's distances."""
    ratios = np.empty(points.size)
    for i in range(points.size):
        d = np.abs(points - points[i])
        d[i] = np.inf
        order = np.argsort(d, kind="stable")[:2]
        nn, nnn = d[order[0]], d[order[1]]
        ratios[i] = nn / nnn if nnn > 0 else 1.0
    return ratios


@pytest.mark.parametrize("n", [3, 255, 256, 257, 700])
def test_csr_row_blocks_give_the_bits_of_the_sorting_loop(n):
    rng = np.random.default_rng(n)
    cases = [
        rng.standard_normal(n) + 1j * rng.uniform(0.1, 2.0, n),
        # lattice points: many exactly tied and some coinciding distances
        rng.integers(0, 6, n) + 1j * rng.integers(1, 6, n),
        # real-only input
        rng.uniform(0.0, 1.0, n).astype(complex),
    ]
    for points in cases:
        points = points.astype(complex)
        assert _spacing_ratios(points).tobytes() == _spacing_ratios_by_sorting(points).tobytes()


def test_ks_statistic_equals_scipy_ks_2samp():
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(12)
    # both sides of the 10000-sample switch from exact to asymptotic mode
    sizes = [(1, 1), (3, 7), (50, 50), (128, 300), (2560, 1000), (10000, 9999),
             (10000, 10001), (12000, 500)]
    for n1, n2 in sizes:
        for tied in (False, True):
            a, b = rng.random(n1), rng.random(n2) ** 1.2
            if tied:
                a, b = np.round(a * 8) / 8, np.round(b * 8) / 8
            assert ks_statistic(a, b) == ks_2samp(a, b).statistic, (n1, n2, tied)
    same = rng.random(40)
    assert ks_statistic(same, same) == 0.0
    assert ks_statistic(np.zeros(3), np.ones(5)) == 1.0


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
    clusters = {c.label: c for c in report.clusters}
    assert clusters.keys() == {"1", "2"}
    assert clusters["1"].population == 2
    assert clusters["2"].population == 3
    assert clusters["2"].center == pytest.approx((-1.02 - 0.98 - 1.0) / 3)
    assert report.separation_score is not None


def test_cluster_merges_identical_centers():
    eigs = np.array([-1.0, -1.01, -0.2])
    report = cluster_by_centers(eigs, [(3, -1.0), (6, -1.0), (1, -0.2)])
    populations = {c.label: c.population for c in report.clusters}
    assert populations == {"1": 1, "3,6": 2}


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
        assert next(c for c in report.clusters if c.label == "1").population == expected
        assert report.steady_indices.size == 1
        total = sum(c.population for c in report.clusters)
        assert total == 4**num_sites - 1


# --- mode operator content --------------------------------------------------


def test_mode_weight_profile_basics():
    basis = PauliBasis(3)
    vec = np.zeros(64, dtype=complex)
    vec[basis.index_of(oracle.from_label("XII"))] = 0.6
    vec[basis.index_of(oracle.from_label("XYI"))] = 0.8j
    # a mode's profile does not depend on its phase, its norm or the other modes
    modes = np.column_stack([vec, np.exp(0.7j) * vec, 3.0 * vec, np.ones(64)])
    spec = spectral.Spectrum(np.zeros(4), modes, order=np.arange(4))
    profiles, norms, overlaps = weight_profiles(spec, basis)
    assert overlaps is None
    assert profiles.shape == (4, 4)
    assert np.allclose(profiles.sum(axis=1), 1.0)
    assert profiles[0, 1] == pytest.approx(0.36)
    assert profiles[0, 2] == pytest.approx(0.64)
    assert np.abs(profiles[:3] - profiles[0]).max() < 1e-14
    assert np.allclose(profiles[3], [1 / 64, 9 / 64, 27 / 64, 27 / 64])
    assert np.allclose(norms, [1.0, 1.0, 3.0, 8.0])
    with pytest.raises(ValueError):
        weight_profiles(spectral.Spectrum(np.zeros(4), modes[:63], order=np.arange(4)), basis)


def test_diagonal_dissipator_modes_are_weight_pure():
    num_sites = 3
    basis = PauliBasis(num_sites)
    k = sample_kossakowski(num_sites, 2, seed=4)
    flat = np.eye(k.k_matrix.shape[0]) * 2.0**num_sites / k.k_matrix.shape[0]
    l_d = build_dissipator(flat, jump_operator_set(num_sites, 2), basis)
    spec = diagonalize(l_d)
    profiles, _, _ = weight_profiles(spec, basis)
    assert profiles.max(axis=1).min() > 1.0 - 1e-10


def test_random_weight_operator_support():
    basis = PauliBasis(4, max_weight=3)
    op = random_weight_operator(basis, 2, np.random.default_rng(3))
    assert np.linalg.norm(op) == pytest.approx(1.0)
    sector = basis.sector(2)
    outside = np.delete(op, np.arange(sector.start, sector.stop))
    assert np.abs(outside).max() == 0.0


def test_operator_overlap_properties():
    # the persistent modes of a diagonal generator are single strings, here
    # the weight-1 strings 1 and 2 of two sites
    basis = PauliBasis(2)
    eigs = np.full(16, -2.0)
    eigs[[1, 2]] = -0.5
    spec = fabricated_spectrum(eigs, basis)
    weight1 = np.zeros(16)
    weight1[1:7] = 1.0
    weight2 = np.zeros(16)
    weight2[7:] = 1.0

    def scores(reference_operators):
        """(best reference, span overlap) by the string each mode is."""
        ((_, _, tracked),) = persistent_modes(spec, weight_profiles(spec, basis), basis,
                                              [(1, -0.5)], reference_operators)
        modes = spec.modes(slice(None))
        return {int(np.abs(modes[:, m.index]).argmax()): (m.best_reference, m.span_overlap)
                for m in tracked}

    # |<op|mode>| with both sides unit-normalized, whatever the operator's norm
    assert scores([("w2", 3.0 * weight2), ("w1", 5.0 * weight1)]) == {
        i: (("w1", pytest.approx(1 / np.sqrt(6))), pytest.approx(1 / np.sqrt(6)))
        for i in (1, 2)}
    # mixing in an orthogonal component dilutes the overlap monotonically
    string1 = np.eye(16)[1]
    overlaps = [scores([("s", string1 + eps * weight2)])[1][0][1] for eps in (0.0, 0.3, 0.6)]
    assert overlaps[0] == pytest.approx(1.0)
    assert overlaps[0] > overlaps[1] > overlaps[2]
    assert scores([("s", string1)])[2] == (("s", 0.0), pytest.approx(0.0, abs=1e-14))
    with pytest.raises(SpectralAnalysisError):
        scores([("s", string1), ("zero", np.zeros(16))])


# --- commutant --------------------------------------------------------------


def dense_operator(coeffs, basis):
    op = np.zeros((2**basis.num_sites, 2**basis.num_sites), dtype=complex)
    for i, s in enumerate(oracle.strings(basis)):
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
    h_dense = sum(j * to_dense(s) for s, j in h.coefficients.items())
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
    h = HamiltonianSpec(2, "random", {oracle.from_label("ZZ"): 1.0})
    cols = commutant_basis(h, 1)
    assert cols.shape[1] == 2  # the two single-site Z operators
    basis1 = PauliBasis(2, max_weight=1, min_weight=1)
    spanned = cols @ (cols.conj().T)
    for label in ("ZI", "IZ"):
        e = np.zeros(6)
        e[basis1.index_of(oracle.from_label(label))] = 1.0
        assert np.linalg.norm(spanned @ e - e) < 1e-10


@pytest.mark.parametrize("num_sites", [3, 4, 5])
def test_commutant_basis_matches_sparse_matrix_slicing(num_sites):
    # the basis commutant_basis gave when it sliced a scipy.sparse matrix
    import scipy.sparse as sp

    for h in (heisenberg_hamiltonian(num_sites), sample_random_hamiltonian(num_sites, seed=6)):
        for weight in range(1, num_sites + 1):
            lo, hi = max(0, weight - 1), min(num_sites, weight + 1)
            basis = PauliBasis(num_sites, max_weight=hi, min_weight=lo)
            l_u = unitary_pauli_matrix(h, basis)
            csr = sp.csr_matrix((l_u.values, (l_u.rows, l_u.cols)), shape=(l_u.dim, l_u.dim))
            cols = basis.sector(weight)
            a = np.vstack([csr[basis.sector(k), cols].toarray()
                           for k in range(lo, hi + 1) if k != weight])
            _, sigma, vt = np.linalg.svd(a, full_matrices=True)
            rank = int(np.sum(sigma > 1e-10 * sigma[0]))
            assert np.array_equal(commutant_basis(h, weight), vt[rank:].conj().T)


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
    final = fabricated_spectrum(drifted, basis)
    ref = np.zeros(16)
    ref[1] = 1.0
    degenerate, counts = window_counts([fabricated_spectrum(base, basis).eigenvalues,
                                        final.eigenvalues], [(1, center)])
    assert not degenerate
    assert counts == [(3, 2)]
    ((label, got_center, modes),) = persistent_modes(
        final, weight_profiles(final, basis), basis, [(1, center)], [("probe", ref)])
    assert (label, got_center) == ("1", center)
    assert len(modes) == 2
    names = {m.best_reference[0] for m in modes}
    assert names == {"probe"}
    best = max(m.best_reference[1] for m in modes)
    assert best == pytest.approx(1.0)
    spans = sorted(m.span_overlap for m in modes)
    assert spans[0] == pytest.approx(0.0, abs=1e-12)
    assert spans[1] == pytest.approx(1.0)


def test_persistence_weight_threshold_excludes_mixed_modes():
    basis = PauliBasis(2)
    eigs = np.full(16, -2.0, dtype=complex)
    eigs[3] = -0.5  # weight-1 slot
    eigs[9] = -0.5  # weight-2 slot inside the weight-1 window
    final = fabricated_spectrum(eigs, basis)
    _, counts = window_counts([eigs - 0.001j, final.eigenvalues], [(1, -0.5)])
    assert counts == [(2, 2)]
    profiles = weight_profiles(final, basis)
    refs = [("w1", np.eye(16)[3])]
    ((_, _, modes),) = persistent_modes(final, profiles, basis, [(1, -0.5)], refs)
    # the weight-2 intruder fails the profile cut
    assert [m.profile.tolist() for m in modes] == [[0.0, 1.0, 0.0]]
    ((_, _, modes),) = persistent_modes(final, profiles, basis, [(1, -0.5)], refs,
                                        weight_threshold=0.0)
    assert sorted(m.profile.tolist() for m in modes) == [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]


def test_persistence_flags_degenerate_sweep():
    eigs = np.linspace(-1.5, -0.1, 16).astype(complex)
    # identical spectra at distinct couplings are meaningless, in any order
    degenerate, counts = window_counts([eigs, eigs[::-1].copy()], [(1, -0.5)], window=0.1)
    assert degenerate
    assert counts == [(1, 1)]
    degenerate, _ = window_counts([eigs, eigs + 1e-9], [(1, -0.5)])
    assert not degenerate


def test_persistence_argument_validation():
    basis = PauliBasis(2)
    spec = fabricated_spectrum(np.linspace(-1, 0, 16), basis)
    with pytest.raises(ValueError):
        window_counts([spec.eigenvalues], [(1, -0.5)])
    bare = diagonalize(
        Superoperator(2, np.diag(np.linspace(-1, 0, 16)).astype(complex)), vectors=False
    )
    with pytest.raises(ValueError):
        persistent_modes(bare, weight_profiles(spec, basis), basis, [(1, -0.5)],
                         [("w1", np.eye(16)[1])])


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
    got = oracle.evolve_expectation(spec, vec_f(rho), vec_f(o), times)
    for t, value in zip(times, got):
        propagated = (expm(s.matrix * t) @ vec_f(rho)).reshape((dim, dim), order="F")
        want = np.trace(o @ propagated)
        assert abs(value - want) < 1e-6
    at_zero = oracle.evolve_expectation(spec, vec_f(rho), vec_f(o), [0.0])[0]
    assert abs(at_zero - np.trace(o @ rho)) < 1e-8
