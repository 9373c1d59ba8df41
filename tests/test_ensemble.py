"""Sampling-layer tests: normalizations, determinism, serialization.

Statistical checks pin their tolerance to 3 standard errors computed from the
known moments of the sampled quantities, so they are deterministic given the
fixed seeds used here.
"""

import json
from math import comb, sqrt

import numpy as np
import pytest

from klindblad.ensemble import (
    HEISENBERG_PBC,
    RANDOM_ALL_TO_ALL,
    STREAM_ANALYSIS,
    STREAM_HAMILTONIAN,
    STREAM_KOSSAKOWSKI,
    HamiltonianSpec,
    dense_hamiltonian,
    haar_unitary,
    hamiltonian_to_json_dict,
    heisenberg_hamiltonian,
    kossakowski_dimension,
    kossakowski_json_chunks,
    random_coupling_sigma,
    sample_kossakowski,
    sample_random_hamiltonian,
    substream,
)
from klindblad.pauli import PauliString, to_dense
from oracle import enumerate_basis, from_label, kossakowski_to_json_dict


# ---------------------------------------------------------------- streams


def test_substreams_are_reproducible_and_independent():
    a = substream(123, 0, STREAM_KOSSAKOWSKI).random(8)
    b = substream(123, 0, STREAM_KOSSAKOWSKI).random(8)
    assert np.array_equal(a, b)

    others = [
        substream(123, 0, STREAM_HAMILTONIAN).random(8),
        substream(123, 0, STREAM_ANALYSIS).random(8),
        substream(123, 1, STREAM_KOSSAKOWSKI).random(8),
        substream(124, 0, STREAM_KOSSAKOWSKI).random(8),
    ]
    for arr in others:
        assert not np.array_equal(a, arr)


# ---------------------------------------------------------------- haar


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for n in (1, 2, 17):
        u = haar_unitary(n, rng)
        assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12


def test_haar_single_qubit_is_pure_phase():
    rng = np.random.default_rng(1)
    u = haar_unitary(1, rng)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_first_entry_moment():
    # |U_00|^2 is Beta(1, n-1) under Haar: mean 1/n, var (n-1)/(n^2 (n+1))
    n, samples = 8, 10_000
    rng = np.random.default_rng(2)
    vals = np.array([abs(haar_unitary(n, rng)[0, 0]) ** 2 for _ in range(samples)])
    se = sqrt((n - 1) / (n**2 * (n + 1)) / samples)
    assert abs(vals.mean() - 1 / n) < 3 * se


# ---------------------------------------------------------------- kossakowski


def test_jump_dimension_closed_form():
    assert kossakowski_dimension(6, 2) == 153
    assert kossakowski_dimension(4, 2) == 66
    assert kossakowski_dimension(5, 1) == 15
    assert kossakowski_dimension(3, 3) == 63
    with pytest.raises(ValueError):
        kossakowski_dimension(4, 5)


@pytest.mark.parametrize("num_sites", [4, 5, 6])
def test_kossakowski_invariants_hold_over_many_samples(num_sites):
    n = 2.0**num_sites
    for seed in range(100):
        s = sample_kossakowski(num_sites, 2, seed=seed)
        k = s.k_matrix
        assert np.abs(k - k.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(k).min() >= -1e-12
        assert abs(np.trace(k).real - n) < 1e-10
        assert s.d_diag.min() >= 0.0
        assert abs(s.d_diag.sum() - n) < 1e-10


def test_kossakowski_mean_diagonal():
    s = sample_kossakowski(6, 2, seed=3)
    target = 64 / 153
    assert 2.0**6 / s.k_matrix.shape[0] == pytest.approx(target, abs=1e-15)
    assert abs(target - 0.41830) < 5e-6
    assert np.mean(np.diag(s.k_matrix).real) == pytest.approx(target, abs=1e-10)


def test_kossakowski_off_diagonal_spread():
    # rotating a flat diagonal into a Haar basis leaves off-diagonal entries
    # whose real and imaginary parts each spread as d / sqrt(6 N_L);
    # pooled over 200 draws at 6 sites
    vals = []
    for seed in range(200):
        k = sample_kossakowski(6, 2, seed=seed).k_matrix
        off = k[~np.eye(k.shape[0], dtype=bool)]
        vals.append(off)
    pooled = np.concatenate(vals)
    target = (64 / 153) / sqrt(6 * 153)
    assert abs(target - 0.013806) < 5e-7
    assert abs(np.abs(pooled.mean())) < 1e-4
    assert abs(pooled.real.std() - target) / target < 0.10
    assert abs(pooled.imag.std() - target) / target < 0.10


def test_kossakowski_determinism_and_seed_rules():
    a = sample_kossakowski(4, 2, seed=11)
    b = sample_kossakowski(4, 2, seed=11)
    assert np.array_equal(a.k_matrix, b.k_matrix)
    assert np.array_equal(a.d_diag, b.d_diag)
    with pytest.raises(ValueError):
        sample_kossakowski(4, 2)
    with pytest.raises(ValueError):
        sample_kossakowski(4, 2, seed=1, rng=np.random.default_rng(1))


# ---------------------------------------------------------------- hamiltonians


def test_random_coupling_sigma_value():
    assert random_coupling_sigma(6) == pytest.approx(sqrt(2 / 270), abs=0)
    assert abs(random_coupling_sigma(6) - 0.086066) < 5e-7
    with pytest.raises(ValueError):
        random_coupling_sigma(1)


def test_random_hamiltonian_shape_and_weights():
    h = sample_random_hamiltonian(5, seed=4)
    assert h.kind == RANDOM_ALL_TO_ALL
    assert len(h.coefficients) == 9 * comb(5, 2)
    assert all(s.weight == 2 for s in h.coefficients)
    assert all(s.num_sites == 5 for s in h.coefficients)


def test_random_hamiltonian_norm_in_expectation():
    # sum J^2 is a scaled chi^2 with 54 dof at 4 sites: mean 1, var 2/54
    samples = 500
    sums = np.array(
        [sum(j * j for j in sample_random_hamiltonian(4, seed=s).coefficients.values())
         for s in range(samples)]
    )
    se = sqrt(2 / 54 / samples)
    assert abs(sums.mean() - 1.0) < 3 * se


def test_random_hamiltonian_exact_norm_flag():
    h = sample_random_hamiltonian(3, seed=5, exact_norm=True)
    assert sum(j * j for j in h.coefficients.values()) == pytest.approx(1.0, abs=1e-14)
    dense = dense_hamiltonian(h)
    assert np.trace(dense @ dense).real == pytest.approx(2.0**3, abs=1e-10)


def test_weight_validation_rejects_bad_terms():
    with pytest.raises(ValueError):
        HamiltonianSpec(3, RANDOM_ALL_TO_ALL, {from_label("XII"): 1.0})
    with pytest.raises(ValueError):
        HamiltonianSpec(3, RANDOM_ALL_TO_ALL, {from_label("XX"): 1.0})
    with pytest.raises(ValueError):
        HamiltonianSpec(3, "ising", {})


def test_heisenberg_terms_and_normalization():
    h = heisenberg_hamiltonian(6)
    assert h.kind == HEISENBERG_PBC
    assert len(h.coefficients) == 18
    j = 1 / sqrt(18)
    assert abs(j - 0.235702) < 5e-7
    assert all(c == j for c in h.coefficients.values())
    # periodic wrap term acts on sites 0 and 5
    wrap = PauliString.from_site_letters(6, [(0, "X"), (5, "X")])
    assert wrap in h.coefficients

    dense = dense_hamiltonian(heisenberg_hamiltonian(4))
    assert np.trace(dense @ dense).real == pytest.approx(16.0, abs=1e-12)
    with pytest.raises(ValueError):
        heisenberg_hamiltonian(2)


def test_dense_hamiltonian_small_cases():
    assert np.array_equal(
        dense_hamiltonian(HamiltonianSpec(2, RANDOM_ALL_TO_ALL, {})),
        np.zeros((4, 4)),
    )
    xx = HamiltonianSpec(2, RANDOM_ALL_TO_ALL, {from_label("XX"): 1.0})
    assert np.array_equal(dense_hamiltonian(xx), np.fliplr(np.eye(4)))
    eigs = np.linalg.eigvalsh(dense_hamiltonian(heisenberg_hamiltonian(4)))
    assert abs(eigs.sum()) < 1e-12


def test_random_hamiltonian_determinism():
    a = sample_random_hamiltonian(4, seed=9)
    b = sample_random_hamiltonian(4, seed=9)
    assert a.coefficients == b.coefficients


def test_weight2_spectra_pair_at_odd_site_count():
    """Real weight-2 Hamiltonians have an antiunitary symmetry squaring to
    (-1)^sites, so every level at odd size is exactly doubly degenerate."""
    for num_sites, seed in ((3, 31), (5, 32)):
        ev = np.linalg.eigvalsh(dense_hamiltonian(sample_random_hamiltonian(num_sites, seed=seed)))
        gaps = np.diff(ev)
        assert gaps[0::2].max() < 1e-12
        assert gaps[1::2].min() > 1e-4
    for num_sites, seed in ((4, 31), (6, 32)):
        ev = np.linalg.eigvalsh(dense_hamiltonian(sample_random_hamiltonian(num_sites, seed=seed)))
        assert np.diff(ev).min() > 1e-4


# ---------------------------------------------------------------- normality


def rotated_jump_normality(sample):
    """Max-norm of [A^dag, A] for each jump combination diagonalizing K.

    Diagonalizing K = sum_nu w_nu v_nu v_nu^dag turns the dissipator into
    single-channel form with operators A_nu = sum_n (v_nu)_n L_n.  Returns
    the per-channel commutator residuals of those operators (dense forms).
    """
    _, vectors = np.linalg.eigh(sample.k_matrix)
    strings = enumerate_basis(sample.num_sites, sample.k_max, min_weight=1)
    norm = sqrt(2.0**sample.num_sites)
    stack = np.array([to_dense(s) / norm for s in strings])
    residuals = np.empty(sample.k_matrix.shape[0])
    for nu in range(sample.k_matrix.shape[0]):
        a = np.tensordot(vectors[:, nu], stack, axes=(0, 0))
        residuals[nu] = np.abs(a.conj().T @ a - a @ a.conj().T).max()
    return residuals


@pytest.mark.xfail(
    strict=True,
    reason="rotated jump combinations are not normal operators: mixing "
    "non-commuting Pauli strings by a generic unitary leaves commutator "
    "residuals of order 0.1, not 1e-10",
)
def test_rotated_jumps_normal_strict():
    res = rotated_jump_normality(sample_kossakowski(3, 2, seed=6))
    assert res.max() < 1e-10


def test_rotated_jump_residual_band():
    # companion to the strict check above: the residuals are O(0.1) and
    # stable across draws, nowhere near numerical-zero
    for seed in (6, 7, 8):
        res = rotated_jump_normality(sample_kossakowski(3, 2, seed=seed))
        assert 0.01 < res.min() and res.max() < 0.6


# ---------------------------------------------------------------- serialization
#
# These records feed the manifest's model digests, so they must hold every
# bit of the sample.


def test_kossakowski_json_round_trip_is_bit_exact():
    s = sample_kossakowski(4, 2, seed=12)
    record = json.loads(json.dumps(kossakowski_to_json_dict(s)))
    k = np.zeros_like(s.k_matrix)
    for r, c, re, im in record["k_matrix"]:
        k[r, c] = complex(re, im)
    assert np.array_equal(k, s.k_matrix)
    assert np.array_equal(record["d_diag"], s.d_diag)
    assert (record["num_sites"], record["k_max"], record["seed"]) == (4, 2, 12)


@pytest.mark.parametrize("num_sites, k_max", [(2, 1), (3, 2), (4, 3), (5, 2)])
def test_kossakowski_json_chunks_spell_the_record(num_sites, k_max):
    # the manifest hashes these pieces; joined, they are the record's JSON
    # text (one piece of rows up to 36 channels, 2 at 105 and 3 at 174)
    s = sample_kossakowski(num_sites, k_max, seed=3)
    want = json.dumps(kossakowski_to_json_dict(s), sort_keys=True)
    assert "".join(kossakowski_json_chunks(s)) == want


def test_hamiltonian_json_round_trip_is_bit_exact():
    for h in (sample_random_hamiltonian(4, seed=13), heisenberg_hamiltonian(5)):
        record = json.loads(json.dumps(hamiltonian_to_json_dict(h)))
        back = {from_label(label): j for label, j in record["coefficients"]}
        assert back == h.coefficients
        header = (record["num_sites"], record["kind"], record["seed"])
        assert header == (h.num_sites, h.kind, h.seed)
