"""Superoperator assembly tests.

The direct string-basis builders are checked against the computational-basis
Kronecker oracle of ``oracle.py`` rotated into the same basis; small
closed-form channels (dephasing, a ZZ coupling) anchor the conventions;
structural checks (trace row, diagonality of the flat-coupling dissipator,
weight-adjacency of the commutator generator) run on sampled models.
"""

from fractions import Fraction

import numpy as np
import pytest
from conftest import pairing_distance

import oracle

from klindblad.ensemble import (
    HamiltonianSpec,
    RANDOM_ALL_TO_ALL,
    heisenberg_hamiltonian,
    sample_kossakowski,
    sample_random_hamiltonian,
)
from klindblad.errors import NonPositiveKossakowskiError, NumericalError
from klindblad.liouvillian import (
    Superoperator,
    assemble,
    build_dissipator,
    build_unitary_part,
    dissipator_factor,
    jump_operator_set,
    lambda0,
    lambda0_fraction,
    pauli_basis_form,
    real_pauli_form,
    string_basis_matrix,
    unitary_pauli_matrix,
)
from klindblad import openblas
from klindblad.pauli import PauliBasis, PauliString


# ---------------------------------------------------------------- jumps


def test_jump_set_counts_and_orthonormality():
    jumps = jump_operator_set(2, 2)
    assert len(jumps) == 15
    assert len(jump_operator_set(4, 2)) == 66
    stack = oracle.jump_stack(jumps)
    for a in stack:
        assert abs(np.trace(a)) < 1e-14
    gram = np.einsum("nij,mij->nm", stack.conj(), stack)
    assert np.abs(gram - np.eye(15)).max() < 1e-14


def test_jump_set_rejects_identity():
    # the channels are the weight window starting at 1: never the identity,
    # and an empty window is refused
    jumps = jump_operator_set(2, 2)
    assert PauliString.identity(2) not in jumps
    assert (jumps.weight_array >= 1).all()
    with pytest.raises(ValueError):
        jump_operator_set(2, 0)


# ---------------------------------------------------------------- dissipator


def test_dephasing_channel_spectrum():
    # single Z channel on one qubit with coupling 2: rates {0, 0, -2, -2};
    # the channels are X, Y, Z, so only the last is coupled
    jumps = jump_operator_set(1, 1)
    assert [s.to_label() for s in jumps] == ["X", "Y", "Z"]
    ld = build_dissipator(np.diag([0.0, 0.0, 2.0]), jumps, PauliBasis(1))
    eigs = np.linalg.eigvals(ld.matrix)
    assert pairing_distance(eigs, np.array([0, 0, -2, -2], dtype=complex)) < 1e-12


def test_trace_preservation_row():
    k, jumps = sample_kossakowski(3, 2, seed=1), jump_operator_set(3, 2)
    ld = build_dissipator(k, jumps, PauliBasis(3))
    assert ld.trace_violation() < 1e-10
    # the identity test vector itself, in the computational vectorization
    v = oracle.vec_identity(3)
    assert np.abs(v.conj() @ oracle.build_dissipator(k, jumps).matrix).max() < 1e-10


def test_dissipator_trace_identity():
    # Tr L_D = -N^2 whenever Tr K = N and the jumps are traceless strings
    for num_sites, seed in ((2, 3), (3, 4)):
        ld = build_dissipator(
            sample_kossakowski(num_sites, 2, seed=seed),
            jump_operator_set(num_sites, 2),
            PauliBasis(num_sites),
        )
        n = 2.0**num_sites
        assert np.trace(ld.matrix) == pytest.approx(-(n**2), abs=1e-9)


def test_flat_coupling_dissipator_is_diagonal_in_string_basis():
    # every cutoff weight k_max, against the closed-form lambda0
    for num_sites in (2, 3, 4):
        basis = PauliBasis(num_sites)
        for k_max in range(1, num_sites + 1):
            jumps = jump_operator_set(num_sites, k_max)
            d = 2.0**num_sites / len(jumps)
            form = build_dissipator(d * np.eye(len(jumps)), jumps, basis).matrix
            off = form - np.diag(np.diag(form))
            assert np.abs(off).max() < 1e-12
            want = [lambda0(s.weight, num_sites, k_max) for s in basis]
            assert np.abs(np.diag(form) - want).max() < 1e-13


def test_coupling_validation():
    jumps, basis = jump_operator_set(2, 2), PauliBasis(2)
    bad_psd = -0.5 * np.eye(15)
    with pytest.raises(NonPositiveKossakowskiError):
        build_dissipator(bad_psd, jumps, basis)
    not_hermitian = np.eye(15) + 0j
    not_hermitian[0, 1] = 1.0
    with pytest.raises(ValueError):
        build_dissipator(not_hermitian, jumps, basis)
    with pytest.raises(ValueError):
        build_dissipator(np.eye(4), jumps, basis)
    with pytest.raises(ValueError):
        dissipator_factor(not_hermitian, jumps, basis)
    # validation can be bypassed for constructed splits
    build_dissipator(bad_psd, jumps, basis, validate=False)
    # but a non-Hermitian K gives a generator that does not preserve
    # Hermiticity, whose string-basis elements are not real; the factor
    # route finds that when it writes a generator
    with pytest.raises(NumericalError):
        build_dissipator(not_hermitian, jumps, basis, validate=False)
    factor = dissipator_factor(not_hermitian, jumps, basis, validate=False)
    lu = build_unitary_part(sample_random_hamiltonian(2, seed=1), basis)
    for scales in ({"unitary": 0.5}, {"dissipator": 0.5}):
        with pytest.raises(NumericalError):
            assemble(lu, factor, **scales)


def test_builders_need_the_complete_basis():
    h = sample_random_hamiltonian(3, seed=2)
    window = PauliBasis(3, max_weight=2)
    with pytest.raises(ValueError):
        build_unitary_part(h, window)
    with pytest.raises(ValueError):
        build_dissipator(np.eye(45), jump_operator_set(3, 2), window)
    with pytest.raises(ValueError):
        build_unitary_part(h, PauliBasis(2))


# ---------------------------------------------------------------- unitary part


def test_unitary_part_small_cases():
    basis = PauliBasis(2)
    zero = build_unitary_part(HamiltonianSpec(2, RANDOM_ALL_TO_ALL, {}), basis)
    assert zero.values.size == 0 and np.count_nonzero(zero.toarray()) == 0

    # H = ZZ has levels +-1, so -i[H, .] has 0 eight times and +-2i four times
    zz = HamiltonianSpec(2, RANDOM_ALL_TO_ALL, {PauliString.from_label("ZZ"): 1.0})
    eigs = np.linalg.eigvals(build_unitary_part(zz, basis).toarray())
    want = np.array([0] * 8 + [2j] * 4 + [-2j] * 4)
    assert pairing_distance(eigs, want) < 1e-12

    # the oracle's dense single-qubit case: H = Z
    lu = oracle.build_unitary_part(np.array([[1.0, 0.0], [0.0, -1.0]]))
    eigs = np.linalg.eigvals(lu.matrix)
    assert pairing_distance(eigs, np.array([0, 0, 2j, -2j])) < 1e-12


def test_unitary_part_is_antihermitian_with_symmetric_spectrum():
    h = sample_random_hamiltonian(3, seed=5)
    lu = build_unitary_part(h, PauliBasis(3)).toarray()
    assert lu.dtype == np.float64
    assert np.abs(lu + lu.T).max() == 0.0
    eigs = np.linalg.eigvals(lu)
    assert np.abs(eigs.real).max() < 1e-10
    assert pairing_distance(eigs, -eigs) < 1e-8


# ---------------------------------------------------------------- split


def test_split_reconstruction_and_parts():
    # L_D = L_D0 + L_D1: the mean-diagonal part from d * 1 plus the
    # fluctuations from K - d * 1, by linearity in K
    k = sample_kossakowski(4, 2, seed=6)
    jumps, basis = jump_operator_set(4, 2), PauliBasis(4)
    d = float(np.trace(k.k_matrix).real) / len(jumps)
    flat = d * np.eye(len(jumps))
    diag = build_dissipator(flat, jumps, basis)
    off = build_dissipator(k.k_matrix - flat, jumps, basis, validate=False)
    full = build_dissipator(k, jumps, basis)
    assert np.abs(diag.matrix + off.matrix - full.matrix).max() < 1e-10


# ---------------------------------------------------------------- assembly


def test_assemble_linear_combinations():
    k = sample_kossakowski(2, 2, seed=8)
    h = sample_random_hamiltonian(2, seed=9)
    basis = PauliBasis(2)
    ld = dissipator_factor(k, jump_operator_set(2, 2), basis)
    dense_ld = build_dissipator(k, jump_operator_set(2, 2), basis)
    lu = build_unitary_part(h, basis)
    dense_lu = lu.toarray()

    zero_alpha = assemble(lu, ld, unitary=0.0)
    assert np.array_equal(zero_alpha.matrix, dense_ld.matrix)

    one = assemble(lu, ld)
    assert np.abs(one.matrix - (dense_lu + dense_ld.matrix)).max() == 0.0

    weak = assemble(lu, ld, dissipator=0.0)
    assert np.array_equal(weak.matrix, dense_lu)

    got = assemble(lu, ld, dissipator=0.25).matrix
    assert np.abs(got - (dense_lu + 0.25 * dense_ld.matrix)).max() == 0.0
    # the dense L_D is in Fortran order, and every generator in the padded
    # layout LAPACK solves in place
    assert dense_ld.matrix.flags.f_contiguous
    for m in (zero_alpha.matrix, one.matrix, weak.matrix, got):
        assert m.strides == (8, 8 * (16 + openblas.PAD_ROWS))


@pytest.mark.parametrize("num_sites", [2, 3, 4, 5])
def test_sparse_assembly_equals_the_dense_route(num_sites):
    # writing alpha * L_U and L_D from its factor gives the bits of the
    # dense sum alpha * L_U + L_D, and likewise for the weak form
    basis = PauliBasis(num_sites)
    k = sample_kossakowski(num_sites, 2, seed=70 + num_sites)
    h = sample_random_hamiltonian(num_sites, seed=80 + num_sites)
    lu = build_unitary_part(h, basis)
    jumps = jump_operator_set(num_sites, 2)
    ld, factor = build_dissipator(k, jumps, basis), dissipator_factor(k, jumps, basis)
    dense_lu = Superoperator(num_sites, lu.toarray())
    want_lu = oracle.real_pauli(oracle.build_unitary_part(h), basis)
    assert np.abs(dense_lu.matrix - want_lu).max() < 1e-13
    assert lu.values.size == np.count_nonzero(dense_lu.matrix)
    for alpha in (0.0, 0.05, 0.7, 1.5):
        want = oracle.assemble(alpha, dense_lu, ld).matrix
        assert np.array_equal(assemble(lu, factor, unitary=alpha).matrix, want)
        weak = assemble(lu, factor, dissipator=alpha).matrix
        assert np.array_equal(weak, oracle.assemble(alpha, ld, dense_lu).matrix)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("num_sites", [2, 3, 4, 5, 6])
def test_factor_route_keeps_the_bits_of_the_dense_route(num_sites):
    # a generator written from the factor equals, signed zeros included, a
    # copy of the dense L_D (or beta times it) with L_U added at its entries
    basis = PauliBasis(num_sites)
    k = sample_kossakowski(num_sites, 2, seed=90 + num_sites)
    lu = build_unitary_part(sample_random_hamiltonian(num_sites, seed=95 + num_sites), basis)
    jumps = jump_operator_set(num_sites, 2)
    factor = dissipator_factor(k, jumps, basis)
    dense = build_dissipator(k, jumps, basis).matrix
    for alpha in (0.0, 0.1, -0.3):
        want = dense.copy()
        want[lu.rows, lu.cols] += alpha * lu.values
        assert _same_bits(assemble(lu, factor, unitary=alpha).matrix, want)
    for beta in (0.05, -0.2):
        want = np.multiply(beta, dense)
        want[lu.rows, lu.cols] += lu.values
        assert _same_bits(assemble(lu, factor, dissipator=beta).matrix, want)


def test_assemble_rejects_mismatched_parts():
    k = sample_kossakowski(2, 2, seed=8)
    h = sample_random_hamiltonian(3, seed=9)
    ld = dissipator_factor(k, jump_operator_set(2, 2), PauliBasis(2))
    lu = build_unitary_part(h, PauliBasis(3))
    with pytest.raises(ValueError):
        assemble(lu, ld, unitary=1.0)  # 3 sites against 2
    with pytest.raises(ValueError):
        assemble(lu, ld, dissipator=1.0)


# ---------------------------------------------------------------- closed form


def test_lambda0_values():
    assert lambda0_fraction(1, 6) == Fraction(-64, 153)
    assert lambda0_fraction(4, 6) == Fraction(-160, 153)
    assert lambda0_fraction(5, 6) == Fraction(-160, 153)
    assert lambda0_fraction(3, 6) == lambda0_fraction(6, 6) == Fraction(-144, 153)
    assert lambda0(0, 4) == 0.0
    assert lambda0(1, 6) == pytest.approx(-0.41830, abs=5e-6)
    with pytest.raises(ValueError):
        lambda0(5, 4)
    with pytest.raises(ValueError):
        lambda0(-1, 4)
    assert lambda0_fraction(1, 3, k_max=1) == Fraction(-4, 9)


# ---------------------------------------------------------------- pauli basis


def test_string_basis_matrix_is_unitary():
    for num_sites in (1, 2, 3):
        b = string_basis_matrix(PauliBasis(num_sites))
        dim = 4**num_sites
        assert np.abs((b.conj().T @ b).toarray() - np.eye(dim)).max() < 1e-12


def test_pauli_form_of_identity_superoperator():
    dim = 4**2
    ident = Superoperator(2, np.eye(dim, dtype=complex))
    form = pauli_basis_form(ident, PauliBasis(2))
    assert np.abs(form.matrix - np.eye(dim)).max() < 1e-12


def test_pauli_form_preserves_spectrum():
    for num_sites in (2, 3, 4):
        k = sample_kossakowski(num_sites, 2, seed=10)
        h = sample_random_hamiltonian(num_sites, seed=11)
        full = oracle.assemble(
            0.7,
            oracle.build_unitary_part(h),
            oracle.build_dissipator(k, jump_operator_set(num_sites, 2)),
        )
        form = pauli_basis_form(full, PauliBasis(num_sites))
        a = np.linalg.eigvals(full.matrix)
        b = np.linalg.eigvals(form.matrix)
        assert pairing_distance(a, b) < 1e-8


def test_full_spectrum_closed_under_conjugation():
    k = sample_kossakowski(3, 2, seed=12)
    h = sample_random_hamiltonian(3, seed=13)
    basis = PauliBasis(3)
    full = assemble(build_unitary_part(h, basis),
                    dissipator_factor(k, jump_operator_set(3, 2), basis), unitary=0.5)
    eigs = np.linalg.eigvals(full.matrix)
    assert pairing_distance(eigs, eigs.conj()) < 1e-8


def test_real_pauli_form_and_unitary_antisymmetry():
    h = sample_random_hamiltonian(3, seed=14)
    lup = pauli_basis_form(oracle.build_unitary_part(h), PauliBasis(3))
    m = real_pauli_form(lup)
    assert m.dtype == np.float64
    assert np.abs(m + m.T).max() < 1e-10

    k = sample_kossakowski(3, 2, seed=15)
    ldp = pauli_basis_form(oracle.build_dissipator(k, jump_operator_set(3, 2)), PauliBasis(3))
    real_pauli_form(ldp)  # no drift for Hermitian-jump generators

    poisoned = Superoperator(2, 1j * np.eye(16))
    with pytest.raises(NumericalError):
        real_pauli_form(poisoned)


def test_pauli_trace_violation_uses_identity_row():
    k = sample_kossakowski(2, 2, seed=16)
    form = build_dissipator(k, jump_operator_set(2, 2), PauliBasis(2))
    assert form.trace_violation() < 1e-10
    oracle_form = pauli_basis_form(oracle.build_dissipator(k, jump_operator_set(2, 2)), PauliBasis(2))
    assert oracle_form.trace_violation() < 1e-10


# ---------------------------------------------------------------- commutator generator


def h_count(k: int, k_prime: int, num_sites: int) -> int:
    if k_prime == k + 1:
        return 6 * k * (num_sites - k)
    if k_prime == k - 1:
        return 2 * k * (k - 1)
    return 0


@pytest.mark.parametrize("num_sites", [3, 4])
def test_unitary_pauli_matrix_matches_dense_route(num_sites):
    h = sample_random_hamiltonian(num_sites, seed=17)
    basis = PauliBasis(num_sites)
    sparse = unitary_pauli_matrix(h, basis).toarray()
    assert np.array_equal(sparse, build_unitary_part(h, basis).toarray())
    dense = pauli_basis_form(oracle.build_unitary_part(h), basis).matrix
    assert np.abs(sparse - dense).max() < 1e-13


def test_unitary_pauli_matrix_weight_adjacency_exact():
    for h in (sample_random_hamiltonian(4, seed=18), heisenberg_hamiltonian(4)):
        basis = PauliBasis(4)
        m = unitary_pauli_matrix(h, basis)
        wr = basis.weight_array[m.rows]
        wc = basis.weight_array[m.cols]
        assert np.all(np.abs(wr - wc) == 1)


def test_unitary_pauli_matrix_row_counts_and_entries():
    num_sites = 4
    h = sample_random_hamiltonian(num_sites, seed=19)
    basis = PauliBasis(num_sites)
    m = unitary_pauli_matrix(h, basis)
    per_column = np.bincount(m.cols, minlength=len(basis))
    for y, s in enumerate(basis):
        k = s.weight
        expected = h_count(k, k + 1, num_sites) + h_count(k, k - 1, num_sites)
        assert per_column[y] == expected
    # no (row, column) pair repeats
    assert np.unique(m.rows * len(basis) + m.cols).size == m.values.size
    # every entry is +-2J for some coupling
    allowed = np.sort(np.concatenate([[2 * j, -2 * j] for j in h.coefficients.values()]))
    vals = m.values
    pos = np.searchsorted(allowed, vals)
    pos = np.clip(pos, 0, len(allowed) - 1)
    near = np.minimum(
        np.abs(allowed[pos] - vals), np.abs(allowed[np.maximum(pos - 1, 0)] - vals)
    )
    assert near.max() < 1e-15


def test_unitary_pauli_matrix_k2_row_counts_at_six_sites():
    h = sample_random_hamiltonian(6, seed=20)
    basis = PauliBasis(6)
    m = unitary_pauli_matrix(h, basis)
    assert m.values.size == 276480
    sec = basis.sector(2)
    up = h_count(2, 3, 6)
    down = h_count(2, 1, 6)
    assert (up, down) == (48, 4)
    wr = basis.weight_array
    order = np.argsort(m.cols, kind="stable")
    starts = np.searchsorted(m.cols[order], np.arange(len(basis) + 1))
    for y in range(sec.start, sec.stop):
        col = m.rows[order[starts[y] : starts[y + 1]]]
        assert np.count_nonzero(wr[col] == 3) == up
        assert np.count_nonzero(wr[col] == 1) == down


def test_unitary_pauli_matrix_truncated_basis_window():
    # with a truncated basis the out-of-window images simply drop out
    h = sample_random_hamiltonian(3, seed=21)
    basis = PauliBasis(3, max_weight=2)
    m = unitary_pauli_matrix(h, basis)
    assert m.dim == len(basis)
    full = unitary_pauli_matrix(h, PauliBasis(3)).toarray()
    assert np.abs(m.toarray() - full[: len(basis), : len(basis)]).max() < 1e-14


# ---------------------------------------------------------------- against the oracle


def _k_max_cases():
    return [(n, k_max) for n in (2, 3, 4, 5) for k_max in range(1, min(n, 3) + 1)]


@pytest.mark.parametrize("num_sites,k_max", _k_max_cases())
def test_dissipator_matches_kronecker_oracle(num_sites, k_max):
    basis = PauliBasis(num_sites)
    jumps = jump_operator_set(num_sites, k_max)
    k = sample_kossakowski(num_sites, k_max, seed=40 + num_sites)
    direct = build_dissipator(k, jumps, basis)
    assert direct.matrix.dtype == np.float64
    want = oracle.real_pauli(oracle.build_dissipator(k, jumps), basis)
    assert np.abs(direct.matrix - want).max() < 1e-13


@pytest.mark.parametrize("num_sites", [2, 3, 4, 5])
def test_unitary_part_matches_kronecker_oracle(num_sites):
    basis = PauliBasis(num_sites)
    models = [sample_random_hamiltonian(num_sites, seed=50 + num_sites)]
    if num_sites > 2:
        models.append(heisenberg_hamiltonian(num_sites))
    for h in models:
        want = oracle.real_pauli(oracle.build_unitary_part(h), basis)
        direct = build_unitary_part(h, basis)
        assert np.abs(direct.toarray() - want).max() < 1e-13
        assert np.abs(unitary_pauli_matrix(h, basis).toarray() - want).max() < 1e-13


@pytest.mark.parametrize("num_sites,lo,hi", [(3, 1, 2), (4, 0, 2), (5, 2, 4), (5, 1, 3)])
def test_unitary_pauli_matrix_weight_window_matches_oracle(num_sites, lo, hi):
    # a weight window is a contiguous slice of the full weight-major basis
    full = PauliBasis(num_sites)
    window = slice(full.sector(lo).start, full.sector(hi).stop)
    for h in (sample_random_hamiltonian(num_sites, seed=60), heisenberg_hamiltonian(num_sites)):
        want = oracle.real_pauli(oracle.build_unitary_part(h), full)[window, window]
        got = unitary_pauli_matrix(h, PauliBasis(num_sites, max_weight=hi, min_weight=lo))
        assert np.abs(got.toarray() - want).max() < 1e-13
