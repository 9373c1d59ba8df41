"""Algebra checks for the symplectic Pauli layer against dense matrices.

The oracle here is deliberately dumb: build every string by repeated
Kronecker products of 2x2 literals and compare exactly.  None of the bit
tricks under test are reused on the oracle side.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klindblad.errors import ResourceLimitError
from klindblad.pauli import (
    PauliBasis,
    PauliString,
    PhasedPauli,
    commutator,
    commutes,
    enumerate_basis,
    multiply,
    sector_dimension,
    to_dense,
)

SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(label: str) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(out, SIGMA[ch])
    return out


def random_string(rng: np.random.Generator, num_sites: int) -> PauliString:
    top = 1 << num_sites
    return PauliString(num_sites, int(rng.integers(top)), int(rng.integers(top)))


# ---------------------------------------------------------------- encoding


def test_label_round_trip():
    for label in ("I", "X", "XIZ", "YYXZ", "IIIII"):
        assert PauliString.from_label(label).to_label() == label


def test_site_zero_is_most_significant_bit():
    p = PauliString.from_label("XI")
    assert (p.x_bits, p.z_bits) == (2, 0)
    q = PauliString.from_label("IZ")
    assert (q.x_bits, q.z_bits) == (0, 1)
    assert PauliString.from_label("YI").to_label()[0] == "Y"


def test_from_site_letters_matches_label():
    p = PauliString.from_site_letters(4, [(1, "X"), (3, "Z")])
    assert p.to_label() == "IXIZ"
    with pytest.raises(ValueError):
        PauliString.from_site_letters(4, [(1, "X"), (1, "Y")])


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        PauliString.from_label("XQ")
    with pytest.raises(ValueError):
        PauliString.from_label("")
    with pytest.raises(ValueError):
        PauliString(2, 4, 0)  # x bit beyond the register
    with pytest.raises(ValueError):
        PhasedPauli(PauliString.from_label("X"), 0.5)


def test_weight_counts_non_identity_sites():
    assert PauliString.from_label("IXIZ").weight == 2
    assert PauliString.identity(5).weight == 0
    assert PauliString.from_label("YYY").weight == 3


def test_dense_matches_kron_oracle_exhaustively():
    # every string on 1..3 sites, exact equality entry by entry
    for n in (1, 2, 3):
        for p in enumerate_basis(n):
            assert np.array_equal(to_dense(p), kron_oracle(p.to_label()))


def test_dense_guardrail():
    big = PauliString(11, 1, 0)
    with pytest.raises(ResourceLimitError):
        to_dense(big)


def test_index_table_guardrail():
    # the table has 4^l entries for any window: 8 MiB at 10 sites
    assert len(PauliBasis(10, max_weight=1)) == 31
    with pytest.raises(ResourceLimitError):
        PauliBasis(11, max_weight=1, min_weight=1)


# ---------------------------------------------------------------- products


def test_single_site_multiplication_table():
    """XY = iZ and cyclic friends, the usual sign conventions."""
    cases = {
        ("X", "Y"): (1j, "Z"),
        ("Y", "Z"): (1j, "X"),
        ("Z", "X"): (1j, "Y"),
        ("Y", "X"): (-1j, "Z"),
        ("Z", "Y"): (-1j, "X"),
        ("X", "Z"): (-1j, "Y"),
        ("X", "X"): (1, "I"),
        ("Y", "Y"): (1, "I"),
        ("Z", "Z"): (1, "I"),
        ("I", "Y"): (1, "Y"),
    }
    for (a, b), (phase, res) in cases.items():
        got = multiply(PauliString.from_label(a), PauliString.from_label(b))
        assert got.string.to_label() == res
        assert got.phase == phase


@pytest.mark.parametrize("num_sites", [1, 2, 3])
def test_multiply_exhaustive_vs_dense(num_sites):
    strings = enumerate_basis(num_sites)
    for p in strings:
        dp = kron_oracle(p.to_label())
        for q in strings:
            got = multiply(p, q)
            want = dp @ kron_oracle(q.to_label())
            assert np.array_equal(got.phase * kron_oracle(got.string.to_label()), want)


@pytest.mark.parametrize("num_sites", [1, 2, 3])
def test_commutator_exhaustive_vs_dense(num_sites):
    strings = enumerate_basis(num_sites)
    for p in strings:
        dp = kron_oracle(p.to_label())
        for q in strings:
            dq = kron_oracle(q.to_label())
            want = dp @ dq - dq @ dp
            got = commutator(p, q)
            if got is None:
                assert commutes(p, q)
                assert np.count_nonzero(want) == 0
            else:
                assert not commutes(p, q)
                assert np.array_equal(2 * got.phase * kron_oracle(got.string.to_label()), want)


def test_basis_orthonormality_dense():
    # Tr(P^dag Q) = 2^n delta_pq over the complete two-site basis
    strings = enumerate_basis(2)
    mats = [kron_oracle(s.to_label()) for s in strings]
    gram = np.array([[np.trace(a.conj().T @ b) for b in mats] for a in mats])
    assert np.array_equal(gram, 4 * np.eye(len(strings)))


@given(st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_multiply_group_properties(num_sites, data):
    top = 1 << num_sites
    bits = st.integers(0, top - 1)
    p = PauliString(num_sites, data.draw(bits), data.draw(bits))
    q = PauliString(num_sites, data.draw(bits), data.draw(bits))
    r = PauliString(num_sites, data.draw(bits), data.draw(bits))

    # self-inverse with no phase
    sq = multiply(p, p)
    assert sq.string == PauliString.identity(num_sites) and sq.phase == 1

    # associativity including the accumulated scalar
    pq = multiply(p, q)
    left = multiply(pq.string, r)
    qr = multiply(q, r)
    right = multiply(p, qr.string)
    assert left.string == right.string
    assert pq.phase * left.phase == qr.phase * right.phase


@given(st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_commutator_antisymmetry(num_sites, data):
    top = 1 << num_sites
    bits = st.integers(0, top - 1)
    p = PauliString(num_sites, data.draw(bits), data.draw(bits))
    q = PauliString(num_sites, data.draw(bits), data.draw(bits))
    ab = commutator(p, q)
    ba = commutator(q, p)
    if ab is None:
        assert ba is None
    else:
        assert ba is not None
        assert ab.string == ba.string
        assert ab.phase == -ba.phase


def test_cross_register_operations_rejected():
    with pytest.raises(ValueError):
        multiply(PauliString.from_label("X"), PauliString.from_label("XX"))
    with pytest.raises(ValueError):
        commutes(PauliString.from_label("X"), PauliString.from_label("XX"))


# ---------------------------------------------------------------- enumeration


def test_sector_dimension_closed_form():
    assert sector_dimension(6, 0) == 1
    assert sector_dimension(6, 1) == 18
    assert sector_dimension(6, 2) == 135
    assert sector_dimension(4, 4) == 81
    with pytest.raises(ValueError):
        sector_dimension(4, 5)


def test_enumeration_order_contract():
    """Weight-major, sites lexicographic, letters X < Y < Z."""
    labels = [s.to_label() for s in enumerate_basis(2)]
    assert labels == [
        "II",
        "XI", "YI", "ZI", "IX", "IY", "IZ",
        "XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ",
    ]


def test_enumeration_counts_and_windows():
    assert len(enumerate_basis(4)) == 256
    assert len(enumerate_basis(4, max_weight=2)) == 1 + 12 + 54
    assert len(enumerate_basis(4, max_weight=2, min_weight=1)) == 66
    with pytest.raises(ValueError):
        enumerate_basis(3, max_weight=4)
    with pytest.raises(ValueError):
        enumerate_basis(3, max_weight=1, min_weight=2)


def test_basis_indexing_and_sectors():
    basis = PauliBasis(3)
    assert len(basis) == 64
    for i, s in enumerate(basis):
        assert basis.index_of(s) == i
        assert basis[i] == s
    sec = basis.sector(2)
    assert sec.stop - sec.start == sector_dimension(3, 2)
    assert all(basis[i].weight == 2 for i in range(sec.start, sec.stop))
    assert np.array_equal(basis.weight_array[sec], np.full(27, 2))
    assert list(basis.weights()) == [0, 1, 2, 3]


def test_basis_membership_and_errors():
    basis = PauliBasis(3, max_weight=2)
    inside = PauliString.from_label("XXI")
    outside = PauliString.from_label("XXX")
    assert inside in basis
    assert outside not in basis
    with pytest.raises(KeyError):
        basis.index_of(outside)
    with pytest.raises(ValueError):
        basis.sector(3)


def test_vectorized_lookup_agrees_with_index_of():
    rng = np.random.default_rng(7)
    strings = [random_string(rng, 5) for _ in range(300)]
    xs = np.array([s.x_bits for s in strings], dtype=np.uint64)
    zs = np.array([s.z_bits for s in strings], dtype=np.uint64)
    # a weight window and the complete basis read the same table
    for basis in (PauliBasis(5, max_weight=2), PauliBasis(5)):
        got = basis.lookup(xs, zs)
        assert got.dtype == np.int64
        for s, idx in zip(strings, got):
            if s in basis:
                assert idx == basis.index_of(s)
            else:
                assert idx == -1


def test_bit_arrays_are_frozen():
    basis = PauliBasis(2)
    with pytest.raises(ValueError):
        basis.x_array[0] = 1
