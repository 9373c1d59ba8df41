"""Algebra checks for the symplectic Pauli layer against dense matrices.

The oracle here is deliberately dumb: build every string by repeated
Kronecker products of 2x2 literals and compare exactly.  None of the bit
tricks under test are reused on the oracle side.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klindblad.errors import ResourceLimitError
from klindblad.pauli import (
    KEY,
    PHASES,
    PauliBasis,
    PauliString,
    anticommutes,
    sector_dimension,
    to_dense,
)
from oracle import enumerate_basis, from_label, lookup, product_exponent, strings

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


@lru_cache
def complete_basis(num_sites: int) -> PauliBasis:
    return PauliBasis(num_sites)


@lru_cache
def complete_strings(num_sites: int) -> list[PauliString]:
    return strings(complete_basis(num_sites))


def times(p: PauliString, q: PauliString) -> tuple[complex, PauliString]:
    """(phase, string) with dense(p) @ dense(q) == phase * dense(string), by
    ``PauliBasis.product`` on one-element key arrays."""
    basis = complete_basis(p.num_sites)
    row, exponent = basis.product(np.array([p.key]), q.key)
    return complex(PHASES[exponent[0]]), complete_strings(p.num_sites)[row[0]]


def anticommute(p: PauliString, q: PauliString) -> bool:
    return bool(anticommutes(np.array([p.key]), q.key, p.num_sites)[0])


# ---------------------------------------------------------------- encoding


def test_label_round_trip():
    for label in ("I", "X", "XIZ", "YYXZ", "IIIII"):
        assert from_label(label).to_label() == label


def test_site_zero_is_most_significant_bit():
    p = from_label("XI")
    assert (p.x_bits, p.z_bits) == (2, 0)
    q = from_label("IZ")
    assert (q.x_bits, q.z_bits) == (0, 1)
    assert from_label("YI").to_label()[0] == "Y"


def test_from_site_letters_matches_label():
    p = PauliString.from_site_letters(4, [(1, "X"), (3, "Z")])
    assert p.to_label() == "IXIZ"
    with pytest.raises(ValueError):
        PauliString.from_site_letters(4, [(1, "X"), (1, "Y")])


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        from_label("XQ")
    with pytest.raises(ValueError):
        from_label("")
    with pytest.raises(ValueError):
        PauliString(2, 4, 0)  # x bit beyond the register


def test_weight_counts_non_identity_sites():
    assert from_label("IXIZ").weight == 2
    assert PauliString(5, 0, 0).weight == 0
    assert from_label("YYY").weight == 3


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
        got_phase, got = times(from_label(a), from_label(b))
        assert got.to_label() == res
        assert got_phase == phase


@pytest.mark.parametrize("num_sites", [1, 2, 3])
def test_multiply_exhaustive_vs_dense(num_sites):
    strings = enumerate_basis(num_sites)
    for p in strings:
        dp = kron_oracle(p.to_label())
        for q in strings:
            phase, got = times(p, q)
            want = dp @ kron_oracle(q.to_label())
            assert np.array_equal(phase * kron_oracle(got.to_label()), want)


@pytest.mark.parametrize("num_sites", [1, 2, 3])
def test_commutator_exhaustive_vs_dense(num_sites):
    strings = enumerate_basis(num_sites)
    for p in strings:
        dp = kron_oracle(p.to_label())
        for q in strings:
            dq = kron_oracle(q.to_label())
            want = dp @ dq - dq @ dp
            if anticommute(p, q):
                phase, got = times(p, q)
                assert np.array_equal(2 * phase * kron_oracle(got.to_label()), want)
            else:
                assert np.count_nonzero(want) == 0


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
    assert times(p, p) == (1, PauliString(num_sites, 0, 0))

    # associativity including the accumulated scalar
    pq_phase, pq = times(p, q)
    left_phase, left = times(pq, r)
    qr_phase, qr = times(q, r)
    right_phase, right = times(p, qr)
    assert left == right
    assert pq_phase * left_phase == qr_phase * right_phase


@given(st.integers(1, 6), st.data())
@settings(max_examples=200, deadline=None)
def test_commutator_antisymmetry(num_sites, data):
    top = 1 << num_sites
    bits = st.integers(0, top - 1)
    p = PauliString(num_sites, data.draw(bits), data.draw(bits))
    q = PauliString(num_sites, data.draw(bits), data.draw(bits))
    assert anticommute(p, q) == anticommute(q, p)
    if anticommute(p, q):
        pq_phase, pq = times(p, q)
        qp_phase, qp = times(q, p)
        assert pq == qp
        assert pq_phase == -qp_phase


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
    labels = [s.to_label() for s in strings(PauliBasis(2))]
    assert labels == [
        "II",
        "XI", "YI", "ZI", "IX", "IY", "IZ",
        "XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ",
    ]


def test_enumeration_counts_and_windows():
    assert len(PauliBasis(4)) == 256
    assert len(PauliBasis(4, max_weight=2)) == 1 + 12 + 54
    assert len(PauliBasis(4, max_weight=2, min_weight=1)) == 66
    with pytest.raises(ValueError):
        PauliBasis(3, max_weight=4)
    with pytest.raises(ValueError):
        PauliBasis(3, max_weight=1, min_weight=2)


@pytest.mark.parametrize("num_sites", range(1, 7))
def test_keys_follow_the_reference_order_in_every_window(num_sites):
    for max_weight in range(num_sites + 1):
        for min_weight in range(max_weight + 1):
            basis = PauliBasis(num_sites, max_weight, min_weight)
            listed = enumerate_basis(num_sites, max_weight, min_weight)
            assert basis.keys.tolist() == [s.key for s in listed]
            assert basis.weight_array.tolist() == [s.weight for s in listed]


@pytest.mark.parametrize("num_sites", [2, 3, 4])
def test_key_anticommutes_equals_bit_rule(num_sites):
    # every pair of strings: the parity of |x_a.z_b| + |z_a.x_b| over the
    # reference's uint64 bit arrays
    listed = enumerate_basis(num_sites)
    x = np.array([s.x_bits for s in listed], dtype=np.uint64)
    z = np.array([s.z_bits for s in listed], dtype=np.uint64)
    count = np.bitwise_count
    want = (count(x[:, None] & z) + count(z[:, None] & x)) & 1
    keys = PauliBasis(num_sites).keys
    assert np.array_equal(anticommutes(keys[:, None], keys, num_sites), want)


def test_basis_indexing_and_sectors():
    basis = PauliBasis(3)
    assert len(basis) == 64
    listed = strings(basis)
    assert listed == enumerate_basis(3)
    for i, s in enumerate(listed):
        assert basis.index_of(s) == i
    sec = basis.sector(2)
    assert sec.stop - sec.start == sector_dimension(3, 2)
    assert all(s.weight == 2 for s in listed[sec])
    assert np.array_equal(basis.weight_array[sec], np.full(27, 2))
    assert list(basis.weights()) == [0, 1, 2, 3]


def test_basis_membership_and_errors():
    basis = PauliBasis(3, max_weight=2)
    inside = from_label("XXI")
    outside = from_label("XXX")
    assert strings(basis)[basis.index_of(inside)] == inside
    with pytest.raises(KeyError):
        basis.index_of(outside)
    with pytest.raises(ValueError):
        basis.sector(3)


def test_vectorized_lookup_agrees_with_index_of():
    rng = np.random.default_rng(7)
    strings = [random_string(rng, 5) for _ in range(300)]
    xs = np.array([s.x_bits for s in strings], dtype=np.uint64)
    zs = np.array([s.z_bits for s in strings], dtype=np.uint64)
    keys = np.array([s.key for s in strings])
    # a weight window and the complete basis; the product with the identity
    # (key 0) reads the index table, and the reference searches the bits
    for basis in (PauliBasis(5, max_weight=2), PauliBasis(5)):
        got = basis.product(keys, 0)[0]
        assert got.dtype == np.int64
        assert np.array_equal(lookup(basis, xs, zs), got)
        for s, idx in zip(strings, got):
            if s.weight <= basis.max_weight:
                assert idx == basis.index_of(s)
            else:
                assert idx == -1


@pytest.mark.parametrize("num_sites", [2, 3, 4])
def test_key_product_equals_lookup_and_product_exponent(num_sites):
    # every (c, b) pair of strings: the key tables give the row and the
    # exponent of the uint64 bit-array rule, in the complete basis and in a
    # window
    full = PauliBasis(num_sites)
    listed = enumerate_basis(num_sites)
    x = np.array([s.x_bits for s in listed], dtype=np.uint64)
    z = np.array([s.z_bits for s in listed], dtype=np.uint64)
    assert full.keys.dtype == KEY
    assert np.array_equal(full.keys, (x << np.uint64(num_sites)) | z)
    assert [s.key for s in listed] == full.keys.tolist()
    want = product_exponent(x[:, None], z[:, None], x, z)
    for basis in (full, PauliBasis(num_sites, max_weight=2, min_weight=1)):
        rows, exponent = basis.product(full.keys[:, None], full.keys)
        assert rows.shape == exponent.shape == (4**num_sites, 4**num_sites)
        assert np.array_equal(rows, lookup(basis, x[:, None] ^ x, z[:, None] ^ z))
        assert exponent.dtype == KEY and np.array_equal(exponent, want)


def test_bit_arrays_are_frozen():
    basis = PauliBasis(2)
    with pytest.raises(ValueError):
        basis.weight_array[0] = 1
    with pytest.raises(ValueError):
        basis.keys[0] = 1
