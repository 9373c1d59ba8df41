"""Tests for the closed-form perturbative predictions.

The frozen rational values were derived by hand from the coupling counts
h(k, k+1) = 6k(l-k), h(k, k-1) = 2k(k-1) and the exact cluster centers;
the closed form used as the independent oracle below follows from the
same ingredients through a different algebraic reduction.  The exact shift
of one Hamiltonian, the degenerate weight groups and the first-order
splitting block, which no run reports, are references in ``oracle.py``.
"""

from fractions import Fraction

import numpy as np
import pytest

from klindblad.ensemble import sample_random_hamiltonian, substream
from klindblad.errors import DegenerateWeightError
from klindblad.pauli import PauliBasis, sector_dimension
from klindblad.perturbation import h_count, predict, second_order_mean_fraction
from klindblad.liouvillian import lambda0_fraction

from conftest import pairing_distance
from oracle import (
    consecutive_degenerate_pair,
    degenerate_groups,
    first_order_block,
    second_order_exact,
)


# --- coupling counts --------------------------------------------------------


def brute_force_h_count(k: int, k_prime: int, num_sites: int) -> int:
    """Count adjacent-sector couplings by enumerating commutators.

    For one representative weight-k string, count the weight-2 (term,
    letter) choices that anticommute with it, so that the commutator
    survives, and whose product string (the bitwise xor) lands in sector
    k_prime.  Checks every weight-k string to confirm the count is
    string-independent.
    """
    from itertools import combinations, product

    from klindblad.pauli import PauliString, anticommutes, enumerate_basis

    counts = set()
    for s in enumerate_basis(num_sites, max_weight=k, min_weight=k):
        n = 0
        for sites in combinations(range(num_sites), 2):
            for letters in product("XYZ", repeat=2):
                term = PauliString.from_site_letters(num_sites, list(zip(sites, letters)))
                product_string = PauliString(
                    num_sites, term.x_bits ^ s.x_bits, term.z_bits ^ s.z_bits)
                if (anticommutes(term.x_bits, term.z_bits, s.x_bits, s.z_bits)
                        and product_string.weight == k_prime):
                    n += 1
        counts.add(n)
    assert len(counts) == 1, f"count varies across weight-{k} strings: {counts}"
    return counts.pop()


def test_h_count_closed_forms():
    assert h_count(1, 2, 6) == 30
    assert h_count(2, 3, 6) == 48
    assert h_count(2, 1, 6) == 4
    assert h_count(3, 2, 6) == 12
    assert h_count(1, 0, 5) == 0
    assert h_count(0, 1, 5) == 0


def test_h_count_matches_brute_force_enumeration():
    num_sites = 4
    for k in range(num_sites):
        assert h_count(k, k + 1, num_sites) == brute_force_h_count(k, k + 1, num_sites)
    for k in range(1, num_sites + 1):
        assert h_count(k, k - 1, num_sites) == brute_force_h_count(k, k - 1, num_sites)


def test_h_count_rejects_non_adjacent_sectors():
    with pytest.raises(ValueError):
        h_count(2, 2, 6)
    with pytest.raises(ValueError):
        h_count(1, 3, 6)
    with pytest.raises(ValueError):
        h_count(5, 7, 6)


# --- averaged second-order shifts -------------------------------------------


def closed_form_shift(k: int, num_sites: int) -> Fraction:
    """Independent reduction of the Gaussian-averaged shift.

    8/(9 l (l-1)) * [h(k,k+1)/gap_up + h(k,k-1)/gap_down] collapses to
    2k(3l-1)/(3(l-1)) * [(k-1)/(3l-4k+2) - 3(l-k)/(3l-4k-2)].
    """
    l = num_sites
    lead = Fraction(2 * k * (3 * l - 1), 3 * (l - 1))
    down = Fraction(k - 1, 3 * l - 4 * k + 2) if k >= 1 else Fraction(0)
    up = Fraction(3 * (l - k), 3 * l - 4 * k - 2)
    return lead * (down - up)


def test_frozen_shift_values():
    assert second_order_mean_fraction(1, 6) == Fraction(-17, 6)
    assert second_order_mean_fraction(2, 6) == Fraction(-289, 45)
    assert second_order_mean_fraction(1, 5) == Fraction(-28, 9)
    assert second_order_mean_fraction(2, 5) == Fraction(-1064, 135)
    assert float(second_order_mean_fraction(1, 6)) == pytest.approx(-2.83333333, abs=1e-8)
    assert float(second_order_mean_fraction(2, 6)) == pytest.approx(-6.42222222, abs=1e-8)


def test_shift_matches_independent_closed_form():
    for num_sites in list(range(3, 31)) + [100, 200]:
        for k in range(1, num_sites + 1):
            if (3 * num_sites - 2) % 4 == 0 and k in (
                (3 * num_sites - 2) // 4,
                (3 * num_sites + 2) // 4,
            ):
                continue
            assert second_order_mean_fraction(k, num_sites) == closed_form_shift(
                k, num_sites
            ), (k, num_sites)


def test_fixed_weight_shift_approaches_minus_two_k():
    """The averaged shift tends to -2k as the chain grows, k fixed.

    The correction is O(1/l): the exact value is -2k(3l-1)/(3(l-2)) at
    k = 1, so 5% of the limit is already reached by l = 200.
    """
    for k in (1, 2, 3):
        value = float(second_order_mean_fraction(k, 200))
        assert abs(value + 2.0 * k) < 0.05 * 2.0 * k
    exact = [float(second_order_mean_fraction(1, l)) for l in (50, 100, 200)]
    gaps = [abs(v + 2.0) for v in exact]
    assert gaps[0] > gaps[1] > gaps[2]


def test_shift_refuses_degenerate_neighbors():
    for k in (4, 5):
        with pytest.raises(DegenerateWeightError):
            second_order_mean_fraction(k, 6)
    for k in (1, 2):
        with pytest.raises(DegenerateWeightError):
            second_order_mean_fraction(k, 2)
    # the l=6 {3,6} degeneracy is non-adjacent, so these still evaluate
    second_order_mean_fraction(3, 6)
    second_order_mean_fraction(6, 6)


def test_predicted_center_combines_pieces():
    alpha = 0.1
    expected = -64.0 / 153.0 + (-17.0 / 6.0) * alpha**2
    assert predict(6).center(1, alpha) == pytest.approx(expected, abs=1e-12)
    assert predict(6).center(1, 0.0) == pytest.approx(-64.0 / 153.0, abs=1e-15)


# --- exact second order for one Hamiltonian ---------------------------------


def test_exact_shift_is_deterministic_under_exact_normalization():
    """With sum J^2 = 1 the single-draw shift equals the Gaussian mean.

    Every coupling appears with the same multiplicity in each adjacent
    block, so the exact sum collapses to the averaged formula times
    sum J^2; exact normalization removes the only randomness.
    """
    basis = PauliBasis(5, max_weight=3)
    for seed in (3, 11):
        h = sample_random_hamiltonian(5, seed=seed, exact_norm=True)
        for k in (1, 2):
            got = second_order_exact(k, h, basis)
            want = float(second_order_mean_fraction(k, 5))
            assert got == pytest.approx(want, abs=1e-10), (seed, k)


def test_exact_shift_scales_with_squared_coupling_sum():
    h = sample_random_hamiltonian(5, seed=7)
    basis = PauliBasis(5, max_weight=2)
    got = second_order_exact(1, h, basis)
    want = float(second_order_mean_fraction(1, 5)) * sum(j * j for j in h.coefficients.values())
    assert got == pytest.approx(want, rel=1e-10)


def test_exact_shift_monte_carlo_mean():
    """Gaussian-averaged formula against 200 independent draws at l=5."""
    basis = PauliBasis(5, max_weight=3)
    draws = {1: [], 2: []}
    for r in range(200):
        h = sample_random_hamiltonian(5, rng=substream(1234, r, 1))
        for k in (1, 2):
            draws[k].append(second_order_exact(k, h, basis))
    for k in (1, 2):
        values = np.array(draws[k])
        want = float(second_order_mean_fraction(k, 5))
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean() - want) < 3.0 * se, (k, values.mean(), want, se)


def test_exact_shift_requires_covering_basis():
    h = sample_random_hamiltonian(5, seed=1)
    with pytest.raises(ValueError):
        second_order_exact(2, h, PauliBasis(5, max_weight=2))
    with pytest.raises(ValueError):
        second_order_exact(1, h, PauliBasis(5, max_weight=3, min_weight=1))


def test_exact_shift_refuses_degenerate_adjacent_pair():
    h = sample_random_hamiltonian(6, seed=1)
    basis = PauliBasis(6, max_weight=5, min_weight=3)
    with pytest.raises(DegenerateWeightError):
        second_order_exact(4, h, basis)


# --- degeneracy structure ---------------------------------------------------


def test_degenerate_groups_partition_weights():
    for num_sites in range(2, 41):
        groups = degenerate_groups(num_sites)
        seen = sorted(w for g in groups for w in g.weights)
        assert seen == list(range(num_sites + 1))
        for g in groups:
            for w in g.weights:
                assert lambda0_fraction(w, num_sites) == g.center
        mins = [g.weights[0] for g in groups]
        assert mins == sorted(mins)


def test_degenerate_pairs_sum_to_three_halves_sites():
    """lambda0(k) = lambda0(k') exactly when k + k' = 3l/2."""
    for num_sites in range(2, 41):
        for g in degenerate_groups(num_sites):
            if len(g.weights) == 1:
                continue
            assert len(g.weights) == 2
            a, b = g.weights
            assert 2 * (a + b) == 3 * num_sites


def test_specific_group_structures():
    l6 = degenerate_groups(6)
    assert [g.weights for g in l6] == [(0,), (1,), (2,), (3, 6), (4, 5)]
    assert consecutive_degenerate_pair(6) == (4, 5)  # (3, 6) is not adjacent

    l4 = degenerate_groups(4)
    assert [g.weights for g in l4] == [(0,), (1,), (2, 4), (3,)]
    assert l4[2].center == Fraction(-32, 33)

    assert all(len(g.weights) == 1 for g in degenerate_groups(5))


def test_consecutive_pair_formula():
    """An adjacent degenerate pair exists exactly for l = 2 (mod 4)."""
    for num_sites in range(2, 27):
        pair = consecutive_degenerate_pair(num_sites)
        if num_sites % 4 == 2:
            k = (3 * num_sites - 2) // 4
            assert pair == (k, k + 1), num_sites
        else:
            assert pair is None, num_sites
    assert consecutive_degenerate_pair(6) == (4, 5)
    assert consecutive_degenerate_pair(10) == (7, 8)


# --- first-order splitting block --------------------------------------------


def test_first_order_block_small_chain():
    """The l=2 pair (1, 2) gives a 15x15 antisymmetric block."""
    h = sample_random_hamiltonian(2, seed=5)
    block = first_order_block(h, 1, 2, PauliBasis(2))
    assert block.k_low == 1 and block.k_high == 2
    assert block.dim == sector_dimension(2, 1) + sector_dimension(2, 2) == 15
    assert np.array_equal(block.matrix, -block.matrix.T)

    direct = np.linalg.eigvals(block.matrix)
    assert pairing_distance(direct, block.eigenvalues) < 1e-10
    assert abs(np.mean(np.abs(direct) ** 2) - block.mean_square_modulus) < 1e-10


def test_first_order_block_trace_identity():
    """mean |eig|^2 equals sum |M_ij|^2 / dim for the antisymmetric block."""
    h = sample_random_hamiltonian(6, seed=9)
    block = first_order_block(h, 4, 5, PauliBasis(6, max_weight=5, min_weight=4))
    frobenius = float(np.sum(block.matrix**2))
    assert block.mean_square_modulus == pytest.approx(frobenius / block.dim, rel=1e-12)
    assert block.dim == 1215 + 1458
    assert np.all(block.singular_values >= 0.0)


def test_first_order_block_argument_checks():
    h = sample_random_hamiltonian(4, seed=1)
    with pytest.raises(ValueError):
        first_order_block(h, 2, 4, PauliBasis(4))
    with pytest.raises(ValueError):
        first_order_block(h, 1, 2, PauliBasis(4, max_weight=1))


# --- bundled prediction -----------------------------------------------------


def test_predict_bundle_consistency():
    pred = predict(6)
    assert pred.num_sites == 6
    assert pred.lambda0_values == tuple(lambda0_fraction(k, 6) for k in range(7))
    assert pred.h_up == (0, 30, 48, 54, 48, 30, 0)
    assert pred.h_down == (0, 0, 4, 12, 24, 40, 60)
    for k in (0, 1, 2, 3, 6):
        assert pred.lambda2_means[k] == second_order_mean_fraction(k, 6)
    assert pred.lambda2_means[4] is None
    assert pred.lambda2_means[5] is None

    alpha = 0.2
    want = float(lambda0_fraction(1, 6)) + float(second_order_mean_fraction(1, 6)) * alpha**2
    assert pred.center(1, alpha) == pytest.approx(want)
    with pytest.raises(DegenerateWeightError):
        pred.center(4, alpha)


def test_predict_no_degenerate_refusals_at_five_sites():
    pred = predict(5)
    assert all(s is not None for s in pred.lambda2_means)
    assert pred.h_up == (0, 24, 36, 36, 24, 0)
