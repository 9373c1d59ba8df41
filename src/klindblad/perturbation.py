"""Perturbative predictions for the strongly dissipative spectrum.

With the mean-diagonal dissipator as the unperturbed generator, each Pauli
string is an eigenmode with eigenvalue lambda0(weight).  The commutator
generator couples only adjacent weight sectors, so standard perturbation
theory in the coupling strength gives closed-form cluster shifts at second
order, and a purely imaginary first-order splitting when two adjacent
sectors happen to share a lambda0.

All degeneracy decisions use exact rational arithmetic; a vanishing
denominator raises instead of silently producing garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .ensemble import HamiltonianSpec
from .errors import DegenerateWeightError
from .liouvillian import lambda0_fraction, unitary_pauli_matrix
from .pauli import PauliBasis, sector_dimension

__all__ = [
    "h_count",
    "second_order_mean_fraction",
    "second_order_exact",
    "WeightGroup",
    "degenerate_groups",
    "consecutive_degenerate_pair",
    "FirstOrderBlock",
    "first_order_block",
    "PerturbationPrediction",
    "predict",
]


def h_count(k: int, k_prime: int, num_sites: int) -> int:
    """Couplings from a weight-k string into the adjacent sector k_prime.

    Every weight-2 Hamiltonian term either grows the string by one site,
    6k(l - k) ways up, or acts inside its support, 2k(k - 1) ways down.
    """
    if not (0 <= k <= num_sites and 0 <= k_prime <= num_sites):
        raise ValueError(f"weights ({k}, {k_prime}) out of range for {num_sites} sites")
    if k_prime == k + 1:
        return 6 * k * (num_sites - k)
    if k_prime == k - 1:
        return 2 * k * (k - 1)
    raise ValueError(f"sectors {k} and {k_prime} are not adjacent")


def _neighbor_terms(k: int, num_sites: int) -> list[tuple[int, int]]:
    """(m, h(k, m)) for in-range neighbors with a nonzero coupling count."""
    terms = []
    for m in (k - 1, k + 1):
        if 0 <= m <= num_sites:
            h = h_count(k, m, num_sites)
            if h > 0:
                terms.append((m, h))
    return terms


def second_order_mean_fraction(k: int, num_sites: int, k_max: int = 2) -> Fraction:
    """Gaussian-averaged second-order shift of cluster k, exact.

    Each of the h(k, m) structural couplings is +-2J with J of variance
    2 / (9 l (l - 1)), so the averaged shift is

        8 / (9 l (l - 1)) * sum_m h(k, m) / (lambda0(m) - lambda0(k)).

    Refuses when a contributing neighbor is exactly degenerate; that case
    splits at first order instead (see :func:`first_order_block`).
    """
    center = lambda0_fraction(k, num_sites, k_max)
    total = Fraction(0)
    for m, h in _neighbor_terms(k, num_sites):
        gap = lambda0_fraction(m, num_sites, k_max) - center
        if gap == 0:
            raise DegenerateWeightError(
                f"weights {k} and {m} share the cluster center {center} at "
                f"{num_sites} sites; the second-order formula does not apply"
            )
        total += Fraction(h) / gap
    return Fraction(8, 9 * num_sites * (num_sites - 1)) * total


def second_order_exact(k: int, h: HamiltonianSpec, basis: PauliBasis) -> float:
    """Second-order shift of cluster k for one concrete Hamiltonian.

    Sums the squared string-basis elements out of sector k over the inverse
    center gaps, averaged over the n_k strings of the sector.  The basis
    must cover the adjacent sectors; couplings beyond them are structurally
    zero.
    """
    num_sites = h.num_sites
    lo, hi = max(0, k - 1), min(num_sites, k + 1)
    if basis.min_weight > lo or basis.max_weight < hi:
        raise ValueError(
            f"basis covers weights {basis.min_weight}..{basis.max_weight}; "
            f"sector {k} needs {lo}..{hi}"
        )
    l_u = unitary_pauli_matrix(h, basis)
    center = lambda0_fraction(k, num_sites)
    rows = basis.sector(k)
    total = 0.0
    for m in (k - 1, k + 1):
        if not 0 <= m <= num_sites:
            continue
        norm_sq = float(np.sum(l_u.block(rows, basis.sector(m)) ** 2))
        if norm_sq == 0.0:
            continue
        gap = lambda0_fraction(m, num_sites) - center
        if gap == 0:
            raise DegenerateWeightError(
                f"weights {k} and {m} are degenerate at {num_sites} sites "
                f"and the coupling block is nonzero"
            )
        total += norm_sq / float(gap)
    return total / sector_dimension(num_sites, k)


@dataclass(frozen=True)
class WeightGroup:
    """Weights sharing one exact cluster center."""

    weights: tuple[int, ...]
    center: Fraction


def degenerate_groups(num_sites: int, k_max: int = 2) -> list[WeightGroup]:
    """Partition of weights 0..l by exact equality of the cluster centers.

    Ordered by the smallest member weight.  Adjacent-weight groups are the
    interesting case: they make first-order splitting possible and break
    the second-order formulas.
    """
    by_center: dict[Fraction, list[int]] = {}
    for k in range(num_sites + 1):
        by_center.setdefault(lambda0_fraction(k, num_sites, k_max), []).append(k)
    groups = [WeightGroup(tuple(sorted(ws)), c) for c, ws in by_center.items()]
    groups.sort(key=lambda g: g.weights[0])
    return groups


def consecutive_degenerate_pair(num_sites: int) -> Optional[tuple[int, int]]:
    """The adjacent degenerate weight pair, when one exists.

    Solving lambda0(k) = lambda0(k + 1) gives k = (3l - 2) / 4, integral
    exactly when l = 2 (mod 4); this scans the groups instead of trusting
    the formula.
    """
    for g in degenerate_groups(num_sites):
        for a, b in zip(g.weights, g.weights[1:]):
            if b - a == 1:
                return (a, b)
    return None


@dataclass(frozen=True)
class FirstOrderBlock:
    """First-order coupling block of two adjacent weight sectors.

    ``matrix`` is the real antisymmetric [[0, V], [-V^T, 0]] with V mapping
    the upper sector into the lower one; its spectrum is pure-imaginary
    pairs +-i*sigma from the singular values of V, padded with zeros.
    """

    k_low: int
    k_high: int
    matrix: np.ndarray
    singular_values: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        pairs = np.concatenate([1j * self.singular_values, -1j * self.singular_values])
        zeros = np.zeros(self.dim - pairs.size, dtype=complex)
        return np.concatenate([pairs, zeros])

    @property
    def mean_square_modulus(self) -> float:
        """Mean |eigenvalue|^2, via the trace identity sum |M_ij|^2 / dim."""
        return 2.0 * float(np.sum(self.singular_values**2)) / self.dim


def first_order_block(
    h: HamiltonianSpec,
    k_minus: int,
    k_plus: int,
    basis: PauliBasis,
) -> FirstOrderBlock:
    """Assemble the degenerate-pair splitting block for one Hamiltonian."""
    lo, hi = min(k_minus, k_plus), max(k_minus, k_plus)
    if hi - lo != 1:
        raise ValueError(f"weights {k_minus} and {k_plus} are not adjacent")
    if basis.min_weight > lo or basis.max_weight < hi:
        raise ValueError(f"basis does not cover weights {lo} and {hi}")
    l_u = unitary_pauli_matrix(h, basis)
    v = l_u.block(basis.sector(lo), basis.sector(hi))
    n_lo, n_hi = v.shape
    block = np.zeros((n_lo + n_hi, n_lo + n_hi))
    block[:n_lo, n_lo:] = v
    block[n_lo:, :n_lo] = -v.T
    sigma = np.linalg.svd(v, compute_uv=False)
    return FirstOrderBlock(lo, hi, block, sigma)


@dataclass(frozen=True)
class PerturbationPrediction:
    """Closed-form prediction bundle for every weight sector at one size."""

    num_sites: int
    lambda0_values: tuple[Fraction, ...]
    h_up: tuple[int, ...]
    h_down: tuple[int, ...]
    lambda2_means: tuple[Optional[Fraction], ...]
    groups: tuple[WeightGroup, ...]

    def center(self, k: int, alpha: float) -> float:
        shift = self.lambda2_means[k]
        if shift is None:
            raise DegenerateWeightError(
                f"cluster {k} at {self.num_sites} sites splits at first order; "
                f"no quadratic center prediction"
            )
        return float(self.lambda0_values[k]) + float(shift) * alpha**2


def predict(num_sites: int, k_max: int = 2) -> PerturbationPrediction:
    """Evaluate every closed form once; degenerate sectors get None shifts."""
    lambda0s = []
    ups = []
    downs = []
    shifts: list[Optional[Fraction]] = []
    for k in range(num_sites + 1):
        lambda0s.append(lambda0_fraction(k, num_sites, k_max))
        ups.append(h_count(k, k + 1, num_sites) if k + 1 <= num_sites else 0)
        downs.append(h_count(k, k - 1, num_sites) if k - 1 >= 0 else 0)
        try:
            shifts.append(second_order_mean_fraction(k, num_sites, k_max))
        except DegenerateWeightError:
            shifts.append(None)
    return PerturbationPrediction(
        num_sites,
        tuple(lambda0s),
        tuple(ups),
        tuple(downs),
        tuple(shifts),
        tuple(degenerate_groups(num_sites, k_max)),
    )
