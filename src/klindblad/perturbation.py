"""Perturbative predictions for the strongly dissipative spectrum.

With the mean-diagonal dissipator as the unperturbed generator, each Pauli
string is an eigenmode with eigenvalue lambda0(weight).  The commutator
generator couples only adjacent weight sectors, so standard perturbation
theory in the coupling strength gives closed-form cluster shifts at second
order.  Where two adjacent sectors share a lambda0, which happens exactly at
l = 2 (mod 4), the pair splits at first order instead, into purely
imaginary pairs; no run reports that splitting, so those sectors get no
shift here.

All degeneracy decisions use exact rational arithmetic; a vanishing
denominator raises instead of silently producing garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DegenerateWeightError
from .liouvillian import lambda0_fraction

__all__ = [
    "h_count",
    "second_order_mean_fraction",
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
    splits at first order instead.
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


@dataclass(frozen=True)
class PerturbationPrediction:
    """Closed-form prediction bundle for every weight sector at one size."""

    num_sites: int
    lambda0_values: tuple[Fraction, ...]
    h_up: tuple[int, ...]
    h_down: tuple[int, ...]
    lambda2_means: tuple[Optional[Fraction], ...]

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
    )
