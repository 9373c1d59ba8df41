"""References the tests compare the package against.

The computational-basis Kronecker builders are the oracle for the direct
string-basis generators of ``klindblad.liouvillian``; vectorization is
column-stacking, vec(A rho B) = (B^T kron A) vec(rho).  They form complex
4^l x 4^l matrices from dense jump operators, so they are slow and
memory-hungry above 5 sites; ``real_pauli`` rotates their output into the
production representation, and ``vec_identity`` is the column-stacked trace
functional.  ``from_label`` parses the labels the tests write strings in,
and ``product_exponent`` and ``lookup`` are the product rule over uint64 bit
arrays that ``PauliBasis.product`` reads from its key tables.
The rest are the paper's claims that no subcommand reports (the
mode-expansion evolution, one Hamiltonian's second-order shift, the
first-order splitting of adjacent degenerate sectors) and the whole K record
whose streamed form the manifest digests.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Optional, Sequence, Union

import numpy as np

from klindblad.ensemble import HamiltonianSpec, KossakowskiSample, dense_hamiltonian
from klindblad.errors import DegenerateWeightError
from klindblad.liouvillian import (
    SparseSuperoperator,
    Superoperator,
    lambda0_fraction,
    pauli_basis_form,
    real_pauli_form,
    unitary_pauli_matrix,
)
from klindblad.pauli import PauliBasis, PauliString, sector_dimension, to_dense
from klindblad.spectral import Spectrum


def from_label(label: str) -> PauliString:
    """The string of an ``"IXYZ"``-style label, site 0 leftmost: the inverse
    of ``PauliString.to_label``."""
    if not label:
        raise ValueError("empty Pauli label")
    try:
        return PauliString.from_site_letters(len(label), list(enumerate(label)))
    except KeyError:
        raise ValueError(f"invalid Pauli letter in {label!r}") from None


def product_exponent(x1, z1, x2, z2) -> np.ndarray:
    """e with S_1 S_2 = i^e S_{1 xor 2}, broadcast over uint64 bit arrays:
    the rule of ``PauliBasis.product`` with all four |x.z| counts taken from
    the bits.  The uint8 counts' wraparound below zero is harmless modulo 4."""
    count = np.bitwise_count
    return (count(x1 & z1) + count(x2 & z2) - count((x1 ^ x2) & (z1 ^ z2))
            + 2 * count(z1 & x2)) % 4


def lookup(basis: PauliBasis, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Index in ``basis`` of each string (x, z) of broadcast uint64 bit
    arrays, -1 outside it, by a sorted search over the basis's bit arrays."""
    shift = np.uint64(basis.num_sites)
    own = (basis.x_array << shift) | basis.z_array
    order = np.argsort(own)
    want = (np.asarray(x, np.uint64) << shift) | np.asarray(z, np.uint64)
    at = np.minimum(np.searchsorted(own[order], want), len(own) - 1)
    return np.where(own[order][at] == want, order[at], -1)


def vec_identity(num_sites: int) -> np.ndarray:
    """vec(1), whose conjugate row annihilates a trace-preserving generator."""
    dim = 1 << num_sites
    return np.eye(dim, dtype=complex).reshape(-1, order="F")


def jump_stack(jumps: PauliBasis) -> np.ndarray:
    """Dense jump operators, ``stack[n]`` = strings[n] / sqrt(2^l)."""
    norm = sqrt(2.0**jumps.num_sites)
    return np.array([to_dense(s) / norm for s in jumps])


def build_dissipator(
    k: Union[KossakowskiSample, np.ndarray], jumps: PauliBasis
) -> Superoperator:
    """sum_nm K_nm (L_n . L_m^dag - 1/2 {L_m^dag L_n, .}) in the
    computational basis, contracted over channels in one pass; the
    anticommutator collapses to C = sum_nm K_nm L_m^dag L_n."""
    k_matrix = k.k_matrix if isinstance(k, KossakowskiSample) else np.asarray(k, dtype=complex)
    t = jump_stack(jumps)
    n_jump, dim, _ = t.shape
    # g[m] = sum_n K_nm L_n; pairing t* with g then realizes the K bilinear.
    g = (k_matrix.T @ t.reshape(n_jump, dim * dim)).reshape(n_jump, dim, dim)
    p = np.tensordot(t.conj(), g, axes=(0, 0))
    m = p.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    c = np.einsum("nba,nbc->ac", t.conj(), g)
    eye = np.eye(dim)
    m -= 0.5 * (np.kron(eye, c) + np.kron(c.T, eye))
    return Superoperator(jumps.num_sites, m)


def build_unitary_part(h: Union[HamiltonianSpec, np.ndarray]) -> Superoperator:
    """-i[H, .] as -i (1 kron H - H^T kron 1) in the computational basis."""
    h_dense = dense_hamiltonian(h) if isinstance(h, HamiltonianSpec) else np.asarray(h, complex)
    num_sites = h_dense.shape[0].bit_length() - 1
    eye = np.eye(h_dense.shape[0])
    return Superoperator(num_sites, -1j * (np.kron(eye, h_dense) - np.kron(h_dense.T, eye)))


def assemble(alpha: float, unitary: Superoperator, dissipator: Superoperator) -> Superoperator:
    """alpha * L_U + L_D of two dense parts, in whichever basis both are."""
    return Superoperator(dissipator.num_sites, alpha * unitary.matrix + dissipator.matrix)


def real_pauli(sup: Superoperator, basis: PauliBasis) -> np.ndarray:
    """The real string-basis matrix of a computational-basis superoperator."""
    return real_pauli_form(pauli_basis_form(sup, basis))


def dense(sparse: SparseSuperoperator) -> np.ndarray:
    """The dense matrix of a sparse superoperator."""
    return sparse.block(slice(0, sparse.dim), slice(0, sparse.dim))


def evolve_expectation(
    spectrum: Spectrum, rho0_vec: np.ndarray, obs_vec: np.ndarray, times: Sequence[float]
) -> np.ndarray:
    """<O>(t) = sum_i <O|R_i> (L_i rho0) exp(lambda_i t) from the modes a
    spectrum kept, with the left modes L the inverse of the right ones R; at
    t = 0 it telescopes back to <O|rho0>.  The vectors are over the basis the
    spectrum's generator was written in."""
    right = spectrum.modes(slice(None))
    weights = (np.conj(obs_vec) @ right) * np.linalg.solve(right, rho0_vec)
    return np.exp(np.outer(times, spectrum.eigenvalues)) @ weights


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
    """Partition of weights 0..l by exact equality of the cluster centers,
    ordered by the smallest member weight."""
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
    h: HamiltonianSpec, k_minus: int, k_plus: int, basis: PauliBasis
) -> FirstOrderBlock:
    """The degenerate-pair splitting block for one Hamiltonian."""
    lo, hi = min(k_minus, k_plus), max(k_minus, k_plus)
    if hi - lo != 1:
        raise ValueError(f"weights {k_minus} and {k_plus} are not adjacent")
    if basis.min_weight > lo or basis.max_weight < hi:
        raise ValueError(f"basis does not cover weights {lo} and {hi}")
    v = unitary_pauli_matrix(h, basis).block(basis.sector(lo), basis.sector(hi))
    n_lo, n_hi = v.shape
    block = np.zeros((n_lo + n_hi, n_lo + n_hi))
    block[:n_lo, n_lo:] = v
    block[n_lo:, :n_lo] = -v.T
    return FirstOrderBlock(lo, hi, block, np.linalg.svd(v, compute_uv=False))


def kossakowski_to_json_dict(sample: KossakowskiSample) -> dict:
    """K's whole record, the reference for ``ensemble.kossakowski_json_chunks``."""
    entries = [[r, c, float(v.real), float(v.imag)] for (r, c), v in np.ndenumerate(sample.k_matrix)]
    return {"type": "kossakowski", "num_sites": sample.num_sites, "k_max": sample.k_max,
            "seed": sample.seed, "d_diag": [float(x) for x in sample.d_diag], "k_matrix": entries}
