"""Superoperator assembly for Lindblad generators over Pauli jump channels.

Vectorization is column-stacking throughout: vec stacks matrix columns, so
vec(A rho B) = (B^T kron A) vec(rho).  The generator splits as

    L = alpha * L_U + L_D,      L_D = L_D0 + L_D1,

where L_U is the commutator part, L_D0 comes from the mean diagonal of the
coupling matrix K and is diagonal in the Pauli string basis with entries
lambda0(weight), and L_D1 carries the fluctuations.  The weak-dissipation
form L_U + beta * L_D is the same object with the scale moved.

Matrices are dense; sizes grow as 16^num_sites, so building is refused above
MAX_SUPEROPERATOR_SITES unless explicitly overridden.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, sqrt
from typing import Sequence, Union

import numpy as np
import scipy.sparse as sp

from .ensemble import HamiltonianSpec, KossakowskiSample, dense_hamiltonian, kossakowski_dimension
from .errors import NonPositiveKossakowskiError, NumericalError, ResourceLimitError
from .pauli import PauliBasis, PauliString, commutator, enumerate_basis, to_dense

__all__ = [
    "MAX_SUPEROPERATOR_SITES",
    "BASIS_COMPUTATIONAL",
    "BASIS_PAULI",
    "JumpOperatorSet",
    "Superoperator",
    "jump_operator_set",
    "build_dissipator",
    "build_unitary_part",
    "assemble",
    "assemble_weak",
    "lambda0",
    "lambda0_fraction",
    "vec_identity",
    "string_basis_matrix",
    "pauli_basis_form",
    "real_pauli_form",
    "unitary_pauli_matrix",
]

MAX_SUPEROPERATOR_SITES = 6

BASIS_COMPUTATIONAL = "computational"
BASIS_PAULI = "pauli"


def _check_size(num_sites: int, allow_large: bool) -> None:
    if num_sites > MAX_SUPEROPERATOR_SITES and not allow_large:
        raise ResourceLimitError(
            f"dense superoperator at {num_sites} sites needs a "
            f"{4**num_sites}x{4**num_sites} matrix; pass allow_large=True to force"
        )


@dataclass(frozen=True)
class JumpOperatorSet:
    """Traceless jump operators: Pauli strings scaled by 1/sqrt(2^l).

    The scaling makes the set orthonormal, Tr(L_n^dag L_m) = delta_nm.
    ``stack[n]`` is the dense form of ``strings[n]``, already scaled.
    """

    num_sites: int
    strings: tuple[PauliString, ...]
    stack: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.strings)
        dim = 1 << self.num_sites
        if self.stack.shape != (n, dim, dim):
            raise ValueError(f"stack shape {self.stack.shape} does not match {n} strings")
        for s in self.strings:
            if s.weight == 0:
                raise ValueError("identity is not a valid jump operator (not traceless)")

    def __len__(self) -> int:
        return len(self.strings)

    @classmethod
    def from_strings(cls, strings: Sequence[PauliString]) -> "JumpOperatorSet":
        if not strings:
            raise ValueError("empty jump operator set")
        num_sites = strings[0].num_sites
        norm = sqrt(2.0**num_sites)
        stack = np.array([to_dense(s) / norm for s in strings])
        return cls(num_sites, tuple(strings), stack)


def jump_operator_set(num_sites: int, k_max: int = 2) -> JumpOperatorSet:
    """Standard channel set: every string with 1 <= weight <= k_max."""
    strings = enumerate_basis(num_sites, max_weight=k_max, min_weight=1)
    out = JumpOperatorSet.from_strings(strings)
    assert len(out) == kossakowski_dimension(num_sites, k_max)
    return out


@dataclass
class Superoperator:
    """Dense superoperator matrix tagged with its basis."""

    num_sites: int
    matrix: np.ndarray
    basis: str = BASIS_COMPUTATIONAL

    def __post_init__(self) -> None:
        if self.basis not in (BASIS_COMPUTATIONAL, BASIS_PAULI):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        dim = 4**self.num_sites
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {self.num_sites} sites"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace_violation(self) -> float:
        """Max deviation of the trace-preservation row identity.

        In the computational vectorization the row vector vec(1)^dag must
        annihilate the matrix; in the Pauli basis the identity string owns
        row 0, so that row must vanish instead.
        """
        if self.basis == BASIS_COMPUTATIONAL:
            row = vec_identity(self.num_sites).conj() @ self.matrix
        else:
            row = self.matrix[0]
        return float(np.abs(row).max())


def vec_identity(num_sites: int) -> np.ndarray:
    dim = 1 << num_sites
    return np.eye(dim, dtype=complex).reshape(-1, order="F")


def _coupling_matrix(k: Union[KossakowskiSample, np.ndarray], jumps: JumpOperatorSet) -> np.ndarray:
    if isinstance(k, KossakowskiSample):
        if k.num_sites != jumps.num_sites:
            raise ValueError("coupling sample and jump set disagree on num_sites")
        k_matrix = k.k_matrix
    else:
        k_matrix = np.asarray(k, dtype=complex)
    n = len(jumps)
    if k_matrix.shape != (n, n):
        raise ValueError(f"coupling matrix shape {k_matrix.shape} does not match {n} jumps")
    return k_matrix


def _validate_coupling(k_matrix: np.ndarray) -> None:
    if np.abs(k_matrix - k_matrix.conj().T).max() > 1e-10:
        raise ValueError("coupling matrix is not Hermitian")
    lo = float(np.linalg.eigvalsh(k_matrix).min())
    if lo < -1e-10:
        raise NonPositiveKossakowskiError(
            f"coupling matrix has eigenvalue {lo:.3e} below the PSD tolerance"
        )


def build_dissipator(
    k: Union[KossakowskiSample, np.ndarray],
    jumps: JumpOperatorSet,
    *,
    validate: bool = True,
    allow_large: bool = False,
) -> Superoperator:
    """Dissipative generator sum_nm K_nm (L_n . L_m^dag - 1/2 {L_m^dag L_n, .}).

    Assembled as B^* tensor A contractions in one pass over channels rather
    than per-pair Kronecker products; the anticommutator collapses to a
    single operator C = sum_nm K_nm L_m^dag L_n.
    """
    _check_size(jumps.num_sites, allow_large)
    k_matrix = _coupling_matrix(k, jumps)
    if validate:
        _validate_coupling(k_matrix)
    t = jumps.stack
    n_jump, dim, _ = t.shape
    # g[m] = sum_n K_nm L_n; pairing t* with g then realizes the K bilinear.
    g = (k_matrix.T @ t.reshape(n_jump, dim * dim)).reshape(n_jump, dim, dim)
    p = np.tensordot(t.conj(), g, axes=(0, 0))
    m = p.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    c = np.einsum("nba,nbc->ac", t.conj(), g)
    eye = np.eye(dim)
    m -= 0.5 * (np.kron(eye, c) + np.kron(c.T, eye))
    return Superoperator(jumps.num_sites, m)


def build_unitary_part(
    h: Union[HamiltonianSpec, np.ndarray],
    *,
    allow_large: bool = False,
) -> Superoperator:
    """Commutator generator -i[H, .] as -i (1 kron H - H^T kron 1)."""
    if isinstance(h, HamiltonianSpec):
        num_sites = h.num_sites
        h_dense = dense_hamiltonian(h)
    else:
        h_dense = np.asarray(h, dtype=complex)
        if h_dense.ndim != 2 or h_dense.shape[0] != h_dense.shape[1]:
            raise ValueError(f"Hamiltonian must be square, got shape {h_dense.shape}")
        num_sites = int(h_dense.shape[0]).bit_length() - 1
        if 1 << num_sites != h_dense.shape[0]:
            raise ValueError(f"Hamiltonian dimension {h_dense.shape[0]} is not a power of 2")
    _check_size(num_sites, allow_large)
    eye = np.eye(h_dense.shape[0])
    m = -1j * (np.kron(eye, h_dense) - np.kron(h_dense.T, eye))
    return Superoperator(num_sites, m)


def _combine(
    unitary: Superoperator, dissipator: Superoperator, u_weight: float, d_weight: float
) -> Superoperator:
    if unitary.num_sites != dissipator.num_sites:
        raise ValueError("parts disagree on num_sites")
    if unitary.basis != dissipator.basis:
        raise ValueError(f"parts disagree on basis: {unitary.basis!r} vs {dissipator.basis!r}")
    matrix = u_weight * unitary.matrix + d_weight * dissipator.matrix
    return Superoperator(unitary.num_sites, matrix, unitary.basis)


def assemble(alpha: float, unitary: Superoperator, dissipator: Superoperator) -> Superoperator:
    """Strong-dissipation form alpha * L_U + L_D."""
    return _combine(unitary, dissipator, alpha, 1.0)


def assemble_weak(beta: float, unitary: Superoperator, dissipator: Superoperator) -> Superoperator:
    """Weak-dissipation form L_U + beta * L_D."""
    return _combine(unitary, dissipator, 1.0, beta)


def lambda0_fraction(k: int, num_sites: int, k_max: int = 2) -> Fraction:
    """Exact cluster center of the mean-diagonal dissipator, as a fraction.

    Each jump string that anticommutes with a weight-k string contributes
    -2d with d = 2^l / N_L, and the trace normalization cancels the 2^l, so
    the center is -2 a(k) / N_L.  A weight-j jump overlapping the support in
    t sites anticommutes when an odd number of those t letters differ, so

        a(k) = sum_{j=1..k_max} sum_t C(k, t) C(l - k, j - t) 3^(j - t) (3^t - (-1)^t) / 2,

    which is 2k(3l - 2k) at k_max = 2.
    """
    if not 0 <= k <= num_sites:
        raise ValueError(f"weight {k} out of range for {num_sites} sites")
    anticommuting = sum(
        comb(k, t) * comb(num_sites - k, j - t) * 3 ** (j - t) * (3**t - (-1) ** t) // 2
        for j in range(1, k_max + 1)
        for t in range(0, j + 1)
    )
    return Fraction(-2 * anticommuting, kossakowski_dimension(num_sites, k_max))


def lambda0(k: int, num_sites: int, k_max: int = 2) -> float:
    """Cluster center lambda0(k) = -2 a(k) / N_L; see :func:`lambda0_fraction`."""
    return float(lambda0_fraction(k, num_sites, k_max))


# --- Pauli string basis form ------------------------------------------------


def string_basis_matrix(basis: PauliBasis) -> sp.csc_matrix:
    """Sparse isometry whose columns are vec(S / sqrt(2^l)) per basis string.

    Each string has exactly one nonzero per matrix column, so column j holds
    2^l entries at vec positions b * 2^l + (b xor x_j).
    """
    num_sites = basis.num_sites
    dim = 1 << num_sites
    n = len(basis)
    x = basis.x_array[:, None]
    z = basis.z_array[:, None]
    b = np.arange(dim, dtype=np.uint64)[None, :]
    rows = (b.astype(np.int64) * dim + (b ^ x).astype(np.int64)).ravel()
    phases = np.array([1, 1j, -1, -1j])[np.bitwise_count(basis.x_array & basis.z_array) % 4]
    signs = 1.0 - 2.0 * (np.bitwise_count(b & z) % 2)
    data = (phases[:, None] * signs).ravel() / sqrt(dim)
    indptr = np.arange(0, n * dim + 1, dim)
    return sp.csc_matrix((data, rows, indptr), shape=(dim * dim, n))


def pauli_basis_form(s: Superoperator, basis: PauliBasis) -> Superoperator:
    """Conjugate into the orthonormal Pauli string basis, B^dag M B.

    The basis must be complete (all 4^l strings) so the spectrum is
    preserved; the transform is a unitary change of basis.
    """
    if s.basis != BASIS_COMPUTATIONAL:
        raise ValueError(f"expected a computational-basis superoperator, got {s.basis!r}")
    if basis.num_sites != s.num_sites:
        raise ValueError("basis and superoperator disagree on num_sites")
    if len(basis) != 4**s.num_sites:
        raise ValueError(f"need the complete string basis, got {len(basis)} of {4**s.num_sites}")
    b = string_basis_matrix(basis)
    m = (b.conj().T @ s.matrix) @ b
    return replace(s, matrix=np.asarray(m), basis=BASIS_PAULI)


def real_pauli_form(s: Superoperator, tol: float = 1e-10) -> np.ndarray:
    """Real double view of a Pauli-basis matrix.

    Generators built from Hermitian jumps and Hermitian H have exactly real
    matrix elements between Hermitian basis strings; anything beyond ``tol``
    of residual imaginary part means the input was not such a generator.
    """
    if s.basis != BASIS_PAULI:
        raise ValueError("real form is only defined for the Pauli basis")
    drift = float(np.abs(s.matrix.imag).max())
    if drift > tol:
        raise NumericalError(f"imaginary residue {drift:.3e} exceeds {tol:.0e}")
    return np.ascontiguousarray(s.matrix.real)


def unitary_pauli_matrix(h: HamiltonianSpec, basis: PauliBasis) -> sp.csr_matrix:
    """Commutator generator in the string basis, built term by term.

    For each basis string S_y and Hamiltonian term J * S_w, a nonzero
    appears at row x with S_x proportional to S_w S_y whenever the two
    anticommute; the entry is -2i * phase * J, which is real (+-2J) because
    the product phase of anticommuting Hermitian strings is +-i.  Only
    adjacent weight sectors couple, since a weight-2 term changes the
    weight of any string by exactly +-1 when the commutator survives.
    """
    if basis.num_sites != h.num_sites:
        raise ValueError("basis and Hamiltonian disagree on num_sites")
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for y, s_y in enumerate(basis):
        for s_w, coupling in h.coefficients.items():
            c = commutator(s_w, s_y)
            if c is None:
                continue
            if c.string not in basis:
                continue  # truncated basis drops out-of-range weights
            entry = -2j * c.phase * coupling
            assert entry.imag == 0.0
            rows.append(basis.index_of(c.string))
            cols.append(y)
            vals.append(entry.real)
    n = len(basis)
    m = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    m.sum_duplicates()
    return m
