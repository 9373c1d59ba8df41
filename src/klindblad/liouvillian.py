"""Lindblad generators over Pauli jump channels, in the Pauli string basis.

A superoperator L is stored as its real matrix in the orthonormal string
basis e_b = S_b / sqrt(2^l) of a complete :class:`PauliBasis`,

    M[a, b] = Tr(S_a L(S_b)) / 2^l,

which is exactly real for Hermitian jump strings and a Hermitian H.  Both
parts are scattered straight into that matrix from the symplectic product
rule S_p S_q = i^e(p, q) S_{p xor q} of :func:`pauli.product_exponent` and
:func:`pauli.anticommutes`, with no Kronecker products; this module keeps no
bit formulas of its own.  The jump channels are the weight window
1 <= weight <= k_max of the string basis.  The generator splits as

    L = alpha * L_U + L_D,      L_D = L_D0 + L_D1,

where L_U is the commutator part, L_D0 comes from the mean diagonal of the
coupling matrix K and is diagonal with entries lambda0(weight), and L_D1
carries the fluctuations.  The weak-dissipation form L_U + beta * L_D is
the same object with the scale moved.

Matrices are dense, 4^num_sites on a side, so building is refused above
MAX_SUPEROPERATOR_SITES unless explicitly overridden.  ``pauli_basis_form``
and ``real_pauli_form`` carry a column-stacked computational-basis matrix
into the same real form; nothing in the package calls them, and they remain
only for the Kronecker test oracle and the benchmark's layer tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, sqrt
from typing import Union

import numpy as np
import scipy.sparse as sp

from .ensemble import HamiltonianSpec, KossakowskiSample, kossakowski_dimension
from .errors import NonPositiveKossakowskiError, NumericalError, ResourceLimitError
from .pauli import PHASES, PauliBasis, anticommutes, basis_state_images, product_exponent

__all__ = [
    "MAX_SUPEROPERATOR_SITES",
    "Superoperator",
    "check_size",
    "jump_operator_set",
    "build_dissipator",
    "build_unitary_part",
    "assemble",
    "assemble_weak",
    "lambda0",
    "lambda0_fraction",
    "string_basis_matrix",
    "pauli_basis_form",
    "real_pauli_form",
    "unitary_pauli_matrix",
]

MAX_SUPEROPERATOR_SITES = 6


def check_size(num_sites: int, allow_large: bool) -> None:
    """The dense-superoperator guardrail: refuse more than
    ``MAX_SUPEROPERATOR_SITES`` sites unless ``allow_large``."""
    if num_sites > MAX_SUPEROPERATOR_SITES and not allow_large:
        raise ResourceLimitError(
            f"dense superoperator at {num_sites} sites needs a {4**num_sites}x{4**num_sites} "
            f"matrix; pass allow_large=True (--allow-large) to force"
        )


def jump_operator_set(num_sites: int, k_max: int = 2) -> PauliBasis:
    """Standard channel set: the window of strings with 1 <= weight <= k_max.

    Channel n is the traceless jump S_n / sqrt(2^l); the scaling makes the set
    orthonormal, Tr(L_n^dag L_m) = delta_nm.  Like every :class:`PauliBasis`,
    the window carries an index table of 4^l entries, whatever its size.
    """
    return PauliBasis(num_sites, max_weight=k_max, min_weight=1)


@dataclass
class Superoperator:
    """Dense superoperator matrix over the orthonormal string basis."""

    num_sites: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = 4**self.num_sites
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match {self.num_sites} sites"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace_violation(self) -> float:
        """Max deviation of the trace-preservation row identity: the
        identity string owns row 0, so that row must vanish."""
        return float(np.abs(self.matrix[0]).max())


def _coupling_matrix(k: Union[KossakowskiSample, np.ndarray], jumps: PauliBasis) -> np.ndarray:
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


# Columns per block of the dissipator scatter; the per-block temporaries are
# a few (product strings x block) arrays, a few MB at 6 sites.
_BLOCK = 256


def _check_complete(basis: PauliBasis, num_sites: int) -> None:
    if basis.num_sites != num_sites:
        raise ValueError("basis and model disagree on num_sites")
    if len(basis) != 4**num_sites:
        raise ValueError(f"need the complete string basis, got {len(basis)} of {4**num_sites}")


def build_dissipator(
    k: Union[KossakowskiSample, np.ndarray],
    jumps: PauliBasis,
    basis: PauliBasis,
    *,
    validate: bool = True,
    allow_large: bool = False,
) -> Superoperator:
    """Dissipative generator sum_nm K_nm (L_n . L_m^dag - 1/2 {L_m^dag L_n, .}).

    With c = n xor m and s(b, m) = +-1 as S_b and S_m commute or
    anticommute, every pair (n, m) maps S_b onto S_{c xor b}, so

        M[c xor b, b] = i^e(c, b) / 2^l * (A[c, b] - 1/2 (1 + s(b, c)) B[c]),
        A[c, b] = sum_m K_{m xor c, m} i^e(m xor c, m) s(b, m),
        B[c] = sum_{n xor m = c} K_nm i^e(m, n).

    A is one (product strings x jumps) @ (jumps x columns) product, taken
    in column blocks; within a column each c hits its own row.  The real
    part is kept, and an imaginary residue above 1e-10 (a non-Hermitian K)
    raises :class:`NumericalError`.
    """
    num_sites = jumps.num_sites
    check_size(num_sites, allow_large)
    _check_complete(basis, num_sites)
    k_matrix = _coupling_matrix(k, jumps)
    if validate:
        _validate_coupling(k_matrix)
    k_matrix = k_matrix / 2.0**num_sites  # exact: the 1/2^l of M, applied early
    jx, jz = jumps.x_array, jumps.z_array
    n_jump = len(jumps)
    # products S_n S_m, indexed [n, m], grouped by the string c = n xor m
    products, c_of = np.unique(basis.lookup(jx[:, None] ^ jx, jz[:, None] ^ jz),
                               return_inverse=True)
    c_of = c_of.reshape(n_jump, n_jump)
    exponent = product_exponent(jx[:, None], jz[:, None], jx, jz)
    w = np.zeros((products.size, n_jump), dtype=complex)
    w[c_of, np.arange(n_jump)] = k_matrix * PHASES[exponent]
    b_sum = np.zeros(products.size, dtype=complex)
    np.add.at(b_sum, c_of, k_matrix * PHASES[exponent.T])
    w_stacked = np.concatenate([w.real, w.imag])
    cx, cz = basis.x_array[products, None], basis.z_array[products, None]

    n = len(basis)
    out = np.zeros((n, n))
    residue = 0.0
    for lo in range(0, n, _BLOCK):
        cols = np.arange(lo, min(lo + _BLOCK, n))
        bx, bz = basis.x_array[cols], basis.z_array[cols]
        signs = 1.0 - 2.0 * anticommutes(jx[:, None], jz[:, None], bx, bz)
        a = w_stacked @ signs
        a = a[: products.size] + 1j * a[products.size :]
        commuting = anticommutes(cx, cz, bx, bz) == 0
        a -= np.where(commuting, b_sum[:, None], 0.0)
        a *= PHASES[product_exponent(cx, cz, bx, bz)]
        residue = max(residue, float(np.abs(a.imag).max()))
        out[basis.lookup(cx ^ bx, cz ^ bz), cols] = a.real
    if residue > 1e-10:
        raise NumericalError(f"imaginary residue {residue:.3e} exceeds 1e-10")
    return Superoperator(num_sites, out)


def _commutator_entries(
    h: HamiltonianSpec, basis: PauliBasis
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of -i[H, .] in the string basis.

    For each term J S_w and each basis string S_b anticommuting with it,
    -i[J S_w, S_b] = -2i J i^e(w, b) S_{w xor b} with i^e = +-i, so the entry
    is +2J at e = 1 and -2J at e = 3.  Images outside a truncated basis are
    dropped.
    """
    if basis.num_sites != h.num_sites:
        raise ValueError("basis and Hamiltonian disagree on num_sites")
    x, z = basis.x_array, basis.z_array
    rows, cols, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for s_w, coupling in h.coefficients.items():
        wx, wz = np.uint64(s_w.x_bits), np.uint64(s_w.z_bits)
        b = np.flatnonzero(anticommutes(wx, wz, x, z))
        row = basis.lookup(wx ^ x[b], wz ^ z[b])
        b, row = b[row >= 0], row[row >= 0]
        plus = product_exponent(wx, wz, x[b], z[b]) == 1
        rows.append(row)
        cols.append(b)
        vals.append(np.where(plus, 2.0 * coupling, -2.0 * coupling))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def build_unitary_part(
    h: HamiltonianSpec,
    basis: PauliBasis,
    *,
    allow_large: bool = False,
) -> Superoperator:
    """Commutator generator -i[H, .] as a dense matrix; see
    :func:`unitary_pauli_matrix` for its sparse form."""
    check_size(h.num_sites, allow_large)
    _check_complete(basis, h.num_sites)
    rows, cols, vals = _commutator_entries(h, basis)
    out = np.zeros((len(basis), len(basis)))
    out[rows, cols] = vals
    return Superoperator(h.num_sites, out)


def _combine(scaled: Superoperator, weight: float, unit: Superoperator) -> Superoperator:
    """weight * scaled + unit, with one new matrix."""
    if scaled.num_sites != unit.num_sites:
        raise ValueError("parts disagree on num_sites")
    matrix = np.multiply(weight, scaled.matrix)
    matrix += unit.matrix
    return Superoperator(unit.num_sites, matrix)


def assemble(alpha: float, unitary: Superoperator, dissipator: Superoperator) -> Superoperator:
    """Strong-dissipation form alpha * L_U + L_D."""
    return _combine(unitary, alpha, dissipator)


def assemble_weak(beta: float, unitary: Superoperator, dissipator: Superoperator) -> Superoperator:
    """Weak-dissipation form L_U + beta * L_D."""
    return _combine(dissipator, beta, unitary)


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
    dim = 1 << basis.num_sites
    n = len(basis)
    images, values = basis_state_images(basis.x_array, basis.z_array, basis.num_sites)
    rows = (np.arange(dim) * dim + images.astype(np.int64)).ravel()
    data = values.ravel() / sqrt(dim)
    indptr = np.arange(0, n * dim + 1, dim)
    return sp.csc_matrix((data, rows, indptr), shape=(dim * dim, n))


def pauli_basis_form(s: Superoperator, basis: PauliBasis) -> Superoperator:
    """Conjugate a column-stacked computational-basis matrix into the
    orthonormal Pauli string basis, B^dag M B.

    The basis must be complete (all 4^l strings) so the spectrum is
    preserved; the transform is a unitary change of basis.
    """
    _check_complete(basis, s.num_sites)
    b = string_basis_matrix(basis)
    m = (b.conj().T @ s.matrix) @ b
    return Superoperator(s.num_sites, np.asarray(m))


def real_pauli_form(s: Superoperator, tol: float = 1e-10) -> np.ndarray:
    """Real double view of a Pauli-basis matrix.

    Generators built from Hermitian jumps and Hermitian H have exactly real
    matrix elements between Hermitian basis strings; anything beyond ``tol``
    of residual imaginary part means the input was not such a generator.
    """
    drift = float(np.abs(s.matrix.imag).max())
    if drift > tol:
        raise NumericalError(f"imaginary residue {drift:.3e} exceeds {tol:.0e}")
    return np.ascontiguousarray(s.matrix.real)


def unitary_pauli_matrix(h: HamiltonianSpec, basis: PauliBasis) -> sp.csr_matrix:
    """Commutator generator in the string basis as a sparse matrix.

    The basis may be a truncated weight window.  Only adjacent weight
    sectors couple, since a weight-2 term changes the weight of any string
    by exactly +-1 when the commutator survives.
    """
    rows, cols, vals = _commutator_entries(h, basis)
    n = len(basis)
    m = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    m.sum_duplicates()
    return m
