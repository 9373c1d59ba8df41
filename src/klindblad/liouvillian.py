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
the same object with the scale moved: :func:`assemble` takes both scales.

Every generator is dense, 4^num_sites on a side.  No builder here refuses
a size: the caller knows the run it sizes, and the command line guards
its own.  The parts are not dense: L_U is sparse (:class:`SparseSuperoperator`,
from :func:`unitary_pauli_matrix` over any weight window), and L_D a compact
factor (:class:`DissipatorFactor`, 4.7 MB at 6 sites against 134 MB dense).
:func:`assemble` writes both, scaled, into the one matrix the eigensolver
consumes; :func:`build_dissipator` writes a dense L_D.  ``pauli_basis_form``
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

from .ensemble import HamiltonianSpec, KossakowskiSample, kossakowski_dimension
from .errors import NonPositiveKossakowskiError, NumericalError
from .openblas import solver_matrix
from .pauli import PHASES, PauliBasis, anticommutes, basis_state_images, product_exponent

__all__ = [
    "Superoperator",
    "SparseSuperoperator",
    "jump_operator_set",
    "DissipatorFactor",
    "dissipator_factor",
    "build_dissipator",
    "build_unitary_part",
    "assemble",
    "lambda0",
    "lambda0_fraction",
    "string_basis_matrix",
    "pauli_basis_form",
    "real_pauli_form",
    "unitary_pauli_matrix",
]

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


@dataclass(frozen=True)
class SparseSuperoperator:
    """Sparse superoperator over a string basis of ``dim`` strings, as numpy
    coordinate triplets: entry (rows[i], cols[i]) is values[i].  No (row,
    col) pair repeats, so scattering the values gives the dense matrix bit
    for bit."""

    num_sites: int
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def block(self, rows: slice, cols: slice) -> np.ndarray:
        """Dense sub-matrix over a contiguous row range and column range."""
        r0, c0 = rows.start, cols.start
        keep = ((self.rows >= r0) & (self.rows < rows.stop)
                & (self.cols >= c0) & (self.cols < cols.stop))
        out = np.zeros((rows.stop - r0, cols.stop - c0))
        out[self.rows[keep] - r0, self.cols[keep] - c0] = self.values[keep]
        return out

    def toarray(self) -> np.ndarray:
        return self.block(slice(0, self.dim), slice(0, self.dim))


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


# Columns per block of the dissipator write; the per-block temporaries are
# a few (product strings x block) arrays, about 5 MB at 5 sites.  They set the
# memory peak while another thread solves, so the block is kept small.
_BLOCK = 64


def _check_complete(basis: PauliBasis, num_sites: int) -> None:
    if basis.num_sites != num_sites:
        raise ValueError("basis and model disagree on num_sites")
    if len(basis) != 4**num_sites:
        raise ValueError(f"need the complete string basis, got {len(basis)} of {4**num_sites}")


@dataclass(frozen=True)
class DissipatorFactor:
    """L_D in compact form.  With c = n xor m and s(b, m) = +-1 as S_b and
    S_m commute or anticommute, every pair (n, m) maps S_b onto S_{c xor b}:

        L_D[c xor b, b] = i^e(c, b) (A[c, b] - 1/2 (1 + s(b, c)) B[c]),
        A[c, b] = sum_m W[c, m] s(b, m),   W[c, m] = K'_{m xor c, m} i^e(m xor c, m),
        B[c] = sum_{n xor m = c} K'_nm i^e(m, n),   K' = K / 2^l.

    Kept: the strings c by basis index, [Re W; Im W] and B (``b_sum``)."""

    basis: PauliBasis
    jumps: PauliBasis
    products: np.ndarray
    w_stacked: np.ndarray
    b_sum: np.ndarray


def dissipator_factor(k: Union[KossakowskiSample, np.ndarray], jumps: PauliBasis,
                      basis: PauliBasis, *, validate: bool = True) -> DissipatorFactor:
    """Factor of L_D = sum_nm K_nm (L_n . L_m^dag - 1/2 {L_m^dag L_n, .}),
    with K checked for Hermiticity and positivity unless ``validate`` is false."""
    num_sites = jumps.num_sites
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
    return DissipatorFactor(basis, jumps, products, np.concatenate([w.real, w.imag]), b_sum)


def _write_dissipator(factor: DissipatorFactor, scale: float, out: np.ndarray) -> None:
    """Write scale * L_D into the entries of ``out`` it fills, one block of
    columns at a time: A is one product, and each c hits its own row of a
    column.  An imaginary residue above 1e-10 (a non-Hermitian K) raises
    :class:`NumericalError`."""
    basis, jx, jz = factor.basis, factor.jumps.x_array[:, None], factor.jumps.z_array[:, None]
    m = factor.products.size
    cx, cz = basis.x_array[factor.products, None], basis.z_array[factor.products, None]
    residue = 0.0
    for lo in range(0, len(basis), _BLOCK):
        cols = np.arange(lo, min(lo + _BLOCK, len(basis)))
        bx, bz = basis.x_array[cols], basis.z_array[cols]
        signs = 1.0 - 2.0 * anticommutes(jx, jz, bx, bz)
        a = factor.w_stacked @ signs
        a = a[:m] + 1j * a[m:]
        exponent = product_exponent(cx, cz, bx, bz)
        # S_c and S_b commute exactly where i^e is real
        a -= np.where(exponent % 2 == 0, factor.b_sum[:, None], 0.0)
        a *= PHASES[exponent]
        residue = max(residue, float(np.abs(a.imag).max()))
        out[basis.lookup(cx ^ bx, cz ^ bz), cols] = scale * a.real
    if residue > 1e-10:
        raise NumericalError(f"imaginary residue {residue:.3e} exceeds 1e-10")


def build_dissipator(k: Union[KossakowskiSample, np.ndarray], jumps: PauliBasis,
                     basis: PauliBasis, *, validate: bool = True) -> Superoperator:
    """Dense L_D: :func:`dissipator_factor` written into a zeroed matrix in
    Fortran order."""
    factor = dissipator_factor(k, jumps, basis, validate=validate)
    out = np.zeros((len(basis), len(basis)), order="F")
    _write_dissipator(factor, 1.0, out)
    return Superoperator(basis.num_sites, out)


def build_unitary_part(h: HamiltonianSpec, basis: PauliBasis) -> SparseSuperoperator:
    """Commutator generator -i[H, .] over the complete basis, the L_U that
    :func:`assemble` adds into each generator; see
    :func:`unitary_pauli_matrix` for a weight window."""
    _check_complete(basis, h.num_sites)
    return unitary_pauli_matrix(h, basis)


def assemble(l_u: SparseSuperoperator, l_d: DissipatorFactor, *,
             unitary: float = 1.0, dissipator: float = 1.0) -> Superoperator:
    """unitary * L_U + dissipator * L_D, written into one matrix laid out
    for an in-place solve (:func:`klindblad.openblas.solver_matrix`), with
    the bits of L_U added into dissipator * (dense L_D): even the empty
    entries hold a zero scaled as a zero of L_D would be."""
    if l_u.num_sites != l_d.basis.num_sites or l_u.dim != len(l_d.basis):
        raise ValueError("parts disagree on num_sites or basis size")
    matrix = solver_matrix(l_u.dim)
    matrix.fill(dissipator * 0.0)
    _write_dissipator(l_d, dissipator, matrix)
    matrix[l_u.rows, l_u.cols] += unitary * l_u.values
    return Superoperator(l_u.num_sites, matrix)


def assemble_weak(beta: float, l_u: SparseSuperoperator, l_d: DissipatorFactor) -> Superoperator:
    """``assemble(l_u, l_d, dissipator=beta)``, a name the benchmark's layer tracer wraps."""
    return assemble(l_u, l_d, dissipator=beta)


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


def string_basis_matrix(basis: PauliBasis) -> "scipy.sparse.csc_matrix":
    """Sparse isometry whose columns are vec(S / sqrt(2^l)) per basis string.

    Each string has exactly one nonzero per matrix column, so column j holds
    2^l entries at vec positions b * 2^l + (b xor x_j).  Only the test
    oracle calls it, so ``scipy.sparse`` is imported here and nowhere on a
    run's path.
    """
    import scipy.sparse as sp

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


def unitary_pauli_matrix(h: HamiltonianSpec, basis: PauliBasis) -> SparseSuperoperator:
    """Commutator generator -i[H, .] in the string basis, over any weight window.

    For each term J S_w and each basis string S_b anticommuting with it,
    -i[J S_w, S_b] = -2i J i^e(w, b) S_{w xor b} with i^e = +-i, so the entry
    is +2J at e = 1 and -2J at e = 3.  Distinct terms send S_b to distinct
    rows, so no entry repeats.  Only adjacent weight sectors couple, since a
    weight-2 term changes the weight of any string by exactly +-1 when the
    commutator survives; images outside a truncated basis are dropped.
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
    # int32 indices: a third less memory, and 4^l < 2^31 to 15 sites
    return SparseSuperoperator(h.num_sites, len(basis), np.concatenate(rows, dtype=np.int32),
                               np.concatenate(cols, dtype=np.int32), np.concatenate(vals))
