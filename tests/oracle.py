"""Computational-basis Kronecker builders: the test oracle for the direct
string-basis generators of ``klindblad.liouvillian``.

Vectorization is column-stacking, vec(A rho B) = (B^T kron A) vec(rho).
These builders form complex 4^l x 4^l matrices from dense jump operators,
so they are slow and memory-hungry above 5 sites; ``real_pauli`` rotates
their output into the production representation.  The package itself has
only that representation, so the column-stacked trace functional
``vec_identity`` lives here too.
"""

from math import sqrt
from typing import Union

import numpy as np

from klindblad.ensemble import HamiltonianSpec, KossakowskiSample, dense_hamiltonian
from klindblad.liouvillian import Superoperator, pauli_basis_form, real_pauli_form
from klindblad.pauli import PauliBasis, to_dense


def vec_identity(num_sites: int) -> np.ndarray:
    """vec(1), whose conjugate row annihilates a trace-preserving generator."""
    dim = 1 << num_sites
    return np.eye(dim, dtype=complex).reshape(-1, order="F")


def jump_stack(jumps: PauliBasis) -> np.ndarray:
    """Dense jump operators, ``stack[n]`` = strings[n] / sqrt(2^l)."""
    norm = sqrt(2.0**jumps.num_sites)
    return np.array([to_dense(s) / norm for s in jumps.strings])


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


def real_pauli(sup: Superoperator, basis: PauliBasis) -> np.ndarray:
    """The real string-basis matrix of a computational-basis superoperator."""
    return real_pauli_form(pauli_basis_form(sup, basis))
