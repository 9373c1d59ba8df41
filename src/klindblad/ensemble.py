"""Random model ensembles: Kossakowski matrices and 2-local Hamiltonians.

Randomness discipline: every run owns one 64-bit master seed.  Each
(realization, purpose) pair gets an independent substream via
:func:`substream`, so adding analysis draws or sweeping a coupling strength
never shifts the samples of another purpose.  The coupling strength is a
deterministic multiplier applied after sampling and must not touch the
streams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, count, product
from math import sqrt
from typing import Iterator, Optional

import numpy as np

from .pauli import PauliString, sector_dimension, to_dense

__all__ = [
    "STREAM_KOSSAKOWSKI",
    "STREAM_HAMILTONIAN",
    "STREAM_ANALYSIS",
    "substream",
    "haar_unitary",
    "KossakowskiSample",
    "HamiltonianSpec",
    "RANDOM_ALL_TO_ALL",
    "HEISENBERG_PBC",
    "kossakowski_dimension",
    "random_coupling_sigma",
    "sample_kossakowski",
    "sample_random_hamiltonian",
    "heisenberg_hamiltonian",
    "dense_hamiltonian",
    "kossakowski_to_json_dict",
    "kossakowski_json_chunks",
    "hamiltonian_to_json_dict",
]

STREAM_KOSSAKOWSKI = 0
STREAM_HAMILTONIAN = 1
STREAM_ANALYSIS = 2

RANDOM_ALL_TO_ALL = "random"
HEISENBERG_PBC = "heisenberg"


def substream(master_seed: int, realization: int, stream: int) -> np.random.Generator:
    """Independent generator for one (realization, purpose) pair."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(realization, stream))
    return np.random.default_rng(seq)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(n) sample.

    QR of a complex Ginibre matrix, with the R diagonal's phases folded into
    Q; without that correction the QR convention biases the distribution.
    """
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def kossakowski_dimension(num_sites: int, k_max: int) -> int:
    """Number of jump channels: strings with 1 <= weight <= k_max."""
    if not 1 <= k_max <= num_sites:
        raise ValueError(f"k_max {k_max} out of range for {num_sites} sites")
    return sum(sector_dimension(num_sites, k) for k in range(1, k_max + 1))


def random_coupling_sigma(num_sites: int) -> float:
    """Standard deviation sqrt(2 / (9 l (l-1))) of the 2-local couplings.

    Chosen so that E[Tr H^2] equals the Hilbert-space dimension: there are
    9 l (l-1) / 2 independent couplings, each contributing J^2 * 2^l.
    """
    if num_sites < 2:
        raise ValueError("need at least 2 sites for 2-local couplings")
    return sqrt(2.0 / (9.0 * num_sites * (num_sites - 1)))


@dataclass(frozen=True)
class KossakowskiSample:
    """One draw of the dissipative couplings over the jump-channel basis.

    ``k_matrix`` is Hermitian PSD with trace 2^num_sites; ``d_diag`` holds the
    eigenvalues it was built from (uniform, rescaled).  Row/column order is
    the jump-channel order of ``enumerate_basis(num_sites, k_max, 1)``.
    """

    num_sites: int
    k_max: int
    k_matrix: np.ndarray
    d_diag: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        n = kossakowski_dimension(self.num_sites, self.k_max)
        if self.k_matrix.shape != (n, n):
            raise ValueError(
                f"k_matrix shape {self.k_matrix.shape} does not match {n} jump channels"
            )
        if self.d_diag.shape != (n,):
            raise ValueError(f"d_diag shape {self.d_diag.shape} does not match {n} channels")

    @property
    def jump_dimension(self) -> int:
        return self.k_matrix.shape[0]

    @property
    def mean_diagonal_target(self) -> float:
        return 2.0**self.num_sites / self.jump_dimension


def sample_kossakowski(
    num_sites: int,
    k_max: int = 2,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> KossakowskiSample:
    """Sample K = U^dag D U with uniform D rescaled to trace 2^num_sites.

    The diagonal is drawn i.i.d. uniform on [0, 1] first, then rescaled, so
    positivity is automatic; U is Haar.  Pass exactly one of seed / rng.
    """
    if (seed is None) == (rng is None):
        raise ValueError("pass exactly one of seed or rng")
    if rng is None:
        rng = np.random.default_rng(seed)
    n = kossakowski_dimension(num_sites, k_max)
    d = rng.uniform(0.0, 1.0, size=n)
    d *= 2.0**num_sites / d.sum()
    u = haar_unitary(n, rng)
    k = u.conj().T @ (d[:, None] * u)
    k = 0.5 * (k + k.conj().T)  # scrub rounding asymmetry
    return KossakowskiSample(num_sites, k_max, k, d, seed=seed)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Weight-2 Pauli expansion of a Hamiltonian, H = sum_S J_S S.

    ``coefficients`` maps weight-2 strings to real couplings; iteration order
    is the (deterministic) construction order and is part of the
    serialization contract.
    """

    num_sites: int
    kind: str
    coefficients: dict[PauliString, float] = field(compare=False)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in (RANDOM_ALL_TO_ALL, HEISENBERG_PBC):
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        for s in self.coefficients:
            if s.num_sites != self.num_sites:
                raise ValueError(f"term {s} does not act on {self.num_sites} sites")
            if s.weight != 2:
                raise ValueError(f"term {s} has weight {s.weight}; only weight-2 terms allowed")


def sample_random_hamiltonian(
    num_sites: int,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    exact_norm: bool = False,
) -> HamiltonianSpec:
    """All-to-all 2-local Hamiltonian with i.i.d. Gaussian couplings.

    Couplings are N(0, sigma^2) with sigma from :func:`random_coupling_sigma`,
    which normalizes Tr H^2 to 2^num_sites on ensemble average.  With
    ``exact_norm`` the draw is rescaled so the trace condition holds exactly
    for this realization (sum of squared couplings forced to 1).
    """
    if (seed is None) == (rng is None):
        raise ValueError("pass exactly one of seed or rng")
    if rng is None:
        rng = np.random.default_rng(seed)
    sigma = random_coupling_sigma(num_sites)
    pairs = list(combinations(range(num_sites), 2))
    draws = rng.normal(0.0, sigma, size=9 * len(pairs))
    if exact_norm:
        draws = draws / sqrt(float(np.sum(draws**2)))
    coeffs: dict[PauliString, float] = {}
    idx = 0
    for i, j in pairs:
        for si, sj in product("XYZ", repeat=2):
            term = PauliString.from_site_letters(num_sites, [(i, si), (j, sj)])
            coeffs[term] = float(draws[idx])
            idx += 1
    return HamiltonianSpec(num_sites, RANDOM_ALL_TO_ALL, coeffs, seed=seed)


def heisenberg_hamiltonian(num_sites: int) -> HamiltonianSpec:
    """XXX chain with periodic boundary, J = 1/sqrt(3 l) on every bond.

    The coupling makes Tr H^2 = 2^num_sites exact.  Three sites is the
    smallest ring on which the bond list has no duplicates.
    """
    if num_sites < 3:
        raise ValueError(f"periodic chain needs at least 3 sites, got {num_sites}")
    j = 1.0 / sqrt(3.0 * num_sites)
    coeffs: dict[PauliString, float] = {}
    for i in range(num_sites):
        k = (i + 1) % num_sites
        a, b = min(i, k), max(i, k)
        for letter in "XYZ":
            term = PauliString.from_site_letters(num_sites, [(a, letter), (b, letter)])
            coeffs[term] = j
    return HamiltonianSpec(num_sites, HEISENBERG_PBC, coeffs)


def dense_hamiltonian(spec: HamiltonianSpec) -> np.ndarray:
    dim = 1 << spec.num_sites
    h = np.zeros((dim, dim), dtype=complex)
    for string, coupling in spec.coefficients.items():
        h += coupling * to_dense(string)
    return h


# --- JSON serialization -----------------------------------------------------
#
# The records behind the manifest's model digests.  Floats pass through
# json's repr-based formatting, which is bit-exact; complex entries are
# emitted as (row, col, re, im) rows.


def _kossakowski_header(sample: KossakowskiSample) -> dict:
    return {"type": "kossakowski", "num_sites": sample.num_sites, "k_max": sample.k_max,
            "seed": sample.seed, "d_diag": [float(x) for x in sample.d_diag]}


def kossakowski_to_json_dict(sample: KossakowskiSample) -> dict:
    n = sample.jump_dimension
    entries = []
    for r in range(n):
        for c in range(n):
            v = sample.k_matrix[r, c]
            entries.append([r, c, float(v.real), float(v.imag)])
    return {**_kossakowski_header(sample), "k_matrix": entries}


def kossakowski_json_chunks(sample: KossakowskiSample) -> Iterator[str]:
    """``json.dumps(kossakowski_to_json_dict(sample), sort_keys=True)`` in
    pieces of 64 rows of K each, so that its n^2 entry records never exist
    at once: the manifest digests K this way."""
    head, tail = json.dumps({**_kossakowski_header(sample), "k_matrix": []},
                            sort_keys=True).split('"k_matrix": []')
    yield head + '"k_matrix": ['
    for lo in range(0, sample.jump_dimension, 64):
        block = sample.k_matrix[lo : lo + 64]
        yield (", " if lo else "") + json.dumps([
            [r, c, re, im] for r, row_re, row_im in
            zip(count(lo), block.real.tolist(), block.imag.tolist())
            for c, (re, im) in enumerate(zip(row_re, row_im))])[1:-1]
    yield "]" + tail


def hamiltonian_to_json_dict(spec: HamiltonianSpec) -> dict:
    return {
        "type": "hamiltonian",
        "num_sites": spec.num_sites,
        "kind": spec.kind,
        "seed": spec.seed,
        "coefficients": [[s.to_label(), float(j)] for s, j in spec.coefficients.items()],
    }
