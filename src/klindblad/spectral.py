"""Spectral analysis of dense superoperators.

Everything downstream of an eigendecomposition that a run reports lives
here: the closed-form spectrum of the commutator generator L_U from the
levels of H, cluster bookkeeping against predicted centers, complex spacing
ratios with synthetic references, operator-weight profiles of eigenmodes,
commutant bases, persistence across a coupling sweep (the strongest
coupling's modes, every coupling's window counts), and spectral density
histograms.  The weight profiles of all modes come from one reader,
:func:`weight_profiles`, which the eigenvalue tables and the persistent
modes both use, so the two give one mode the same floats.

Eigenvalue order is canonical throughout: descending real part, then
ascending imaginary part, so reports and CSV rows are stable for a fixed
input matrix.  ``diagonalize`` solves a real generator in place with LAPACK
``dgeev`` and keeps the right modes in its packed real form, which
``Spectrum.modes`` alone unpacks, in canonical order and a block of columns
at a time, so an eigenvector solve holds the generator and LAPACK's real
eigenvectors, and never an n x n complex matrix of modes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import openblas
from .ensemble import HamiltonianSpec, dense_hamiltonian
from .errors import EigensolverError, SpectralAnalysisError
from .liouvillian import Superoperator, unitary_pauli_matrix
from .pauli import PauliBasis

__all__ = [
    "Spectrum",
    "diagonalize",
    "unitary_eigenvalues",
    "CsrHistogram",
    "complex_spacing_ratios",
    "ks_statistic",
    "csr_reference_ginibre",
    "csr_reference_poisson",
    "Cluster",
    "ClusterReport",
    "cluster_by_centers",
    "weight_profiles",
    "random_weight_operator",
    "commutant_basis",
    "TrackedMode",
    "persistent_modes",
    "window_counts",
    "Density2D",
    "spectral_density",
    "density_total_variation",
]

STEADY_TOL = 1e-8


def _canonical_order(eigs: np.ndarray) -> np.ndarray:
    return np.lexsort((eigs.imag, -eigs.real))


# Seed of the fixed unit vector that probes the eigen residual.
PROBE_SEED = 0


@dataclass
class Spectrum:
    """Eigenvalues in canonical order and, if kept, the right modes.

    A spectrum that kept its right modes holds them as ``dgeev`` packs them:
    the real eigenvectors ``vr`` and the imaginary parts ``wi`` of the
    eigenvalues, both in solver order, and the canonical ``order``; after a
    complex solve ``vr`` holds ``np.linalg.eig``'s modes and ``wi`` is None.
    Readers unpack canonical columns with ``modes`` or walk them with
    ``mode_blocks``; nothing else reads the modes.  ``diag_residual`` is the
    probe residual of ``diagonalize``.
    """

    eigenvalues: np.ndarray
    vr: Optional[np.ndarray] = field(default=None, repr=False)
    wi: Optional[np.ndarray] = field(default=None, repr=False)
    order: Optional[np.ndarray] = field(default=None, repr=False)
    diag_residual: float = 0.0

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def has_modes(self) -> bool:
        return self.vr is not None

    @cached_property
    def _pairing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """For each canonical mode: the ``vr`` columns of its real and
        imaginary parts, whether it is a conjugate, and whether it is real.
        As numpy reads dgeev, a real eigenvalue owns its column, and a complex
        pair j, j + 1, which LAPACK lists with Im > 0 first, owns the modes
        vr_j + i vr_{j+1} and their conjugate."""
        n, first = self.wi.size, np.flatnonzero(self.wi > 0)
        re_col, im_col, conjugate = np.arange(n), np.arange(n), np.zeros(n, dtype=bool)
        re_col[first + 1], im_col[first], conjugate[first + 1] = first, first + 1, True
        o = self.order
        return re_col[o], im_col[o], conjugate[o], (self.wi == 0)[o]

    def modes(self, cols: Union[slice, Sequence[int]]) -> np.ndarray:
        """The right modes at canonical indices ``cols`` as the columns of a
        Fortran-ordered array, bit for bit those columns of the modes of
        ``np.linalg.eig`` taken in canonical order.  The modes are real when
        every ``wi`` is 0, as numpy returns them."""
        if self.wi is None:
            return self.vr[:, self.order[cols]]
        re_col, im_col, conjugate, real = (a[cols] for a in self._pairing)
        complex_modes = bool(self.wi.any())
        out = np.empty((self.vr.shape[0], re_col.size), complex if complex_modes else float, "F")
        out.real = self.vr[:, re_col]
        if complex_modes:
            im = self.vr[:, im_col]
            im[:, conjugate] *= -1.0
            im[:, real] = 0.0
            out.imag = im
        return out

    def mode_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """(canonical columns, ``modes`` of them), ``_MODE_BLOCK`` columns at
        a time."""
        for lo in range(0, self.dim, _MODE_BLOCK):
            cols = slice(lo, lo + _MODE_BLOCK)
            yield cols, self.modes(cols)


def _fingerprint(matrix: np.ndarray) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()
    return f"shape={matrix.shape} dtype={matrix.dtype} sha256={digest[:16]}"


# Columns per block when a generator is checked for non-finite entries and
# when the right modes are unpacked from LAPACK's real form; each block's
# temporaries are at most a few (n x block) arrays.
_MODE_BLOCK = 64

# A vectors solve fails when its probe residual exceeds this many times
# max(1, max |y^T M|); healthy solves at 3-6 sites stay below 4e-15 times it.
RESIDUAL_TOL = 1e-8


def _all_finite(m: np.ndarray) -> bool:
    """np.isfinite(m).all(), one block of columns at a time, so that no
    n x n mask is formed."""
    n = m.shape[1]
    return all(np.isfinite(m[:, lo : lo + _MODE_BLOCK]).all() for lo in range(0, n, _MODE_BLOCK))


def diagonalize(s: Superoperator, vectors: bool = True) -> Spectrum:
    """Full non-Hermitian eigendecomposition of a superoperator.

    A real float64 ``s.matrix`` is consumed: LAPACK ``dgeev`` of numpy's
    OpenBLAS (see :mod:`klindblad.openblas`) overwrites it with its Schur
    form, so a caller that reads the matrix afterwards passes a copy.  The
    eigenvalues and the modes ``Spectrum.modes`` unpacks are bit for bit
    those of ``np.linalg.eigvals``/``eig``, which still serve complex input
    and runs where that library or its ``dgeev`` is not found.

    With ``vectors`` the spectrum keeps the right modes packed (see
    ``Spectrum``) and the residual max |(y^T M) V - (y^T V) Lambda| of one
    fixed unit vector y, with y^T M taken before the solve and V read a
    block of columns at a time.  It costs O(n^2) where the full
    max |MV - V Lambda| costs an O(n^3) product, and never exceeds sqrt(n)
    times it.  A residual above ``RESIDUAL_TOL`` * max(1, max |y^T M|)
    raises ``EigensolverError``.
    """
    m = s.matrix
    if vectors:
        y = np.random.default_rng(PROBE_SEED).standard_normal(m.shape[0])
        y /= np.linalg.norm(y)
        y_m = y @ m
    solved = None
    if m.dtype == np.float64:
        if not _all_finite(m):
            raise EigensolverError(f"non-finite entries in {_fingerprint(m)}")
        solved = openblas.dgeev(m, vectors)
    if solved is None:
        try:
            eigs, vr = np.linalg.eig(m) if vectors else (np.linalg.eigvals(m), None)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigensolver failed on {_fingerprint(m)}") from exc
        wi = None
    else:
        wr, wi, vr, info = solved
        if info != 0:
            raise EigensolverError(f"dgeev failed with info {info} on a {m.shape} {m.dtype} matrix")
        if wi.any():
            eigs = np.empty(wr.size, dtype=complex)
            eigs.real, eigs.imag = wr, wi
        else:
            eigs = wr
    order = _canonical_order(eigs)
    eigs = eigs[order]
    if not vectors:
        return Spectrum(eigs)
    spectrum = Spectrum(eigs, vr, wi, order)
    spectrum.diag_residual = max(float(np.abs(y_m @ block - (y @ block) * eigs[cols]).max())
                                 for cols, block in spectrum.mode_blocks())
    scale = max(1.0, float(np.abs(y_m).max()))
    if not spectrum.diag_residual <= RESIDUAL_TOL * scale:
        raise EigensolverError(
            f"probe residual {spectrum.diag_residual:.3g} exceeds {RESIDUAL_TOL:g} * {scale:.3g}"
            f" on a {m.shape} {m.dtype} matrix")
    return spectrum


# Levels of a 2-local H that are Kramers partners at an odd number of sites
# agree to ~1e-15, while distinct levels lie ~1e-2 apart.
LEVEL_MERGE_TOL = 1e-9


def unitary_eigenvalues(h: HamiltonianSpec, distinct: bool = False) -> np.ndarray:
    """Spectrum of L_U = -i[H, .] from the 2^l levels E of H.

    The eigenvalues are the 4^l differences i(E_m - E_n), in canonical
    order, with Re exactly 0 and an exact zero for every m = n; one
    ``eigvalsh`` of the dense H replaces a dense solve of L_U.  With
    ``distinct``, levels closer than ``LEVEL_MERGE_TOL`` are merged first,
    so each pair of distinct levels gives its two differences once.  At an
    odd number of sites every 2-local H commutes with the antiunitary
    Theta = prod(sigma^y) K, whose square is -1, so every level is a Kramers
    pair whose repeated differences would enter spacing ratios as ties
    decided by rounding.
    """
    dense = dense_hamiltonian(h)
    try:
        levels = np.linalg.eigvalsh(dense)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigvalsh failed on {_fingerprint(dense)}") from exc
    if not np.isfinite(levels).all():
        raise EigensolverError(f"non-finite levels of {_fingerprint(dense)}")
    if distinct:
        levels = levels[np.r_[True, np.diff(levels) > LEVEL_MERGE_TOL]]
    # built from zeros so that Re is +0.0, never the -0.0 of 1j * (negative)
    eigs = np.zeros(levels.size**2, dtype=complex)
    eigs.imag = (levels[:, None] - levels[None, :]).ravel()
    return eigs[_canonical_order(eigs)]


# --- complex spacing ratios -------------------------------------------------


# Points per row block of the spacing-ratio neighbor search: each block is a
# (block x points) distance matrix, 2 MB at 1024 points.
_NEIGHBOR_BLOCK = 256


@dataclass(frozen=True)
class CsrHistogram:
    """Nearest over next-nearest neighbor distance ratios, binned on [0, 1]."""

    ratios: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, ratios: np.ndarray, bins: int) -> "CsrHistogram":
        """The ratios in ``bins`` equal bins on [0, 1]."""
        counts, edges = np.histogram(ratios, bins=bins, range=(0.0, 1.0))
        return cls(ratios, edges, counts)

    @property
    def mean_ratio(self) -> float:
        return float(self.ratios.mean())

    @property
    def density(self) -> np.ndarray:
        widths = np.diff(self.bin_edges)
        return self.counts / (self.ratios.size * widths)


def _spacing_ratios(points: np.ndarray) -> np.ndarray:
    """Nearest over next-nearest neighbor distance for each point; 1 when
    the next-nearest distance is 0."""
    n = points.size
    ratios = np.empty(n)
    for lo in range(0, n, _NEIGHBOR_BLOCK):
        hi = min(lo + _NEIGHBOR_BLOCK, n)
        d = np.abs(points[lo:hi, None] - points[None, :])
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        # the ratio depends only on the two smallest distances, not on
        # which neighbors they belong to
        d.partition(1, axis=1)
        nn, nnn = d[:, 0], d[:, 1]
        ratios[lo:hi] = np.divide(nn, nnn, out=np.ones(hi - lo), where=nnn > 0)
    return ratios


def complex_spacing_ratios(
    eigs: np.ndarray,
    bins: int = 20,
    min_count: int = 3,
) -> CsrHistogram:
    """Ratio |l - l_nn| / |l - l_nnn| for each retained eigenvalue.

    Only eigenvalues with Im > 1e-10 are kept: that deduplicates the
    conjugate-symmetric spectrum before neighbor search, keeping one of
    each conjugate pair, and drops the real eigenvalues, whose sign of Im
    is rounding noise.  Requires at least ``min_count`` retained eigenvalues,
    and never fewer than 3.
    """
    eigs = np.asarray(eigs, dtype=complex).ravel()
    kept = eigs[eigs.imag > 1e-10]
    needed = max(int(min_count), 3)
    if kept.size < needed:
        raise SpectralAnalysisError(
            f"{kept.size} eigenvalues have Im > 1e-10; "
            f"need at least {needed} for spacing ratios"
        )
    return CsrHistogram.of(_spacing_ratios(kept), bins)


# Up to this many samples on either side, ks_statistic rounds like the exact
# mode of scipy.stats.ks_2samp.
KS_EXACT_MAX = 10000


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the
    empirical distribution functions of ``a`` and ``b``.

    Both functions are read at every sample with ``searchsorted``, so ties
    count once.  While neither sample exceeds ``KS_EXACT_MAX`` values the
    gap is rounded to the nearest multiple of 1 / lcm(n1, n2), as the exact
    mode of ``scipy.stats.ks_2samp`` does, whose statistic this equals.
    """
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = (np.searchsorted(a, both, side="right") / a.size
           - np.searchsorted(b, both, side="right") / b.size)
    d = float(np.abs(gap).max())
    if max(a.size, b.size) <= KS_EXACT_MAX:
        lcm = math.lcm(a.size, b.size)
        d = round(d * lcm) / lcm
    return d


def csr_reference_ginibre(
    n: int, samples: int, rng: np.random.Generator, bins: int = 20
) -> CsrHistogram:
    """Spacing-ratio reference from i.i.d. complex Gaussian matrices."""
    if n < 8:
        raise ValueError(f"reference matrices below 8x8 are too small, got {n}")
    all_ratios = []
    for _ in range(samples):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        all_ratios.append(_spacing_ratios(np.linalg.eigvals(g)))
    return CsrHistogram.of(np.concatenate(all_ratios), bins)


def csr_reference_poisson(
    count: int,
    samples: int,
    rng: np.random.Generator,
    geometry: str = "disk",
    bins: int = 20,
) -> CsrHistogram:
    """Uncorrelated reference: i.i.d. points in a disk or on a line.

    The two geometries have different ratio laws (p(r) = 2r in the disk,
    flat on the line), so the control must match the dimensionality of the
    spectrum it is compared against.
    """
    if count < 3:
        raise ValueError(f"need at least 3 points per sample, got {count}")
    all_ratios = []
    for _ in range(samples):
        if geometry == "disk":
            radius = np.sqrt(rng.uniform(0.0, 1.0, size=count))
            angle = rng.uniform(0.0, 2.0 * np.pi, size=count)
            pts = radius * np.exp(1j * angle)
        elif geometry == "line":
            pts = rng.uniform(0.0, 1.0, size=count).astype(complex)
        else:
            raise ValueError(f"unknown geometry {geometry!r}")
        all_ratios.append(_spacing_ratios(pts))
    return CsrHistogram.of(np.concatenate(all_ratios), bins)


# --- clustering -------------------------------------------------------------


@dataclass
class Cluster:
    """Eigenvalues assigned to one predicted center."""

    label: str
    target: float
    member_indices: np.ndarray
    center: Optional[complex]
    std_re: Optional[float]
    std_im: Optional[float]

    @property
    def population(self) -> int:
        return self.member_indices.size


@dataclass
class ClusterReport:
    clusters: list[Cluster]
    steady_indices: np.ndarray
    separation_score: Optional[float]


# Predicted centers closer than this are one center: exact collisions between
# weight sectors are a real feature of the unperturbed spectrum.
CENTER_MERGE_TOL = 1e-9


def _merge_centers(
    centers: Sequence[tuple[Union[int, str], float]]
) -> list[tuple[str, float]]:
    ordered = sorted(centers, key=lambda item: item[1])
    merged: list[tuple[list, float]] = []
    for label, value in ordered:
        if merged and abs(value - merged[-1][1]) < CENTER_MERGE_TOL:
            merged[-1][0].append(label)
        else:
            merged.append(([label], value))
    return [(",".join(str(x) for x in labels), value) for labels, value in merged]


def cluster_by_centers(
    eigs: np.ndarray,
    centers: Sequence[tuple[Union[int, str], float]],
) -> ClusterReport:
    """Assign each eigenvalue to the nearest center by real part.

    Centers within ``CENTER_MERGE_TOL`` of each other are merged first and
    carry a comma-joined label.  Clusters extend vertically once the
    coupling is on, so only Re enters the distance.  Eigenvalues within
    ``STEADY_TOL`` of zero are the steady sector and are kept out of the
    assignment.
    """
    eigs = np.asarray(eigs, dtype=complex).ravel()
    if eigs.size == 0:
        raise SpectralAnalysisError("empty eigenvalue set")
    if not centers:
        raise SpectralAnalysisError("no cluster centers given")
    merged = _merge_centers(centers)
    steady = np.flatnonzero(np.abs(eigs) < STEADY_TOL)
    active = np.setdiff1d(np.arange(eigs.size), steady)
    targets = np.array([value for _, value in merged])
    nearest = np.abs(eigs.real[active, None] - targets[None, :]).argmin(axis=1)
    clusters = []
    for j, (label, value) in enumerate(merged):
        members = active[nearest == j]
        if members.size:
            vals = eigs[members]
            clusters.append(
                Cluster(
                    label,
                    value,
                    members,
                    complex(vals.mean()),
                    float(vals.real.std()),
                    float(vals.imag.std()),
                )
            )
        else:
            clusters.append(Cluster(label, value, members, None, None, None))
    occupied = [c for c in clusters if c.population]
    score: Optional[float] = None
    if len(occupied) >= 2:
        means = [c.center.real for c in occupied]
        gaps = [abs(a - b) for i, a in enumerate(means) for b in means[i + 1 :]]
        spreads = [
            float(eigs[c.member_indices].real.max() - eigs[c.member_indices].real.min())
            for c in occupied
        ]
        widest = max(spreads)
        score = min(gaps) / widest if widest > 0 else float("inf")
    return ClusterReport(clusters, steady, score)


# --- eigenmode operator content ---------------------------------------------


def weight_profiles(
    spectrum: Spectrum, basis: PauliBasis, probe: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Operator-weight content of the right modes a spectrum kept, as
    columns over ``basis``.

    Returns the profiles, one row per mode with w_k = sum over weight-k
    strings of |<S|mode>|^2 / |mode|^2 for k in ``basis.weights()``, the
    modes' norms, and, given a real ``probe`` over ``basis``, the overlaps
    |<probe|mode>| / |mode| (else None).  Each row sums to 1 for a complete
    basis.  The modes are unpacked one block of columns at a time
    (``Spectrum.mode_blocks``), so the temporaries are a few
    (strings x block) arrays.
    """
    if spectrum.vr.shape[0] != len(basis):
        raise ValueError(f"mode length {spectrum.vr.shape[0]} is not the basis size {len(basis)}")
    starts = [basis.sector(k).start for k in basis.weights()]
    profiles, norms = np.empty((spectrum.dim, len(starts))), np.empty(spectrum.dim)
    overlaps = None if probe is None else np.empty(spectrum.dim)
    for cols, block in spectrum.mode_blocks():
        power = np.abs(block)
        np.square(power, out=power)
        column_sums = power.sum(axis=0)
        norms[cols] = np.sqrt(column_sums)
        if probe is not None:
            overlaps[cols] = np.abs(probe @ block) / norms[cols]
        power /= column_sums
        profiles[cols] = np.add.reduceat(power, starts, axis=0).T
    return profiles, norms, overlaps


def random_weight_operator(
    basis: PauliBasis, weight: int, rng: np.random.Generator
) -> np.ndarray:
    """Unit-norm Gaussian superposition supported on one weight sector.

    Returned as real coefficients over the full basis, so it doubles as a
    Hermitian test operator and as an overlap probe.
    """
    sector = basis.sector(weight)
    coeffs = np.zeros(len(basis))
    g = rng.standard_normal(sector.stop - sector.start)
    coeffs[sector] = g / np.linalg.norm(g)
    return coeffs


# Singular values below this fraction of the largest span the commutant.
COMMUTANT_NULL_TOL = 1e-10


def commutant_basis(
    h: HamiltonianSpec,
    weight: int,
) -> np.ndarray:
    """Orthonormal basis of weight-``weight`` operators commuting with H.

    Restricts the commutator generator to the given weight sector; its
    image lives in the adjacent sectors, and the kernel, read off from the
    singular values below ``COMMUTANT_NULL_TOL`` relative to the largest, is
    the commutant slice.  Columns are coefficient vectors over that sector's
    strings.
    """
    num_sites = h.num_sites
    if not 0 <= weight <= num_sites:
        raise ValueError(f"weight {weight} out of range for {num_sites} sites")
    lo = max(0, weight - 1)
    hi = min(num_sites, weight + 1)
    basis = PauliBasis(num_sites, max_weight=hi, min_weight=lo)
    l_u = unitary_pauli_matrix(h, basis)
    cols = basis.sector(weight)
    rows = [basis.sector(k) for k in range(lo, hi + 1) if k != weight]
    blocks = [l_u.block(r, cols) for r in rows]
    n_w = cols.stop - cols.start
    if not blocks:
        return np.eye(n_w)
    a = np.vstack(blocks)
    _, sigma, vt = np.linalg.svd(a, full_matrices=True)
    top = sigma[0] if sigma.size else 0.0
    if top == 0.0:
        return np.eye(n_w)
    rank = int(np.sum(sigma > COMMUTANT_NULL_TOL * top))
    return vt[rank:].conj().T


# --- persistence across a coupling sweep ------------------------------------


@dataclass(frozen=True)
class TrackedMode:
    index: int
    eigenvalue: complex
    profile: np.ndarray
    best_reference: tuple[str, float]
    span_overlap: float


def persistent_modes(
    spectrum: Spectrum,
    weights: tuple[np.ndarray, np.ndarray, Optional[np.ndarray]],
    basis: PauliBasis,
    centers: Sequence[tuple[Union[int, str], float]],
    reference_operators: Sequence[tuple[str, np.ndarray]],
    window: float = 0.05,
    weight_threshold: float = 0.8,
) -> list[tuple[str, float, tuple[TrackedMode, ...]]]:
    """The modes of the strongest coupling that stay pinned to unperturbed
    centers, as (label, center, modes) per merged center.

    A mode of ``spectrum``, which kept its modes, is persistent for a center
    c when it sits within ``window * |c|`` of c and its operator-weight
    profile, read from ``weights`` (the spectrum's :func:`weight_profiles`
    over ``basis``), keeps at least ``weight_threshold`` of its mass in the
    center's weight sectors.  Each persistent mode is scored against the
    reference operators, given as coefficient vectors over ``basis``, by
    |<op|mode>| with both sides unit-normalized, and by the norm of its
    projection on their span.
    """
    if not spectrum.has_modes:
        raise ValueError("persistence reads a spectrum that kept its modes")
    stacked = np.column_stack([op for _, op in reference_operators]).astype(complex)
    q, r = np.linalg.qr(stacked)
    ortho_span = q[:, np.abs(np.diagonal(r)) > 1e-12]
    ref_norms = np.linalg.norm(stacked, axis=0)
    if not ref_norms.all():
        raise SpectralAnalysisError("zero reference operator")
    stacked /= ref_norms

    profiles, norms, _ = weights
    eigs = spectrum.eigenvalues
    groups = []
    for label, center in _merge_centers(centers):
        weights_in_label = {int(w) for w in label.split(",")}
        kept = [int(i) for i in np.flatnonzero(np.abs(eigs - center) < window * abs(center))
                if sum(profiles[i, k - basis.min_weight] for k in weights_in_label)
                >= weight_threshold]
        unit = spectrum.modes(kept)
        unit /= norms[kept]
        overlaps = np.abs(stacked.conj().T @ unit)
        best = [(reference_operators[j][0], float(overlaps[j, c]))
                for c, j in enumerate(overlaps.argmax(axis=0))]
        span = np.linalg.norm(ortho_span.conj().T @ unit, axis=0).tolist()
        modes = tuple(TrackedMode(i, complex(eigs[i]), profiles[i], b, s)
                      for i, b, s in zip(kept, best, span))
        groups.append((label, center, modes))
    return groups


def window_counts(
    sweep: Sequence[np.ndarray],
    centers: Sequence[tuple[Union[int, str], float]],
    window: float = 0.05,
) -> tuple[bool, list[tuple[int, ...]]]:
    """Whether a coupling sweep's eigenvalue sets are all one set, which
    makes every mode trivially persistent, and for each merged center c (in
    :func:`persistent_modes` order) the number of eigenvalues within
    ``window * |c|`` of c at every sweep point."""
    if len(sweep) < 2:
        raise ValueError("persistence needs at least 2 sweep points")
    ref = np.sort_complex(sweep[0])
    degenerate = all(np.abs(np.sort_complex(eigs) - ref).max() < 1e-12 for eigs in sweep[1:])
    counts = [tuple(int(np.sum(np.abs(eigs - center) < window * abs(center))) for eigs in sweep)
              for _, center in _merge_centers(centers)]
    return degenerate, counts


# --- spectral density -------------------------------------------------------


@dataclass(frozen=True)
class Density2D:
    """Normalized eigenvalue density over a complex-plane grid."""

    re_edges: np.ndarray
    im_edges: np.ndarray
    counts: np.ndarray
    total: int

    @property
    def probability(self) -> np.ndarray:
        return self.counts / self.total

    @property
    def density(self) -> np.ndarray:
        areas = np.outer(np.diff(self.re_edges), np.diff(self.im_edges))
        return self.probability / areas


def spectral_density(
    eigs: np.ndarray,
    re_bins: int = 40,
    im_bins: int = 40,
    re_range: Optional[tuple[float, float]] = None,
    im_range: Optional[tuple[float, float]] = None,
    im_scale: float = 1.0,
) -> Density2D:
    """2D histogram of eigenvalues, optionally rescaling the imaginary axis.

    ``im_scale`` multiplies Im before binning; passing 1/coupling collapses
    sweeps onto a common vertical scale.
    """
    eigs = np.asarray(eigs, dtype=complex).ravel()
    if eigs.size == 0:
        raise SpectralAnalysisError("empty eigenvalue set")
    re = eigs.real
    im = eigs.imag * im_scale
    counts, re_edges, im_edges = np.histogram2d(
        re, im, bins=(re_bins, im_bins), range=[re_range, im_range]
    )
    return Density2D(re_edges, im_edges, counts, eigs.size)


def density_total_variation(a: Density2D, b: Density2D) -> float:
    """Half the L1 distance between two histograms on the same grid."""
    if a.counts.shape != b.counts.shape:
        raise ValueError("histogram grids differ in shape")
    if not (np.allclose(a.re_edges, b.re_edges) and np.allclose(a.im_edges, b.im_edges)):
        raise ValueError("histogram grids differ in bin edges")
    return 0.5 * float(np.abs(a.probability - b.probability).sum())
