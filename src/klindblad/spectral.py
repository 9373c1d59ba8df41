"""Spectral analysis of dense superoperators.

Everything downstream of an eigendecomposition lives here: biorthogonal
mode pairs, the closed-form spectrum of the commutator generator L_U from
the levels of H, trace-preservation and symmetry sanity reports, cluster
bookkeeping against predicted centers, complex spacing ratios with
synthetic references, operator-weight profiles of eigenmodes, commutant
bases, persistence tracking across a coupling sweep, spectral density
histograms, and expectation-value evolution from the mode expansion.

Eigenvalue order is canonical throughout: descending real part, then
ascending imaginary part, so reports and CSV rows are stable for a fixed
input matrix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .ensemble import HamiltonianSpec, dense_hamiltonian
from .errors import EigensolverError, SpectralAnalysisError
from .liouvillian import Superoperator, unitary_pauli_matrix
from .pauli import PauliBasis

__all__ = [
    "Spectrum",
    "diagonalize",
    "unitary_eigenvalues",
    "CptpReport",
    "cptp_checks",
    "conjugation_residual",
    "CsrHistogram",
    "complex_spacing_ratios",
    "csr_reference_ginibre",
    "csr_reference_poisson",
    "Cluster",
    "ClusterReport",
    "cluster_by_centers",
    "mode_weight_profile",
    "random_weight_operator",
    "operator_overlap",
    "commutant_basis",
    "TrackedMode",
    "TrackedGroup",
    "PersistenceReport",
    "persistent_modes",
    "Density2D",
    "spectral_density",
    "density_total_variation",
    "evolve_expectation",
]

STEADY_TOL = 1e-8


def _canonical_order(eigs: np.ndarray) -> np.ndarray:
    return np.lexsort((eigs.imag, -eigs.real))


# A right-mode matrix whose inverse misses biorthogonality by more than this
# belongs to a near-defective matrix.
BIORTH_TOL = 1e-6

# Seed of the fixed unit vector that probes the eigen residual.
PROBE_SEED = 0


@dataclass
class Spectrum:
    """Eigendecomposition with biorthogonal left and right modes.

    ``right_modes`` holds modes as columns; it is None for an
    eigenvalues-only decomposition.  ``diag_residual`` is the probe residual
    of ``diagonalize``.  ``left_modes`` holds modes as rows, scaled so that
    left_modes @ right_modes = 1; it, ``biorth_residual`` and
    ``diagonalizable`` come from inverting the right modes, an O(n^3) step
    taken on first access only and cached.  ``diagonalizable`` is False when
    the left system could not be recovered (near-defective matrix).
    """

    num_sites: int
    eigenvalues: np.ndarray
    right_modes: Optional[np.ndarray] = field(default=None, repr=False)
    diag_residual: float = 0.0

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def steady_indices(self, tol: float = STEADY_TOL) -> np.ndarray:
        return np.flatnonzero(np.abs(self.eigenvalues) < tol)

    @cached_property
    def left_modes(self) -> Optional[np.ndarray]:
        if self.right_modes is None:
            return None
        try:
            return np.linalg.inv(self.right_modes)
        except np.linalg.LinAlgError:
            return None

    @cached_property
    def biorth_residual(self) -> float:
        if self.right_modes is None:
            return 0.0
        if self.left_modes is None:
            return np.inf
        return float(np.abs(self.left_modes @ self.right_modes - np.eye(self.dim)).max())

    @property
    def diagonalizable(self) -> bool:
        return self.biorth_residual < BIORTH_TOL


def _fingerprint(matrix: np.ndarray) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()
    return f"shape={matrix.shape} dtype={matrix.dtype} sha256={digest[:16]}"


def diagonalize(s: Superoperator, vectors: bool = True) -> Spectrum:
    """Full non-Hermitian eigendecomposition of a superoperator.

    With ``vectors`` the spectrum keeps the right modes V and the residual
    max |M(Vx) - V(Lambda x)| of one fixed unit vector x, which costs O(n^2)
    where the full max |MV - V Lambda| costs an O(n^3) product, and never
    exceeds sqrt(n) times it.  The left modes are computed when first read
    (see ``Spectrum``); a failed inverse marks the spectrum non-diagonalizable
    rather than raising, since downstream reports can still use the
    eigenvalues.
    """
    m = s.matrix
    try:
        if not vectors:
            eigs = np.linalg.eigvals(m)
            order = _canonical_order(eigs)
            return Spectrum(s.num_sites, eigs[order])
        eigs, right = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed on {_fingerprint(m)}") from exc
    order = _canonical_order(eigs)
    eigs = eigs[order]
    right = right[:, order]
    x = np.random.default_rng(PROBE_SEED).standard_normal(eigs.size)
    x /= np.linalg.norm(x)
    vx = right @ x
    # two real products: M @ (complex vector) would first copy M to complex
    m_vx = m @ vx.real + 1j * (m @ vx.imag)
    diag_residual = float(np.abs(m_vx - right @ (eigs * x)).max())
    return Spectrum(s.num_sites, eigs, right, diag_residual)


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


def conjugation_residual(eigs: np.ndarray, chunk: int = 512) -> float:
    """Max distance from any eigenvalue's conjugate to the nearest eigenvalue."""
    worst = 0.0
    for lo in range(0, eigs.size, chunk):
        block = np.conj(eigs[lo : lo + chunk])
        d = np.abs(block[:, None] - eigs[None, :]).min(axis=1)
        worst = max(worst, float(d.max()))
    return worst


@dataclass(frozen=True)
class CptpReport:
    """Pass/fail flags for the structural properties of a trace-preserving
    positivity-respecting generator."""

    max_re: float
    max_re_ok: bool
    zero_mode_present: bool
    conjugation_residual: float
    conjugation_ok: bool
    steady_identity_overlap: Optional[float]
    steady_identity_ok: Optional[bool]

    @property
    def all_ok(self) -> bool:
        checks = [self.max_re_ok, self.zero_mode_present, self.conjugation_ok]
        if self.steady_identity_ok is not None:
            checks.append(self.steady_identity_ok)
        return all(checks)


def cptp_checks(spectrum: Spectrum, tol: float = 1e-8) -> CptpReport:
    """Verify the spectral fingerprints of a valid dissipative generator.

    Checks max Re <= tol, the presence of a zero mode, conjugation symmetry
    of the eigenvalue multiset, and, when left modes are available, that
    the zero mode's left partner is the identity functional (the trace).
    """
    eigs = spectrum.eigenvalues
    max_re = float(eigs.real.max())
    zero_present = bool(spectrum.steady_indices(tol).size)
    conj_res = conjugation_residual(eigs)
    overlap: Optional[float] = None
    overlap_ok: Optional[bool] = None
    if spectrum.left_modes is not None and zero_present:
        idx = int(spectrum.steady_indices(tol)[0])
        left = spectrum.left_modes[idx]
        # the identity string owns index 0
        overlap = float(np.abs(left[0]) / np.linalg.norm(left))
        overlap_ok = overlap > 1.0 - 1e-8
    return CptpReport(
        max_re,
        max_re < tol,
        zero_present,
        conj_res,
        conj_res < tol,
        overlap,
        overlap_ok,
    )


# --- complex spacing ratios -------------------------------------------------


@dataclass(frozen=True)
class CsrHistogram:
    """Nearest over next-nearest neighbor distance ratios, binned on [0, 1]."""

    ratios: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray

    @property
    def mean_ratio(self) -> float:
        return float(self.ratios.mean())

    @property
    def density(self) -> np.ndarray:
        widths = np.diff(self.bin_edges)
        return self.counts / (self.ratios.size * widths)


def _spacing_ratios(points: np.ndarray) -> np.ndarray:
    n = points.size
    ratios = np.empty(n)
    for i in range(n):
        d = np.abs(points - points[i])
        d[i] = np.inf
        # stable sort so exact distance ties resolve by index order
        order = np.argsort(d, kind="stable")[:2]
        nn, nnn = d[order[0]], d[order[1]]
        ratios[i] = nn / nnn if nnn > 0 else 1.0
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
    ratios = _spacing_ratios(kept)
    counts, edges = np.histogram(ratios, bins=bins, range=(0.0, 1.0))
    return CsrHistogram(ratios, edges, counts)


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
    ratios = np.concatenate(all_ratios)
    counts, edges = np.histogram(ratios, bins=bins, range=(0.0, 1.0))
    return CsrHistogram(ratios, edges, counts)


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
    ratios = np.concatenate(all_ratios)
    counts, edges = np.histogram(ratios, bins=bins, range=(0.0, 1.0))
    return CsrHistogram(ratios, edges, counts)


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

    def by_label(self, label: str) -> Cluster:
        for c in self.clusters:
            if c.label == label:
                return c
        raise KeyError(f"no cluster labeled {label!r}")


def _merge_centers(
    centers: Sequence[tuple[Union[int, str], float]], tol: float
) -> list[tuple[str, float]]:
    ordered = sorted(centers, key=lambda item: item[1])
    merged: list[tuple[list, float]] = []
    for label, value in ordered:
        if merged and abs(value - merged[-1][1]) < tol:
            merged[-1][0].append(label)
        else:
            merged.append(([label], value))
    return [(",".join(str(x) for x in labels), value) for labels, value in merged]


def cluster_by_centers(
    eigs: np.ndarray,
    centers: Sequence[tuple[Union[int, str], float]],
    steady_tol: float = STEADY_TOL,
    merge_tol: float = 1e-9,
) -> ClusterReport:
    """Assign each eigenvalue to the nearest center by real part.

    Centers within ``merge_tol`` of each other are merged first and carry a
    comma-joined label; exact center collisions between weight sectors are
    a real feature of the unperturbed spectrum, not noise.  Clusters extend
    vertically once the coupling is on, so only Re enters the distance.
    Near-zero eigenvalues are the steady sector and are kept out of the
    assignment.
    """
    eigs = np.asarray(eigs, dtype=complex).ravel()
    if eigs.size == 0:
        raise SpectralAnalysisError("empty eigenvalue set")
    if not centers:
        raise SpectralAnalysisError("no cluster centers given")
    merged = _merge_centers(centers, merge_tol)
    steady = np.flatnonzero(np.abs(eigs) < steady_tol)
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


def _as_string_coefficients(mode: np.ndarray, basis: PauliBasis) -> np.ndarray:
    coeffs = np.asarray(mode, dtype=complex)
    if coeffs.size != len(basis):
        raise ValueError(f"mode length {coeffs.size} does not match basis size {len(basis)}")
    return coeffs


def mode_weight_profile(mode: np.ndarray, basis: PauliBasis) -> np.ndarray:
    """Operator-weight content w_k = sum over weight-k strings of |<S|mode>|^2.

    Indexed by weight from basis.min_weight to basis.max_weight; sums to 1
    for any complete basis after the internal normalization.
    """
    coeffs = _as_string_coefficients(mode, basis)
    norm = np.linalg.norm(coeffs)
    if norm == 0.0:
        raise SpectralAnalysisError("zero mode vector has no weight profile")
    coeffs = coeffs / norm
    power = np.abs(coeffs) ** 2
    return np.array([power[basis.sector(k)].sum() for k in basis.weights()])


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


def operator_overlap(
    mode: np.ndarray,
    operator_coeffs: np.ndarray,
    basis: PauliBasis,
) -> float:
    """|<operator|mode>| with both sides unit-normalized.

    Both vectors live in the orthonormal string basis, where the inner
    product equals the normalized trace pairing of the operators.
    """
    coeffs = _as_string_coefficients(mode, basis)
    norm = np.linalg.norm(coeffs)
    if norm == 0.0:
        raise SpectralAnalysisError("zero mode vector")
    op = np.asarray(operator_coeffs, dtype=complex)
    op_norm = np.linalg.norm(op)
    if op_norm == 0.0:
        raise SpectralAnalysisError("zero operator")
    return float(np.abs(np.vdot(op, coeffs)) / (norm * op_norm))


def commutant_basis(
    h: HamiltonianSpec,
    weight: int,
    null_tol: float = 1e-10,
) -> np.ndarray:
    """Orthonormal basis of weight-``weight`` operators commuting with H.

    Restricts the commutator generator to the given weight sector; its
    image lives in the adjacent sectors, and the kernel, read off from the
    singular values below ``null_tol`` relative to the largest, is the
    commutant slice.  Columns are coefficient vectors over that sector's
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
    blocks = [np.asarray(l_u[r, cols].todense()) for r in rows]
    n_w = cols.stop - cols.start
    if not blocks:
        return np.eye(n_w)
    a = np.vstack(blocks)
    _, sigma, vt = np.linalg.svd(a, full_matrices=True)
    top = sigma[0] if sigma.size else 0.0
    if top == 0.0:
        return np.eye(n_w)
    rank = int(np.sum(sigma > null_tol * top))
    return vt[rank:].conj().T


# --- persistence across a coupling sweep ------------------------------------


@dataclass(frozen=True)
class TrackedMode:
    index: int
    eigenvalue: complex
    profile: np.ndarray
    best_reference: Optional[tuple[str, float]]
    span_overlap: Optional[float]


@dataclass(frozen=True)
class TrackedGroup:
    label: str
    center: float
    counts: tuple[int, ...]
    modes: tuple[TrackedMode, ...]

    @property
    def persistent_count(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class PersistenceReport:
    alphas: tuple[float, ...]
    window: float
    weight_threshold: float
    degenerate_input: bool
    groups: tuple[TrackedGroup, ...]

    @property
    def total_persistent(self) -> int:
        return sum(g.persistent_count for g in self.groups)


def persistent_modes(
    sweep: Sequence[tuple[float, Spectrum]],
    basis: PauliBasis,
    centers: Sequence[tuple[Union[int, str], float]],
    window: float = 0.05,
    weight_threshold: float = 0.8,
    reference_operators: Optional[Sequence[tuple[str, np.ndarray]]] = None,
    merge_tol: float = 1e-9,
) -> PersistenceReport:
    """Find eigenvalues that stay pinned to unperturbed centers as the
    coupling grows.

    A mode counts as persistent for a center c when, at the largest
    coupling, it sits within ``window * |c|`` of c and its operator-weight
    profile keeps at least ``weight_threshold`` of its mass in the center's
    weight sectors.  Occupation of each window is also tallied at every
    sweep point.  Identical spectra across the sweep (for instance a
    coupling of zero everywhere) make every mode trivially persistent; the
    report flags that instead of pretending significance.
    """
    if len(sweep) < 2:
        raise ValueError("persistence needs at least 2 sweep points")
    sweep = sorted(sweep, key=lambda item: item[0])
    alphas = tuple(alpha for alpha, _ in sweep)
    final = sweep[-1][1]
    if final.right_modes is None:
        raise ValueError("the largest-coupling spectrum must carry eigenmodes")

    merged = _merge_centers(centers, merge_tol)

    degenerate = len(set(alphas)) < 2
    if not degenerate:
        ref = np.sort_complex(sweep[0][1].eigenvalues)
        degenerate = all(
            np.abs(np.sort_complex(s.eigenvalues) - ref).max() < 1e-12 for _, s in sweep[1:]
        )

    ortho_span: Optional[np.ndarray] = None
    if reference_operators:
        stacked = np.column_stack([op for _, op in reference_operators]).astype(complex)
        q, r = np.linalg.qr(stacked)
        keep = np.abs(np.diagonal(r)) > 1e-12
        ortho_span = q[:, keep]

    groups = []
    for label, center in merged:
        weights_in_label = {int(w) for w in label.split(",")}
        radius = window * abs(center)
        counts = tuple(
            int(np.sum(np.abs(s.eigenvalues - center) < radius)) for _, s in sweep
        )
        modes = []
        for idx in np.flatnonzero(np.abs(final.eigenvalues - center) < radius):
            vec = final.right_modes[:, idx]
            profile = mode_weight_profile(vec, basis)
            mass = sum(profile[k - basis.min_weight] for k in weights_in_label)
            if mass < weight_threshold:
                continue
            best: Optional[tuple[str, float]] = None
            span: Optional[float] = None
            if reference_operators:
                scored = [
                    (name, operator_overlap(vec, op, basis))
                    for name, op in reference_operators
                ]
                best = max(scored, key=lambda item: item[1])
                proj = ortho_span.conj().T @ (vec / np.linalg.norm(vec))
                span = float(np.linalg.norm(proj))
            modes.append(
                TrackedMode(int(idx), complex(final.eigenvalues[idx]), profile, best, span)
            )
        groups.append(TrackedGroup(label, center, counts, tuple(modes)))
    return PersistenceReport(alphas, window, weight_threshold, degenerate, tuple(groups))


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


# --- time evolution ---------------------------------------------------------


def evolve_expectation(
    spectrum: Spectrum,
    rho0_vec: np.ndarray,
    obs_vec: np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Expectation trajectory from the eigenmode expansion.

    <O>(t) = sum_i <O|R_i> (L_i rho0) exp(lambda_i t), requiring the
    biorthogonal pair; at t = 0 this telescopes back to <O|rho0>.  The
    observable vector is vec(O) for a Hermitian O in the spectrum's basis.
    """
    if not spectrum.diagonalizable or spectrum.left_modes is None:
        raise SpectralAnalysisError("spectrum is not diagonalizable; no mode expansion")
    obs_row = np.conj(np.asarray(obs_vec, dtype=complex)) @ spectrum.right_modes
    init_col = spectrum.left_modes @ np.asarray(rho0_vec, dtype=complex)
    weights = obs_row * init_col
    t = np.asarray(list(times), dtype=float)
    phases = np.exp(np.outer(t, spectrum.eigenvalues))
    return phases @ weights
