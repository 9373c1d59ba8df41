"""Seeded, reproducible experiment runner.

Subcommands map onto the standard analyses: ``spectrum`` (cluster structure
across the dissipation-to-coupling ratio), ``sweep-beta`` (weak-dissipation
scaling; beta = 0 is the spectrum of L_U, taken from the levels of H),
``csr`` (spacing-ratio statistics with synthetic references; ``--unitary-only``
uses the differences of the distinct levels of H),
``heisenberg`` (structured Hamiltonian with random dissipation), and
``density`` (self-averaging of the spectral density).

Every run requires an explicit master seed and writes CSV/JSON payloads plus
a manifest with content digests.  Identical config and seed give identical
payload bytes on one BLAS build and CPU kernel: floats are printed with 17
significant digits, rows are merged in realization and coupling order
regardless of worker scheduling, and nothing timestamped enters the files.
The run pins numpy's OpenBLAS to one thread while it computes, so the BLAS
thread count of the environment does not enter the bytes; where that
library is not found, it does, and the manifest records no pinned count.
Across machines only tolerances hold.

Workers are threads of one process; the dense eigensolves release the
interpreter lock.

Exit codes: 0 success, 2 configuration or analysis-input error, 3 resource
guardrail, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .ensemble import (
    STREAM_ANALYSIS,
    STREAM_HAMILTONIAN,
    STREAM_KOSSAKOWSKI,
    HamiltonianSpec,
    HEISENBERG_PBC,
    KossakowskiSample,
    RANDOM_ALL_TO_ALL,
    hamiltonian_to_json_dict,
    heisenberg_hamiltonian,
    kossakowski_dimension,
    kossakowski_to_json_dict,
    sample_kossakowski,
    sample_random_hamiltonian,
    substream,
)
from .errors import ConfigError, NumericalError, ResourceLimitError, SpectralAnalysisError
from .liouvillian import (
    MAX_SUPEROPERATOR_SITES,
    Superoperator,
    assemble,
    assemble_weak,
    build_dissipator,
    build_unitary_part,
    check_size,
    jump_operator_set,
    lambda0,
    unitary_pauli_matrix,
)
from .pauli import PauliBasis
from .perturbation import predict
from .spectral import (
    ClusterReport,
    CsrHistogram,
    Spectrum,
    cluster_by_centers,
    complex_spacing_ratios,
    csr_reference_ginibre,
    csr_reference_poisson,
    commutant_basis,
    density_total_variation,
    diagonalize,
    persistent_modes,
    random_weight_operator,
    spectral_density,
    unitary_eigenvalues,
)

MIN_SITES = 2

# Every run samples and digests K, an n x n Haar matrix over the n jump
# channels, superoperator or not.  Without --allow-large n stays within what
# the site guardrail admits: 4^6 - 1 = 4095 at 6 sites and k_max = 6, 268 MB.
MAX_CHANNELS = 4**MAX_SUPEROPERATOR_SITES - 1


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run parameters; every field has one source of truth."""

    sites: int
    seed: int
    out: str
    k_max: int = 2
    hamiltonian: str = RANDOM_ALL_TO_ALL
    alphas: Optional[tuple[float, ...]] = None
    betas: Optional[tuple[float, ...]] = None
    realizations: int = 1
    exact_h_norm: bool = False
    bins: int = 20
    re_bins: int = 40
    im_bins: int = 40
    min_ratios: int = 10
    window: float = 0.05
    weight_threshold: float = 0.8
    workers: int = 1
    allow_large: bool = False
    unitary_only: bool = False
    rescale_im: bool = False
    gnuplot: bool = False

    def validate(self) -> None:
        if self.seed is None:
            raise ConfigError("a master seed is required; there is no wall-clock default")
        if self.sites < MIN_SITES:
            raise ConfigError(f"need at least {MIN_SITES} sites, got {self.sites}")
        if not 1 <= self.k_max <= self.sites:
            raise ConfigError(f"k_max {self.k_max} out of range for {self.sites} sites")
        channels = kossakowski_dimension(self.sites, self.k_max)
        if channels > MAX_CHANNELS and not self.allow_large:
            raise ResourceLimitError(
                f"K over {channels} jump channels exceeds the {MAX_CHANNELS}-channel "
                f"guardrail; lower --kmax or pass --allow-large"
            )
        if self.hamiltonian not in (RANDOM_ALL_TO_ALL, HEISENBERG_PBC):
            raise ConfigError(f"unknown hamiltonian kind {self.hamiltonian!r}")
        if self.alphas is not None and self.betas is not None:
            raise ConfigError("alpha and beta lists are mutually exclusive")
        for name, values in (("alpha", self.alphas), ("beta", self.betas)):
            tags = [_tag(v) for v in values or ()]
            if len(set(tags)) < len(tags):
                raise ConfigError(
                    f"{name} values {list(values)} give colliding output names {tags}; "
                    f"couplings must differ in their first 6 significant digits"
                )
        if self.realizations < 1:
            raise ConfigError(f"realization count must be positive, got {self.realizations}")
        if min(self.bins, self.re_bins, self.im_bins) < 1:
            raise ConfigError("histogram bin counts must be at least 1")
        if self.workers < 1:
            raise ConfigError("worker count must be at least 1")
        if not self.out:
            raise ConfigError("an output directory is required")

    def require_alphas(self) -> tuple[float, ...]:
        if not self.alphas:
            raise ConfigError("this command needs a non-empty alpha list")
        return self.alphas

    def require_betas(self) -> tuple[float, ...]:
        if not self.betas:
            raise ConfigError("this command needs a non-empty beta list")
        return self.betas


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _tag(x: float) -> str:
    return f"{float(x):g}"


class OutputTracker:
    """Writes payload files and records their digests for the manifest."""

    def __init__(self, out_dir: str):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, str] = {}

    def write_text(self, name: str, text: str) -> None:
        data = text.encode()
        (self.dir / name).write_bytes(data)
        self.files[name] = hashlib.sha256(data).hexdigest()

    def write_rows(self, name: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        self.write_text(name, buf.getvalue())

    def write_json(self, name: str, payload) -> None:
        self.write_text(name, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Realization:
    """One realization's seeded model and the generator parts built from it.

    K and H come from the realization's own substreams, so they do not
    depend on the coupling list or on the order they are drawn in.  K and
    the complete string basis are built once, on first use.  An analyzer
    calls ``generators`` once, before it spreads its couplings over threads,
    and each coupling then costs one scaled add of the real string-basis
    matrices L_U and L_D.  The spectrum of L_U alone comes from the levels
    of H, so a unitary-only or beta = 0 run builds neither the basis nor
    L_U and L_D.
    """

    def __init__(self, cfg: ExperimentConfig, index: int):
        self.cfg = cfg
        self.index = index
        if cfg.hamiltonian == HEISENBERG_PBC:
            self.h = heisenberg_hamiltonian(cfg.sites)
        else:
            self.h = sample_random_hamiltonian(
                cfg.sites, rng=self.stream(STREAM_HAMILTONIAN), exact_norm=cfg.exact_h_norm
            )

    def stream(self, purpose: int) -> np.random.Generator:
        return substream(self.cfg.seed, self.index, purpose)

    @cached_property
    def k(self) -> KossakowskiSample:
        return sample_kossakowski(self.cfg.sites, self.cfg.k_max,
                                  rng=self.stream(STREAM_KOSSAKOWSKI))

    @cached_property
    def basis(self) -> PauliBasis:
        # only superoperator runs use the complete basis; refuse them here,
        # before its 4^l strings are listed
        check_size(self.cfg.sites, self.cfg.allow_large)
        return PauliBasis(self.cfg.sites)

    def generators(self) -> tuple[Superoperator, Superoperator]:
        """(L_U, L_D), built anew on each call.  Analyzers call it once,
        before they spread the couplings over threads, so that K and the
        basis are cached by then: ``cached_property`` holds no lock from
        Python 3.12 on."""
        allow_large = self.cfg.allow_large
        l_u = build_unitary_part(self.h, self.basis, allow_large=allow_large)
        jumps = jump_operator_set(self.cfg.sites, self.cfg.k_max)
        return l_u, build_dissipator(self.k, jumps, self.basis, allow_large=allow_large)

    def digests(self) -> dict:
        return {
            "kossakowski_sha256": _digest(kossakowski_to_json_dict(self.k)),
            "hamiltonian_sha256": _digest(hamiltonian_to_json_dict(self.h)),
        }


def _centers_at(num_sites: int, k_max: int, alpha: float) -> list[tuple[int, float]]:
    """Predicted cluster centers per weight; degenerate sectors keep their
    unperturbed center and merge downstream by exact value."""
    pred = predict(num_sites, k_max)
    centers = []
    for k in range(num_sites + 1):
        if pred.lambda2_means[k] is None:
            centers.append((k, float(pred.lambda0_values[k])))
        else:
            centers.append((k, pred.center(k, alpha)))
    return centers


def _all_profiles(spectrum: Spectrum, basis: PauliBasis) -> tuple[np.ndarray, np.ndarray]:
    """Weight profiles (modes x weights) and column norms of the right modes."""
    power = np.abs(spectrum.right_modes) ** 2
    norms = np.sqrt(power.sum(axis=0))
    power = power / power.sum(axis=0)
    starts = [basis.sector(k).start for k in basis.weights()]
    return np.add.reduceat(power, starts, axis=0).T, norms


_EMPTY = ""


def _eigen_header(num_sites: int) -> list[str]:
    return (
        ["seed", "alpha_or_beta", "mode_index", "re", "im", "cluster_label"]
        + [f"w{k}" for k in range(num_sites + 1)]
        + ["overlap_w2"]
    )


def _eigen_rows(
    seed: int,
    tag_value: float,
    eigs: np.ndarray,
    labels: Sequence[str],
    profiles: Optional[np.ndarray],
    overlaps: Optional[np.ndarray],
    num_sites: int,
) -> list[list]:
    rows = []
    for i in range(eigs.size):
        row = [seed, _fmt(tag_value), i, _fmt(eigs.real[i]), _fmt(eigs.imag[i]), labels[i]]
        if profiles is None:
            row += [_EMPTY] * (num_sites + 1)
        else:
            row += [_fmt(v) for v in profiles[i]]
        row.append(_EMPTY if overlaps is None else _fmt(overlaps[i]))
        rows.append(row)
    return rows


def _labels_from_report(report, n: int) -> list[str]:
    labels = [_EMPTY] * n
    for idx in report.steady_indices:
        labels[idx] = "steady"
    for cluster in report.clusters:
        for idx in cluster.member_indices:
            labels[idx] = cluster.label
    return labels


def _cluster_payload(report, axis_rescale: Optional[float]) -> dict:
    return {
        "clusters": [
            {
                "label": c.label,
                "target": c.target,
                "population": int(c.population),
                "center_re": None if c.center is None else c.center.real,
                "center_im": None if c.center is None else c.center.imag,
                "std_re": c.std_re,
                "std_im": c.std_im,
            }
            for c in report.clusters
        ],
        "steady_count": int(report.steady_indices.size),
        "separation_score": report.separation_score,
        "im_axis_rescale": axis_rescale,
    }


def _prediction_rows(
    num_sites: int, k_max: int, alphas: Sequence[float]
) -> tuple[list[str], list[list]]:
    pred = predict(num_sites, k_max)
    header = ["sites", "k", "lambda0", "h_up", "h_down", "lambda2_mean"] + [
        f"center_a{_tag(a)}" for a in alphas
    ]
    rows = []
    for k in range(num_sites + 1):
        shift = pred.lambda2_means[k]
        row = [
            num_sites,
            k,
            _fmt(float(pred.lambda0_values[k])),
            pred.h_up[k],
            pred.h_down[k],
            _EMPTY if shift is None else _fmt(float(shift)),
        ]
        for a in alphas:
            row.append(_EMPTY if shift is None else _fmt(pred.center(k, a)))
        rows.append(row)
    return header, rows


def _realize(analyze: Callable, cfg: ExperimentConfig, index: int,
             map_couplings: Callable = map) -> tuple[dict, object]:
    realization = Realization(cfg, index)
    result = analyze(realization, map_couplings)
    # digested after the solves: the freed JSON records would otherwise
    # stay in the small-object heap and raise the peak memory
    return realization.digests(), result


def _run_pool(analyze: Callable, cfg: ExperimentConfig) -> tuple[list[dict], list]:
    """Run ``analyze(realization, map_couplings)`` on every realization on
    ``cfg.workers`` threads; returns the model digests and the results,
    merged in realization order regardless of completion order.

    With at least as many realizations as workers, each thread takes whole
    realizations, so at most ``workers`` copies of L_U and L_D are alive,
    and ``map_couplings`` is the builtin ``map``.  With fewer, the
    realizations run in turn and each one's couplings go to the pool
    through its ``map``; nothing is submitted from inside the pool.  One
    worker runs inline, where a tracer's span stack can follow the calls.
    """
    indices = range(cfg.realizations)
    if cfg.workers == 1:
        pairs = [_realize(analyze, cfg, r) for r in indices]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            if cfg.realizations >= cfg.workers:
                pairs = list(pool.map(partial(_realize, analyze, cfg), indices))
            else:
                pairs = [_realize(analyze, cfg, r, pool.map) for r in indices]
    return [models for models, _ in pairs], [result for _, result in pairs]


# --- spectrum ---------------------------------------------------------------


def _labelled_rows(
    rz: Realization, alpha: float, spectrum: Spectrum, probe: np.ndarray
) -> tuple[list[list], ClusterReport]:
    """Eigenvalue rows labelled by predicted cluster, with weight profiles
    and probe overlaps when the spectrum carries its right modes."""
    cfg = rz.cfg
    profiles = overlaps = None
    if spectrum.right_modes is not None:
        profiles, norms = _all_profiles(spectrum, rz.basis)
        overlaps = np.abs(probe @ spectrum.right_modes) / norms
    eigs = spectrum.eigenvalues
    report = cluster_by_centers(eigs, _centers_at(cfg.sites, cfg.k_max, alpha))
    labels = _labels_from_report(report, spectrum.dim)
    return _eigen_rows(cfg.seed, alpha, eigs, labels, profiles, overlaps, cfg.sites), report


def _spectrum_worker(rz: Realization, map_couplings: Callable) -> dict:
    probe = random_weight_operator(rz.basis, 2, rz.stream(STREAM_ANALYSIS))
    l_u, l_d = rz.generators()

    def solve(alpha: float) -> dict:
        spectrum = diagonalize(assemble(alpha, l_u, l_d))
        rows, report = _labelled_rows(rz, alpha, spectrum, probe)
        rescale = 1.0 / alpha if alpha > 0 else None
        return {"rows": rows, "clusters": _cluster_payload(report, rescale)}

    return dict(zip(rz.cfg.alphas, map_couplings(solve, rz.cfg.alphas)))


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    alphas = cfg.require_alphas()
    out = OutputTracker(cfg.out)
    models, results = _run_pool(_spectrum_worker, cfg)
    header = _eigen_header(cfg.sites)
    for r, per_alpha in enumerate(results):
        for alpha in alphas:
            data = per_alpha[alpha]
            stem = f"r{r:03d}_a{_tag(alpha)}"
            out.write_rows(f"eigenvalues_{stem}.csv", header, data["rows"])
            out.write_json(f"clusters_{stem}.json", data["clusters"])
    pred_header, pred_rows = _prediction_rows(cfg.sites, cfg.k_max, alphas)
    out.write_rows("predictions.csv", pred_header, pred_rows)
    if cfg.gnuplot:
        out.write_text("plot.gp", _gnuplot_stub(out))
    _write_manifest(out, cfg, "spectrum", models,
                    {"im": {_tag(a): (1.0 / a if a > 0 else None) for a in alphas}})
    return 0


# --- sweep-beta -------------------------------------------------------------


def _beta_worker(rz: Realization, map_couplings: Callable) -> dict:
    # beta = 0 alone needs neither L_U nor L_D
    generators = rz.generators() if any(rz.cfg.betas) else None

    def solve(beta: float) -> dict:
        if beta == 0:
            eigs = unitary_eigenvalues(rz.h)
        else:
            eigs = diagonalize(assemble_weak(beta, *generators), vectors=False).eigenvalues
        labels = ["steady" if abs(v) < 1e-8 else _EMPTY for v in eigs]
        return {
            "rows": _eigen_rows(rz.cfg.seed, beta, eigs, labels, None, None, rz.cfg.sites),
            "mean_re": float(eigs.real.mean()),
            "std_im": float(eigs.imag.std()),
        }

    return dict(zip(rz.cfg.betas, map_couplings(solve, rz.cfg.betas)))


def cmd_sweep_beta(cfg: ExperimentConfig) -> int:
    betas = cfg.require_betas()
    out = OutputTracker(cfg.out)
    models, results = _run_pool(_beta_worker, cfg)
    header = _eigen_header(cfg.sites)
    summary = []
    for r, per_beta in enumerate(results):
        for beta in betas:
            data = per_beta[beta]
            out.write_rows(f"eigenvalues_r{r:03d}_b{_tag(beta)}.csv", header, data["rows"])
            summary.append([r, _fmt(beta), _fmt(data["mean_re"]), _fmt(data["std_im"])])
    out.write_rows("summary_beta.csv", ["realization", "beta", "mean_re", "std_im"], summary)
    _write_manifest(out, cfg, "sweep-beta", models,
                    {"re": {_tag(b): (1.0 / b if b > 0 else None) for b in betas}})
    return 0


# --- csr --------------------------------------------------------------------


def _csr_worker(rz: Realization, map_couplings: Callable) -> dict:
    cfg = rz.cfg

    def ratios(eigs: np.ndarray) -> np.ndarray:
        return complex_spacing_ratios(eigs, bins=cfg.bins, min_count=cfg.min_ratios).ratios

    if cfg.unitary_only:
        # distinct levels only: at an odd site count every level is a Kramers pair
        return {"unitary": ratios(unitary_eigenvalues(rz.h, distinct=True))}
    l_u, l_d = rz.generators()

    def solve(alpha: float) -> np.ndarray:
        return ratios(diagonalize(assemble(alpha, l_u, l_d), vectors=False).eigenvalues)

    return dict(zip(cfg.alphas, map_couplings(solve, cfg.alphas)))


def _hist_rows(hist) -> list[list]:
    rows = []
    density = hist.density
    for i in range(hist.counts.size):
        rows.append(
            [
                _fmt(hist.bin_edges[i]),
                _fmt(hist.bin_edges[i + 1]),
                int(hist.counts[i]),
                _fmt(density[i]),
            ]
        )
    return rows


_HIST_HEADER = ["bin_lo", "bin_hi", "count", "density"]


def cmd_csr(cfg: ExperimentConfig) -> int:
    from scipy.stats import ks_2samp  # only csr needs it, and it is slow to import

    if not cfg.unitary_only:
        cfg.require_alphas()
    out = OutputTracker(cfg.out)
    models, results = _run_pool(_csr_worker, cfg)
    rng = substream(cfg.seed, 0, STREAM_ANALYSIS)
    ginibre = csr_reference_ginibre(128, max(2, cfg.realizations), rng, bins=cfg.bins)
    geometry = "line" if cfg.unitary_only else "disk"
    poisson = csr_reference_poisson(
        128, max(2, cfg.realizations), rng, geometry=geometry, bins=cfg.bins
    )
    out.write_rows("csr_ginibre.csv", _HIST_HEADER, _hist_rows(ginibre))
    out.write_rows("csr_poisson.csv", _HIST_HEADER, _hist_rows(poisson))
    summary = {
        "filter": "im-pos",
        "bins": cfg.bins,
        "poisson_geometry": geometry,
        "ginibre_mean_ratio": ginibre.mean_ratio,
        "poisson_mean_ratio": poisson.mean_ratio,
        "data": {},
    }
    for key in results[0]:
        pooled = np.concatenate([ratios[key] for ratios in results])
        counts, edges = np.histogram(pooled, bins=cfg.bins, range=(0.0, 1.0))
        hist = CsrHistogram(pooled, edges, counts)
        name = "unitary" if key == "unitary" else f"a{_tag(key)}"
        out.write_rows(f"csr_data_{name}.csv", _HIST_HEADER, _hist_rows(hist))
        summary["data"][name] = {
            "mean_ratio": hist.mean_ratio,
            "ratio_count": int(pooled.size),
            "ks_vs_ginibre": float(ks_2samp(pooled, ginibre.ratios).statistic),
            "ks_vs_poisson": float(ks_2samp(pooled, poisson.ratios).statistic),
        }
    out.write_json("csr_summary.json", summary)
    _write_manifest(out, cfg, "csr", models, None)
    return 0


# --- heisenberg -------------------------------------------------------------


def _heisenberg_worker(rz: Realization, map_couplings: Callable) -> dict:
    cfg, basis = rz.cfg, rz.basis
    alphas = sorted(cfg.alphas)
    probe = random_weight_operator(basis, 2, rz.stream(STREAM_ANALYSIS))
    l_u, l_d = rz.generators()

    def solve(alpha: float) -> tuple[Spectrum, list[list]]:
        # right modes only at the strongest coupling, where persistence is read
        spectrum = diagonalize(assemble(alpha, l_u, l_d), vectors=alpha == alphas[-1])
        return spectrum, _labelled_rows(rz, alpha, spectrum, probe)[0]

    # the eigenvector solve is the longest task, so it starts first
    order = alphas[-1:] + alphas[:-1]
    solved = dict(zip(order, map_couplings(solve, order)))
    sweep = [(alpha, solved[alpha][0]) for alpha in alphas]
    rows = {alpha: solved[alpha][1] for alpha in alphas}

    h_coeffs = np.zeros(len(basis))
    for string, coupling in rz.h.coefficients.items():
        h_coeffs[basis.index_of(string)] = coupling
    refs = [("H", h_coeffs)]
    commutant_dims = {}
    for weight in range(1, cfg.k_max + 1):
        elements = commutant_basis(rz.h, weight)
        commutant_dims[weight] = int(elements.shape[1])
        sector = basis.sector(weight)
        for i in range(elements.shape[1]):
            emb = np.zeros(len(basis), dtype=complex)
            emb[sector] = elements[:, i]
            refs.append((f"w{weight}_{i}", emb))
    centers = [(kk, lambda0(kk, cfg.sites, cfg.k_max)) for kk in range(1, cfg.sites + 1)]
    persistence = persistent_modes(
        sweep,
        basis,
        centers,
        window=cfg.window,
        weight_threshold=cfg.weight_threshold,
        reference_operators=refs,
    )
    return {
        "rows": rows,
        "commutant_dims": commutant_dims,
        "persistence": _persistence_payload(persistence),
    }


def _persistence_payload(report) -> dict:
    return {
        "alphas": list(report.alphas),
        "window": report.window,
        "weight_threshold": report.weight_threshold,
        "degenerate_input": report.degenerate_input,
        "total_persistent": report.total_persistent,
        "groups": [
            {
                "label": g.label,
                "center": g.center,
                "counts": list(g.counts),
                "modes": [
                    {
                        "eigenvalue_re": m.eigenvalue.real,
                        "eigenvalue_im": m.eigenvalue.imag,
                        "profile": [float(v) for v in m.profile],
                        "best_reference": None
                        if m.best_reference is None
                        else {"name": m.best_reference[0], "overlap": m.best_reference[1]},
                        "span_overlap": m.span_overlap,
                    }
                    for m in g.modes
                ],
            }
            for g in report.groups
        ],
    }


def _structure_payload(h: HamiltonianSpec, basis: PauliBasis) -> dict:
    """Per-sector-pair census of the analytic commutator matrix."""
    l_u = unitary_pauli_matrix(h, basis).tocsc()
    blocks = {}
    for k_row in basis.weights():
        for k_col in basis.weights():
            block = l_u[basis.sector(k_row), basis.sector(k_col)]
            blocks[f"{k_row},{k_col}"] = {
                "nonzeros": int(block.nnz),
                "max_abs": float(np.abs(block.data).max()) if block.nnz else 0.0,
            }
    return blocks


def cmd_heisenberg(cfg: ExperimentConfig) -> int:
    if cfg.hamiltonian != HEISENBERG_PBC:
        raise ConfigError("the heisenberg command requires --hamiltonian heisenberg")
    alphas = sorted(cfg.require_alphas())
    if len(alphas) < 2:
        raise ConfigError("persistence tracking needs at least 2 alpha values")
    out = OutputTracker(cfg.out)
    models, results = _run_pool(_heisenberg_worker, cfg)
    header = _eigen_header(cfg.sites)
    for r, result in enumerate(results):
        for alpha in alphas:
            stem = f"r{r:03d}_a{_tag(alpha)}"
            out.write_rows(f"eigenvalues_{stem}.csv", header, result["rows"][alpha])
        out.write_json(f"persistence_r{r:03d}.json", result["persistence"])
    out.write_json(
        "commutant.json",
        {"dims_by_weight": results[0]["commutant_dims"]},
    )
    basis = PauliBasis(cfg.sites)
    out.write_json("unitary_structure.json", _structure_payload(
        heisenberg_hamiltonian(cfg.sites), basis))
    pred_header, pred_rows = _prediction_rows(cfg.sites, cfg.k_max, alphas)
    out.write_rows("predictions.csv", pred_header, pred_rows)
    _write_manifest(out, cfg, "heisenberg", models,
                    {"im": {_tag(a): (1.0 / a if a > 0 else None) for a in alphas}})
    return 0


# --- density ----------------------------------------------------------------


def _density_worker(rz: Realization, map_couplings: Callable) -> dict:
    l_u, l_d = rz.generators()

    def solve(alpha: float) -> np.ndarray:
        return diagonalize(assemble(alpha, l_u, l_d), vectors=False).eigenvalues

    return dict(zip(rz.cfg.alphas, map_couplings(solve, rz.cfg.alphas)))


def _density_rows(density) -> list[list]:
    rows = []
    dens = density.density
    for i in range(density.counts.shape[0]):
        for j in range(density.counts.shape[1]):
            rows.append(
                [
                    _fmt(density.re_edges[i]),
                    _fmt(density.re_edges[i + 1]),
                    _fmt(density.im_edges[j]),
                    _fmt(density.im_edges[j + 1]),
                    int(density.counts[i, j]),
                    _fmt(dens[i, j]),
                ]
            )
    return rows


_DENSITY_HEADER = ["re_lo", "re_hi", "im_lo", "im_hi", "count", "density"]

WIDE_ERROR_BAR_THRESHOLD = 10


def cmd_density(cfg: ExperimentConfig) -> int:
    alphas = cfg.require_alphas()
    if cfg.realizations < 2:
        raise ConfigError("density comparison needs at least 2 realizations")
    out = OutputTracker(cfg.out)
    models, results = _run_pool(_density_worker, cfg)
    summary = {}
    for alpha in alphas:
        im_scale = 1.0 / alpha if (cfg.rescale_im and alpha > 0) else 1.0
        pool = np.concatenate([eigs[alpha] for eigs in results])
        scaled = pool.real + 1j * pool.imag * im_scale
        re_range = (float(scaled.real.min()), float(scaled.real.max()))
        im_range = (float(scaled.imag.min()), float(scaled.imag.max()))
        if re_range[0] == re_range[1]:
            re_range = (re_range[0] - 0.5, re_range[1] + 0.5)
        if im_range[0] == im_range[1]:
            im_range = (im_range[0] - 0.5, im_range[1] + 0.5)
        pooled = spectral_density(
            pool, cfg.re_bins, cfg.im_bins, re_range, im_range, im_scale=im_scale
        )
        single = spectral_density(
            results[0][alpha], cfg.re_bins, cfg.im_bins, re_range, im_range,
            im_scale=im_scale,
        )
        tag = _tag(alpha)
        out.write_rows(f"density_pooled_a{tag}.csv", _DENSITY_HEADER, _density_rows(pooled))
        out.write_rows(f"density_single_a{tag}.csv", _DENSITY_HEADER, _density_rows(single))
        summary[tag] = {
            "tv_single_vs_pool": density_total_variation(single, pooled),
            "im_scale": im_scale,
        }
    payload = {
        "realizations": cfg.realizations,
        "wide_error_bars": cfg.realizations < WIDE_ERROR_BAR_THRESHOLD,
        "per_alpha": summary,
    }
    out.write_json("density_summary.json", payload)
    if cfg.gnuplot:
        out.write_text("plot.gp", _gnuplot_stub(out))
    _write_manifest(out, cfg, "density", models, None)
    return 0


# --- manifest and entry point -----------------------------------------------


def _gnuplot_stub(out: OutputTracker) -> str:
    lines = ["# minimal plotting stub; adjust columns to taste"]
    for name in sorted(out.files):
        if name.startswith("eigenvalues_"):
            lines.append(f"# plot '{name}' using 4:5 with points")
        if name.startswith("density_pooled"):
            lines.append(f"# splot '{name}' using 1:3:6 with pm3d")
    lines.append("pause -1")
    return "\n".join(lines) + "\n"


# The payload bits depend on the BLAS build and its thread count; the count
# these variables set holds only where numpy's OpenBLAS is not found.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _numpy_openblas():
    """numpy's bundled OpenBLAS through ctypes, or None if it is not found."""
    import ctypes  # only the thread pin needs it

    numpy_libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(numpy_libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            setter = lib.scipy_openblas_set_num_threads64_
            getter = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        return lib
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Pin numpy's OpenBLAS to one thread, restoring the old count on exit.

    OpenBLAS splits products and factorizations by thread, which changes
    their rounding, so the sampled K and the eigenvalues would otherwise
    change in their last bits with the thread count.  Pool workers are
    threads of this process, so the pin holds in each of them.  scipy loads
    a second OpenBLAS, left alone: the package reaches no BLAS through
    scipy, since ``scipy.sparse`` products and ``ks_2samp`` call none.
    Without numpy's OpenBLAS this does nothing.
    """
    lib = _numpy_openblas()
    if lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def _write_manifest(
    out: OutputTracker,
    cfg: ExperimentConfig,
    command: str,
    models: list[dict],
    axis_rescale: Optional[dict],
) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    openblas = _numpy_openblas()
    # the count the command ran with: 1 under the pin
    threads = None if openblas is None else openblas.scipy_openblas_get_num_threads64_()
    manifest = {
        "version": __version__,
        "libraries": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {
                "name": blas.get("name"),
                "version": blas.get("version"),
                "threads": threads,
            },
        },
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "command": command,
        "config": asdict(cfg),
        "models": [{"realization": r, **digests} for r, digests in enumerate(models)],
        "axis_rescale": axis_rescale,
        "files": dict(sorted(out.files.items())),
    }
    out.write_json("manifest.json", manifest)


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "sweep-beta": cmd_sweep_beta,
    "csr": cmd_csr,
    "heisenberg": cmd_heisenberg,
    "density": cmd_density,
}


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klindblad",
        description="Reproducible spectral experiments on random Lindblad generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON file with defaults; flags override")
        p.add_argument("--sites", type=int)
        p.add_argument("--kmax", type=int, dest="k_max")
        p.add_argument("--alpha", type=_float_list, dest="alphas", metavar="LIST")
        p.add_argument("--beta", type=_float_list, dest="betas", metavar="LIST")
        p.add_argument("--realizations", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--hamiltonian", choices=[RANDOM_ALL_TO_ALL, HEISENBERG_PBC])
        p.add_argument("--exact-h-norm", action="store_const", const=True, dest="exact_h_norm")
        p.add_argument("--bins", type=int)
        p.add_argument("--re-bins", type=int, dest="re_bins")
        p.add_argument("--im-bins", type=int, dest="im_bins")
        p.add_argument("--min-ratios", type=int, dest="min_ratios")
        p.add_argument("--window", type=float)
        p.add_argument("--weight-threshold", type=float, dest="weight_threshold")
        p.add_argument("--workers", type=int)
        p.add_argument("--allow-large", action="store_const", const=True, dest="allow_large")
        p.add_argument("--unitary-only", action="store_const", const=True, dest="unitary_only")
        p.add_argument("--rescale-im", action="store_const", const=True, dest="rescale_im")
        p.add_argument("--gnuplot", action="store_const", const=True, dest="gnuplot")
    return parser


_CONFIG_KEYS = {f for f in ExperimentConfig.__dataclass_fields__}


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file {path} does not exist")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    if args.command == "heisenberg":
        values.setdefault("hamiltonian", HEISENBERG_PBC)
    for key in ("alphas", "betas"):
        if values.get(key) is not None:
            values[key] = tuple(float(v) for v in values[key])
    missing = [key for key in ("sites", "seed", "out") if values.get(key) is None]
    if missing:
        raise ConfigError(f"missing required settings: {', '.join(missing)}")
    try:
        cfg = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        with _one_blas_thread():
            return _COMMANDS[args.command](cfg)
    except (ConfigError, SpectralAnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
