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

Workers are threads of one process.  Each dense eigensolve is one LAPACK
call into numpy's OpenBLAS through ctypes (see ``openblas``), which releases
the interpreter lock and overwrites the generator it solves, so no copy of
the generator is made.

Exit codes: 0 success, 2 configuration or analysis-input error, 3 resource
guardrail, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .ensemble import (
    STREAM_ANALYSIS,
    STREAM_HAMILTONIAN,
    STREAM_KOSSAKOWSKI,
    HEISENBERG_PBC,
    HEISENBERG_MIN_SITES,
    KossakowskiSample,
    RANDOM_ALL_TO_ALL,
    hamiltonian_to_json_dict,
    heisenberg_hamiltonian,
    kossakowski_dimension,
    kossakowski_json_chunks,
    sample_kossakowski,
    sample_random_hamiltonian,
    substream,
)
from .errors import ConfigError, NumericalError, ResourceLimitError, SpectralAnalysisError
from .liouvillian import (
    DissipatorFactor,
    SparseSuperoperator,
    assemble,
    build_unitary_part,
    dissipator_factor,
    jump_operator_set,
    lambda0,
    unitary_pauli_matrix,
)
from .openblas import environment, one_blas_thread
from .pauli import PauliBasis
from .perturbation import predict
from .spectral import (
    STEADY_TOL,
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
    ks_statistic,
    persistent_modes,
    random_weight_operator,
    spectral_density,
    unitary_eigenvalues,
    weight_profiles,
    window_counts,
)

MIN_SITES = {RANDOM_ALL_TO_ALL: 2, HEISENBERG_PBC: HEISENBERG_MIN_SITES}

# Without --allow-large a run that builds a generator, 4^l on a side, has at
# most 6 sites.  Every run samples and digests K, an n x n Haar matrix over
# the n jump channels, superoperator or not, so n is capped at what 6 sites
# admit: 4^6 - 1 = 4095 at k_max = 6, where K takes 268 MB.  Its digest
# hashes one row at a time (0.66 MB traced at 1023 channels).
MAX_SITES = 6
MAX_CHANNELS = 4**MAX_SITES - 1


# What a value of each field type must be, since a config file may hold any
# JSON value; the coupling lists are tuples of floats by then.
_SETTING_CHECKS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                        and math.isfinite(v)),
    "str": lambda v: isinstance(v, str),
    "Optional[tuple[float, ...]]": lambda v: v is None or all(map(math.isfinite, v)),
}


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
        wrong = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
                 if not _SETTING_CHECKS[f.type](getattr(self, f.name))]
        if wrong:
            raise ConfigError(f"invalid settings (wrong type or not finite): {', '.join(wrong)}")
        if self.seed < 0:
            raise ConfigError(f"the seed must be a non-negative integer, got {self.seed}")
        if self.hamiltonian not in MIN_SITES:
            raise ConfigError(f"unknown hamiltonian kind {self.hamiltonian!r}")
        if self.sites < MIN_SITES[self.hamiltonian]:
            raise ConfigError(f"a {self.hamiltonian} hamiltonian needs at least "
                              f"{MIN_SITES[self.hamiltonian]} sites, got {self.sites}")
        if self.exact_h_norm and self.hamiltonian != RANDOM_ALL_TO_ALL:
            raise ConfigError(f"exact_h_norm rescales the random hamiltonian; a "
                              f"{self.hamiltonian} hamiltonian has fixed couplings")
        if not 1 <= self.k_max <= self.sites:
            raise ConfigError(f"k_max {self.k_max} out of range for {self.sites} sites")
        channels = kossakowski_dimension(self.sites, self.k_max)
        if channels > MAX_CHANNELS and not self.allow_large:
            raise ResourceLimitError(
                f"K over {channels} jump channels exceeds the {MAX_CHANNELS}-channel "
                f"guardrail; lower --kmax or pass --allow-large"
            )
        if self.alphas is not None and self.betas is not None:
            raise ConfigError("alpha and beta lists are mutually exclusive")
        if self.unitary_only and (self.alphas is not None or self.betas is not None):
            raise ConfigError("a unitary-only run solves no generator and reads no alpha "
                              "or beta list")
        for name, values in (("alpha", self.alphas), ("beta", self.betas)):
            if any(v < 0 for v in values or ()):
                raise ConfigError(f"{name} values must be non-negative, got {list(values)}")
            tags = [_tag(v) for v in values or ()]
            if len(set(tags)) < len(tags):
                raise ConfigError(
                    f"{name} values {list(values)} give colliding output names {tags}; "
                    f"couplings must differ in their first 6 significant digits"
                )
        huge = [a for a in self.alphas or () if math.isinf(a * a)]
        if huge:
            raise ConfigError(f"alpha {huge[0]:g} is too large: the predicted centers shift "
                              f"by its square, which overflows a float")
        if self.realizations < 1:
            raise ConfigError(f"realization count must be positive, got {self.realizations}")
        if min(self.bins, self.re_bins, self.im_bins) < 1:
            raise ConfigError("histogram bin counts must be at least 1")
        if self.workers < 1:
            raise ConfigError("worker count must be at least 1")
        if not (self.window > 0 and 0 <= self.weight_threshold <= 1):
            raise ConfigError(f"persistence needs a positive window and a weight threshold in "
                              f"[0, 1], got {self.window} and {self.weight_threshold}")
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
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {self.dir}: {exc.strerror}") from exc
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


def _digest(chunks: Iterable[str]) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk.encode())
    return sha.hexdigest()


class Realization:
    """One realization's seeded model and the spectra of its generators.

    K and H come from the realization's own substreams, so they do not
    depend on the coupling list or on the order they are drawn in.  K and
    the complete string basis are built once, on first use; the site
    guardrail refuses the basis.  L_U is kept sparse and L_D as its compact
    factor, so a realization holds no n x n matrix; each coupling writes
    both, scaled, into the one matrix it solves (see ``assemble``).  The
    spectrum of L_U alone comes from the levels of H, so a unitary-only or
    beta = 0 run builds neither the basis nor L_U and L_D.  ``map`` spreads
    the couplings of ``spectra``, the one solve loop.
    """

    def __init__(self, cfg: ExperimentConfig, index: int, map: Callable = map):
        self.cfg, self.index, self.map = cfg, index, map
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
        sites = self.cfg.sites
        if sites > MAX_SITES and not self.cfg.allow_large:
            raise ResourceLimitError(
                f"dense superoperator at {sites} sites needs a {4**sites}x{4**sites} "
                f"matrix; pass allow_large=True (--allow-large) to force")
        return PauliBasis(sites)

    def generators(self) -> tuple[SparseSuperoperator, DissipatorFactor]:
        """(sparse L_U, factor of L_D), built anew on each call; the basis,
        and with it the site guardrail, comes before the jump window's 4^l
        index table."""
        l_u = build_unitary_part(self.h, self.basis)
        jumps = jump_operator_set(self.cfg.sites, self.cfg.k_max)
        return l_u, dissipator_factor(self.k, jumps, self.basis)

    def spectra(self, read: Callable, vectors: Sequence[float] = ()) -> dict:
        """``{coupling: read(coupling, spectrum)}`` of alpha * L_U + L_D over
        the alpha list, else of L_U + beta * L_D over the beta list (beta = 0
        from the levels of H).  The couplings in ``vectors`` keep their right
        modes and, the longest solves, go first; each spectrum is freed as
        its ``read`` returns.  The parts are built before ``map`` spreads the
        couplings, so K and the basis are cached by then: ``cached_property``
        holds no lock from Python 3.12 on."""
        weak = self.cfg.alphas is None
        couplings = self.cfg.betas if weak else self.cfg.alphas
        parts = self.generators() if not weak or any(couplings) else None

        def solve(coupling: float):
            if weak and coupling == 0:
                return read(coupling, Spectrum(unitary_eigenvalues(self.h)))
            # unnamed, the generator is freed as the solve returns, before ``read``
            scale = {"dissipator" if weak else "unitary": coupling}
            spectrum = diagonalize(assemble(*parts, **scale), vectors=coupling in vectors)
            return read(coupling, spectrum)

        order = sorted(couplings, key=lambda c: c not in vectors)
        return dict(zip(order, self.map(solve, order)))

    def digests(self) -> dict:
        h_record = json.dumps(hamiltonian_to_json_dict(self.h), sort_keys=True)
        return {"kossakowski_sha256": _digest(kossakowski_json_chunks(self.k)),
                "hamiltonian_sha256": _digest([h_record])}


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
             fan_out: Callable = map) -> tuple[dict, object]:
    realization = Realization(cfg, index, fan_out)
    result = analyze(realization)
    # digested after the solves: the freed JSON records would otherwise
    # stay in the small-object heap and raise the peak memory
    return realization.digests(), result


def _run_pool(analyze: Callable, cfg: ExperimentConfig) -> tuple[list[dict], list]:
    """Run ``analyze(realization)`` on every realization on ``cfg.workers``
    threads; returns the model digests and the results, merged in
    realization order regardless of completion order.

    With at least as many realizations as workers, each thread takes whole
    realizations, so at most ``workers`` generators are alive, each beside
    its realization's L_U and factor of L_D, and each realization's ``map``
    is the builtin one.  With fewer, the realizations run in turn and each
    one's ``map`` is the pool's, over which ``Realization.spectra`` spreads
    its couplings; nothing is submitted from inside the pool.  One worker,
    or fewer realizations than workers with at most one coupling each to
    solve (a single-coupling sweep, ``csr --unitary-only``), leaves no two
    jobs to run at once: that runs inline, where a tracer's span stack can
    follow the calls, and starts no pool.
    """
    indices = range(cfg.realizations)
    couplings = cfg.alphas or cfg.betas or ()
    if cfg.workers == 1 or (cfg.realizations < cfg.workers and len(couplings) < 2):
        pairs = [_realize(analyze, cfg, r) for r in indices]
    else:
        # imported here: a run without a pool loads no concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            if cfg.realizations >= cfg.workers:
                pairs = list(pool.map(partial(_realize, analyze, cfg), indices))
            else:
                pairs = [_realize(analyze, cfg, r, pool.map) for r in indices]
    return [models for models, _ in pairs], [result for _, result in pairs]


# --- spectrum ---------------------------------------------------------------


def _labelled_rows(
    rz: Realization, alpha: float, spectrum: Spectrum, probe: np.ndarray
) -> tuple[list[list], ClusterReport, Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Eigenvalue rows labelled by predicted cluster, the cluster report, and
    the right modes' ``weight_profiles`` with the probe overlaps (None
    without modes), read into the rows in one walk over the modes."""
    cfg = rz.cfg
    weights = profiles = overlaps = None
    if spectrum.has_modes:
        weights = profiles, _, overlaps = weight_profiles(spectrum, rz.basis, probe)
    eigs = spectrum.eigenvalues
    # a statistic that overflows is refused by the reader that writes it
    with np.errstate(over="ignore", invalid="ignore"):
        report = cluster_by_centers(eigs, _centers_at(cfg.sites, cfg.k_max, alpha))
    labels = _labels_from_report(report, spectrum.dim)
    rows = _eigen_rows(cfg.seed, alpha, eigs, labels, profiles, overlaps, cfg.sites)
    return rows, report, weights


def _spectrum_worker(rz: Realization) -> dict:
    probe = random_weight_operator(rz.basis, 2, rz.stream(STREAM_ANALYSIS))

    def read(alpha: float, spectrum: Spectrum) -> dict:
        rows, report, _ = _labelled_rows(rz, alpha, spectrum, probe)
        bad = [c.label for c in report.clusters if c.center is not None and not all(
            map(math.isfinite, (c.center.real, c.center.imag, c.std_re, c.std_im)))]
        if bad:
            raise NumericalError(f"the spectrum at alpha {alpha:g} has a non-finite center "
                                 f"or spread in cluster {', '.join(map(repr, bad))}")
        rescale = 1.0 / alpha if alpha > 0 else None
        return {"rows": rows, "clusters": _cluster_payload(report, rescale)}

    return rz.spectra(read, vectors=rz.cfg.alphas)


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


def _beta_worker(rz: Realization) -> dict:
    def read(beta: float, spectrum: Spectrum) -> dict:
        eigs = spectrum.eigenvalues
        labels = ["steady" if abs(v) < STEADY_TOL else _EMPTY for v in eigs]
        with np.errstate(over="ignore", invalid="ignore"):
            summary = {"mean_re": float(eigs.real.mean()), "std_im": float(eigs.imag.std())}
        if not all(map(math.isfinite, summary.values())):
            values = ", ".join(f"{name} = {value:g}" for name, value in summary.items())
            raise NumericalError(f"the spectrum at beta {beta:g} has a non-finite summary: "
                                 f"{values}")
        return {"rows": _eigen_rows(rz.cfg.seed, beta, eigs, labels, None, None, rz.cfg.sites),
                **summary}

    return rz.spectra(read)


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


def _csr_worker(rz: Realization) -> dict:
    cfg = rz.cfg

    def ratios(eigs: np.ndarray) -> np.ndarray:
        return complex_spacing_ratios(eigs, bins=cfg.bins, min_count=cfg.min_ratios).ratios

    if cfg.unitary_only:
        # distinct levels only: at an odd site count every level is a Kramers pair
        return {"unitary": ratios(unitary_eigenvalues(rz.h, distinct=True))}
    return rz.spectra(lambda alpha, spectrum: ratios(spectrum.eigenvalues))


def _hist_rows(hist) -> list[list]:
    edges, density = hist.bin_edges, hist.density
    return [[_fmt(edges[i]), _fmt(edges[i + 1]), int(count), _fmt(density[i])]
            for i, count in enumerate(hist.counts)]


_HIST_HEADER = ["bin_lo", "bin_hi", "count", "density"]


def cmd_csr(cfg: ExperimentConfig) -> int:
    if not cfg.unitary_only:
        cfg.require_alphas()
    out = OutputTracker(cfg.out)
    # drawn before the solves, so that their temporaries are freed before,
    # not stacked on, the solver memory the pool's threads keep
    rng = substream(cfg.seed, 0, STREAM_ANALYSIS)
    ginibre = csr_reference_ginibre(128, max(2, cfg.realizations), rng, bins=cfg.bins)
    geometry = "line" if cfg.unitary_only else "disk"
    poisson = csr_reference_poisson(
        128, max(2, cfg.realizations), rng, geometry=geometry, bins=cfg.bins
    )
    models, results = _run_pool(_csr_worker, cfg)
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
        hist = CsrHistogram.of(pooled, cfg.bins)
        name = "unitary" if key == "unitary" else f"a{_tag(key)}"
        out.write_rows(f"csr_data_{name}.csv", _HIST_HEADER, _hist_rows(hist))
        summary["data"][name] = {
            "mean_ratio": hist.mean_ratio,
            "ratio_count": int(pooled.size),
            "ks_vs_ginibre": ks_statistic(pooled, ginibre.ratios),
            "ks_vs_poisson": ks_statistic(pooled, poisson.ratios),
        }
    out.write_json("csr_summary.json", summary)
    _write_manifest(out, cfg, "csr", models, None)
    return 0


# --- heisenberg -------------------------------------------------------------


def _heisenberg_worker(refs: list[tuple[str, np.ndarray]], rz: Realization) -> dict:
    cfg, basis = rz.cfg, rz.basis
    alphas = sorted(cfg.alphas)
    probe = random_weight_operator(basis, 2, rz.stream(STREAM_ANALYSIS))
    centers = [(kk, lambda0(kk, cfg.sites, cfg.k_max)) for kk in range(1, cfg.sites + 1)]

    def read(alpha: float, spectrum: Spectrum) -> tuple:
        # right modes only at the strongest coupling: its persistent modes are
        # read here, from the profiles its rows used, and freed with it
        rows, _, weights = _labelled_rows(rz, alpha, spectrum, probe)
        groups = None if weights is None else persistent_modes(
            spectrum, weights, basis, centers, refs, cfg.window, cfg.weight_threshold)
        return rows, spectrum.eigenvalues, groups

    solved = rz.spectra(read, vectors=alphas[-1:])
    rows, eigs, groups = zip(*(solved[alpha] for alpha in alphas))
    degenerate, counts = window_counts(eigs, centers, cfg.window)
    persistence = {
        "alphas": alphas,
        "window": cfg.window,
        "weight_threshold": cfg.weight_threshold,
        "degenerate_input": degenerate,
        "total_persistent": sum(len(modes) for _, _, modes in groups[-1]),
        "groups": [
            {
                "label": label,
                "center": center,
                "counts": list(group_counts),
                "modes": [
                    {
                        "eigenvalue_re": m.eigenvalue.real,
                        "eigenvalue_im": m.eigenvalue.imag,
                        "profile": [float(v) for v in m.profile],
                        "best_reference": dict(zip(("name", "overlap"), m.best_reference)),
                        "span_overlap": m.span_overlap,
                    }
                    for m in modes
                ],
            }
            for (label, center, modes), group_counts in zip(groups[-1], counts)
        ],
    }
    return {"rows": dict(zip(alphas, rows)), "persistence": persistence}


def _heisenberg_structure(cfg: ExperimentConfig) -> tuple[list, dict, dict]:
    """Reference operators (H and its commutants), commutant dimensions and
    L_U census, read once: H is the same in every realization."""
    rz = Realization(cfg, 0)
    h, basis = rz.h, rz.basis
    h_coeffs = np.zeros(len(basis))
    for string, coupling in h.coefficients.items():
        h_coeffs[basis.index_of(string)] = coupling
    refs = [("H", h_coeffs)]
    commutant_dims = {}
    for weight in range(1, cfg.k_max + 1):
        elements = commutant_basis(h, weight)
        commutant_dims[weight] = int(elements.shape[1])
        sector = basis.sector(weight)
        for i in range(elements.shape[1]):
            emb = np.zeros(len(basis), dtype=complex)
            emb[sector] = elements[:, i]
            refs.append((f"w{weight}_{i}", emb))
    return refs, commutant_dims, _structure_payload(unitary_pauli_matrix(h, basis), basis)


def _structure_payload(l_u: SparseSuperoperator, basis: PauliBasis) -> dict:
    """Per-sector-pair census of the analytic commutator matrix."""
    row_weight, col_weight = basis.weight_array[l_u.rows], basis.weight_array[l_u.cols]
    blocks = {}
    for k_row in basis.weights():
        for k_col in basis.weights():
            values = l_u.values[(row_weight == k_row) & (col_weight == k_col)]
            blocks[f"{k_row},{k_col}"] = {
                "nonzeros": int(values.size),
                "max_abs": float(np.abs(values).max()) if values.size else 0.0,
            }
    return blocks


def cmd_heisenberg(cfg: ExperimentConfig) -> int:
    if cfg.hamiltonian != HEISENBERG_PBC:
        raise ConfigError("the heisenberg command requires --hamiltonian heisenberg")
    alphas = sorted(cfg.require_alphas())
    if len(alphas) < 2:
        raise ConfigError("persistence tracking needs at least 2 alpha values")
    out = OutputTracker(cfg.out)
    refs, commutant_dims, structure = _heisenberg_structure(cfg)
    models, results = _run_pool(partial(_heisenberg_worker, refs), cfg)
    header = _eigen_header(cfg.sites)
    for r, result in enumerate(results):
        for alpha in alphas:
            stem = f"r{r:03d}_a{_tag(alpha)}"
            out.write_rows(f"eigenvalues_{stem}.csv", header, result["rows"][alpha])
        out.write_json(f"persistence_r{r:03d}.json", result["persistence"])
    out.write_json("commutant.json", {"dims_by_weight": commutant_dims})
    out.write_json("unitary_structure.json", structure)
    pred_header, pred_rows = _prediction_rows(cfg.sites, cfg.k_max, alphas)
    out.write_rows("predictions.csv", pred_header, pred_rows)
    _write_manifest(out, cfg, "heisenberg", models,
                    {"im": {_tag(a): (1.0 / a if a > 0 else None) for a in alphas}})
    return 0


# --- density ----------------------------------------------------------------


def _density_worker(rz: Realization) -> dict:
    return rz.spectra(lambda alpha, spectrum: spectrum.eigenvalues)


def _density_rows(density) -> list[list]:
    re, im, dens = density.re_edges, density.im_edges, density.density
    return [[_fmt(re[i]), _fmt(re[i + 1]), _fmt(im[j]), _fmt(im[j + 1]),
             int(density.counts[i, j]), _fmt(dens[i, j])]
            for i, j in np.ndindex(density.counts.shape)]


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


def _write_manifest(
    out: OutputTracker,
    cfg: ExperimentConfig,
    command: str,
    models: list[dict],
    axis_rescale: Optional[dict],
) -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # thread count (1 under the pin), CPU kernel and build: each sets the bits
    threads, core, config = environment()
    # no scipy version: a run imports no scipy module, so none sets a bit
    manifest = {
        "version": __version__,
        "libraries": {
            "numpy": np.__version__,
            "blas": {
                "name": blas.get("name"),
                "version": blas.get("version"),
                "threads": threads,
                "core": core,
                "config": config,
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
    """One parser for every command: they all take the same options."""
    parser = argparse.ArgumentParser(
        prog="klindblad",
        description="Reproducible spectral experiments on random Lindblad generators.",
    )

    def error(message: str):
        # a bad command line is a configuration error: exit 2, one line
        raise ConfigError(f"{message}; see {parser.prog} --help")

    parser.error = error
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON file with defaults; flags override")
    parser.add_argument("--sites", type=int)
    parser.add_argument("--kmax", type=int, dest="k_max")
    parser.add_argument("--alpha", type=_float_list, dest="alphas", metavar="LIST")
    parser.add_argument("--beta", type=_float_list, dest="betas", metavar="LIST")
    parser.add_argument("--realizations", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--hamiltonian", choices=[RANDOM_ALL_TO_ALL, HEISENBERG_PBC])
    parser.add_argument("--exact-h-norm", action="store_const", const=True, dest="exact_h_norm")
    parser.add_argument("--bins", type=int)
    parser.add_argument("--re-bins", type=int, dest="re_bins")
    parser.add_argument("--im-bins", type=int, dest="im_bins")
    parser.add_argument("--min-ratios", type=int, dest="min_ratios")
    parser.add_argument("--window", type=float)
    parser.add_argument("--weight-threshold", type=float, dest="weight_threshold")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--allow-large", action="store_const", const=True, dest="allow_large")
    parser.add_argument("--unitary-only", action="store_const", const=True, dest="unitary_only")
    parser.add_argument("--rescale-im", action="store_const", const=True, dest="rescale_im")
    parser.add_argument("--gnuplot", action="store_const", const=True, dest="gnuplot")
    return parser


_CONFIG_KEYS = {f for f in ExperimentConfig.__dataclass_fields__}

# The settings only some subcommands read, and those subcommands.
_READ_BY = {"gnuplot": ("spectrum", "density"), "rescale_im": ("density",),
            "unitary_only": ("csr",)}


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
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} does not hold a JSON object")
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
    unread = [key for key, commands in _READ_BY.items()
              if values.get(key) and args.command not in commands]
    if unread:
        raise ConfigError(f"{args.command} does not read {', '.join(unread)}")
    finite = _SETTING_CHECKS["float"]
    for key in ("alphas", "betas"):
        value = values.get(key)
        if value is not None:
            if not isinstance(value, (list, tuple)) or not all(map(finite, value)):
                raise ConfigError(f"{key} must be a list of finite numbers, got {value!r}")
            # + 0.0 folds -0.0 into 0.0: one coupling, one solve, one tag
            values[key] = tuple(float(v) + 0.0 for v in value)
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
    try:
        args = _build_parser().parse_args(argv)
        cfg = _build_config(args)
        with one_blas_thread():
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
