"""Correctness checks on the payloads a klindblad command writes.

Every check compares a payload against a property the method must have, or
against a computation made here and not in the program (the Ginibre sample,
the Poisson law, file digests).  None compares against stored output.  Each
check raises ``CheckFailure`` naming what it found; ``verify_*`` runs all the
checks that apply to one workload's output directory and returns the
failures as strings, so one broken property never hides another.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

STEADY_TOL = 1e-8
# The trace identity is exact; the slack covers rounding in the eigensolve.
MEAN_TOL = 1e-12
POISSON_DISK_MEAN = 2.0 / 3.0  # mean of p(r) = 2r on [0, 1]
POISSON_MEAN_TOL = 0.05
# Commutant dimensions of the Heisenberg ring at weights 1 and 2, which its
# SU(2) symmetry fixes for 5 or more sites (weight 1: the three total-spin
# components).
HEISENBERG_COMMUTANT_DIMS = {"1": 3, "2": 7}


class CheckFailure(Exception):
    """A payload violates a property it must have."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# --- loading ----------------------------------------------------------------


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def eigenvalues_of(rows: list[dict[str, str]]) -> np.ndarray:
    return np.array([complex(float(r["re"]), float(r["im"])) for r in rows])


def profiles_of(rows: list[dict[str, str]], sites: int) -> np.ndarray:
    """Weight profiles (modes x weights); empty when the file carries none."""
    columns = [f"w{k}" for k in range(sites + 1)]
    if not rows or rows[0][columns[0]] == "":
        return np.empty((0, sites + 1))
    return np.array([[float(r[c]) for c in columns] for r in rows])


def histogram_of(rows: list[dict[str, str]]) -> tuple[np.ndarray, np.ndarray]:
    """(counts, edges) of a bin_lo,bin_hi,count,density file."""
    counts = np.array([int(r["count"]) for r in rows])
    edges = np.array([float(r["bin_lo"]) for r in rows] + [float(rows[-1]["bin_hi"])])
    return counts, edges


def payload_digests(out_dir: Path) -> dict:
    """The digests a run's manifest records: per payload file and per model."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {"files": manifest["files"], "models": manifest["models"]}


# --- spectrum checks ----------------------------------------------------------


def trace_identity(eigs: np.ndarray, expected_mean: float) -> None:
    """Tr L / 4^l is -1 for alpha * L_U + L_D and -beta for L_U + beta * L_D:
    L_U is traceless and the dissipator's trace is fixed by its normalization."""
    mean = complex(eigs.mean())
    _require(
        abs(mean - expected_mean) <= MEAN_TOL,
        f"trace identity: mean eigenvalue {mean} != {expected_mean}",
    )


def spectrum_size(eigs: np.ndarray, sites: int) -> None:
    _require(eigs.size == 4**sites, f"spectrum size: {eigs.size} values, want {4**sites}")


def conjugation_closed(eigs: np.ndarray) -> None:
    """A real generator's spectrum is its own complex conjugate."""
    xy = np.column_stack([eigs.real, eigs.imag])
    gap = float(cKDTree(xy).query(np.column_stack([eigs.real, -eigs.imag]))[0].max())
    _require(gap <= 1e-10, f"conjugation: a conjugate lies {gap:.3e} from the spectrum")


def stable(eigs: np.ndarray) -> None:
    """No eigenvalue of a Lindblad generator lies in the right half-plane."""
    top = float(eigs.real.max())
    _require(top <= STEADY_TOL, f"stability: max Re {top:.3e} > {STEADY_TOL}")


def single_steady_state(eigs: np.ndarray) -> None:
    """Generic dissipation leaves exactly one zero eigenvalue."""
    count = int(np.sum(np.abs(eigs) < STEADY_TOL))
    _require(count == 1, f"steady state: {count} eigenvalues below {STEADY_TOL}, want 1")


# The spectrum of -i[H, .] is the set of values -i(E_n - E_m).


def purely_imaginary(eigs: np.ndarray) -> None:
    re = float(np.abs(eigs.real).max())
    _require(re <= STEADY_TOL, f"unitary spectrum: max |Re| {re:.3e} > {STEADY_TOL}")


def unitary_im_spread(eigs: np.ndarray) -> None:
    """Im variance is 2 Tr H^2 / 2^l = 2 for traceless H with Tr H^2 = 2^l."""
    std = float(eigs.imag.std())
    _require(abs(std - math.sqrt(2.0)) <= 1e-9, f"unitary spectrum: Im std {std!r} != sqrt(2)")


def unitary_zero_modes(eigs: np.ndarray, sites: int) -> None:
    """A zero for every n = m."""
    zeros = int(np.sum(np.abs(eigs) < STEADY_TOL))
    _require(zeros >= 2**sites, f"unitary spectrum: {zeros} zero modes, want >= {2**sites}")


def profile_sums(profiles: np.ndarray) -> None:
    """A mode's weight profile is its squared norm split by string weight."""
    _require(profiles.shape[0] > 0, "weight profiles: none written")
    worst = float(np.abs(profiles.sum(axis=1) - 1.0).max())
    _require(worst <= 1e-12, f"weight profiles: a row sums to 1 {worst:+.3e}")


# --- heisenberg checks --------------------------------------------------------


def adjacent_weight_structure(structure: dict) -> None:
    """A 2-local exchange term changes a string's weight by exactly +-1 when
    the commutator survives, so only adjacent weight blocks are nonzero."""
    nonzero = [key for key, block in structure.items() if block["nonzeros"] > 0]
    _require(bool(nonzero), "unitary structure: no nonzero block")
    for key in nonzero:
        k_row, k_col = (int(part) for part in key.split(","))
        _require(
            abs(k_row - k_col) == 1,
            f"unitary structure: block {key} has {structure[key]['nonzeros']} nonzeros",
        )


def commutant_dimensions(commutant: dict, persistence: dict) -> None:
    """Commutant dimensions from SU(2), and the same numbers reached the
    other way: modes pinned in the weight-1 and weight-2 windows at the
    strongest coupling."""
    dims = {str(k): int(v) for k, v in commutant["dims_by_weight"].items()}
    _require(dims == HEISENBERG_COMMUTANT_DIMS, f"commutant: dimensions {dims}")
    counts = {g["label"]: g["counts"][-1] for g in persistence["groups"]}
    for label, dim in HEISENBERG_COMMUTANT_DIMS.items():
        _require(
            counts.get(label) == dim,
            f"persistence: weight-{label} window holds {counts.get(label)} modes, want {dim}",
        )


# --- spacing-ratio checks ----------------------------------------------------


def spacing_ratios(points: np.ndarray) -> np.ndarray:
    """|z - z_nn| / |z - z_nnn| for each point, by k-d tree search."""
    xy = np.column_stack([points.real, points.imag])
    dist, _ = cKDTree(xy).query(xy, k=3)
    return dist[:, 1] / dist[:, 2]


def ginibre_ratios(rng: np.random.Generator, n: int = 128, samples: int = 32) -> np.ndarray:
    """Spacing ratios of complex Ginibre matrices drawn here."""
    ratios = []
    for _ in range(samples):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ratios.append(spacing_ratios(np.linalg.eigvals(g)))
    return np.concatenate(ratios)


def histogram_counts(counts: np.ndarray, ratio_count: int) -> None:
    total = int(counts.sum())
    _require(total == ratio_count, f"histogram: counts sum to {total}, summary says {ratio_count}")


def poisson_reference(summary: dict) -> None:
    mean = float(summary["poisson_mean_ratio"])
    _require(
        abs(mean - POISSON_DISK_MEAN) <= POISSON_MEAN_TOL,
        f"Poisson reference: mean ratio {mean:.4f}, law p(r)=2r gives 2/3",
    )


def closer_to_ginibre(counts: np.ndarray, edges: np.ndarray, ginibre: np.ndarray) -> None:
    """Largest gap between cumulative distributions at the bin edges: the
    pooled data must sit nearer the Ginibre sample than the Poisson law
    F(r) = r^2."""
    data_cdf = np.concatenate([[0.0], np.cumsum(counts) / counts.sum()])
    ginibre_cdf = np.searchsorted(np.sort(ginibre), edges, side="right") / ginibre.size
    to_ginibre = float(np.abs(data_cdf - ginibre_cdf).max())
    to_poisson = float(np.abs(data_cdf - edges**2).max())
    _require(
        to_ginibre < to_poisson,
        f"spacing ratios: distance {to_ginibre:.4f} to Ginibre, {to_poisson:.4f} to Poisson",
    )


# --- digests ----------------------------------------------------------------


def manifest_matches_files(out_dir: Path) -> None:
    """Every digest in the manifest is the SHA-256 of that file's bytes."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    on_disk = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    _require(set(manifest["files"]) == on_disk, "manifest: file list differs from the directory")
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        _require(actual == digest, f"manifest: digest of {name} does not match its bytes")


def equal_digests(reference: dict, other: dict) -> None:
    _require(reference == other, "digests: payload differs between runs of one set")


# --- per-workload verification -------------------------------------------------


def _collect(checks: list[Callable[[], None]]) -> list[str]:
    failures = []
    for check in checks:
        try:
            check()
        except CheckFailure as exc:
            failures.append(str(exc))
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failures.append(f"unreadable payload: {exc!r}")
    return failures


def _spectrum_checks(path: Path, sites: int, expected_mean: float, extra) -> list[Callable]:
    """The checks every written spectrum must pass, each run on its own;
    ``extra`` lists further checks taking the eigenvalues."""

    def on_eigs(check) -> Callable[[], None]:
        return lambda: check(eigenvalues_of(read_csv(path)))

    return [
        on_eigs(lambda e: spectrum_size(e, sites)),
        on_eigs(conjugation_closed),
        on_eigs(stable),
        on_eigs(lambda e: trace_identity(e, expected_mean)),
    ] + [on_eigs(check) for check in extra]


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def verify_csr(out_dir: Path, alphas: list[str], ginibre: np.ndarray) -> list[str]:
    """``csr`` output: one pooled histogram per coupling plus references."""
    summary = out_dir / "csr_summary.json"
    found = [lambda: manifest_matches_files(out_dir), lambda: poisson_reference(_json(summary))]
    for alpha in alphas:
        data = out_dir / f"csr_data_a{alpha}.csv"
        found += [
            lambda d=data, a=alpha: histogram_counts(
                histogram_of(read_csv(d))[0], _json(summary)["data"][f"a{a}"]["ratio_count"]
            ),
            lambda d=data: closer_to_ginibre(*histogram_of(read_csv(d)), ginibre),
        ]
    return _collect(found)


def verify_heisenberg(out_dir: Path, sites: int, alphas: list[str]) -> list[str]:
    """``heisenberg`` output: alpha-form spectra, weight profiles at the
    strongest coupling, commutant, persistence and block structure."""
    strongest = out_dir / f"eigenvalues_r000_a{max(alphas, key=float)}.csv"
    found = [
        lambda: manifest_matches_files(out_dir),
        lambda: commutant_dimensions(
            _json(out_dir / "commutant.json"), _json(out_dir / "persistence_r000.json")
        ),
        lambda: adjacent_weight_structure(_json(out_dir / "unitary_structure.json")),
        lambda: profile_sums(profiles_of(read_csv(strongest), sites)),
    ]
    for alpha in alphas:
        path = out_dir / f"eigenvalues_r000_a{alpha}.csv"
        found += _spectrum_checks(path, sites, -1.0, [single_steady_state])
    return _collect(found)


def verify_sweep(out_dir: Path, sites: int, betas: list[str]) -> list[str]:
    """``sweep-beta`` output: beta-form spectra; beta = 0 is L_U alone."""
    found = [lambda: manifest_matches_files(out_dir)]
    for beta in betas:
        path = out_dir / f"eigenvalues_r000_b{beta}.csv"
        if float(beta) == 0.0:
            extra = [purely_imaginary, unitary_im_spread, lambda e: unitary_zero_modes(e, sites)]
        else:
            extra = [single_steady_state]
        found += _spectrum_checks(path, sites, -float(beta), extra)
    return _collect(found)
