"""Benchmark of the klindblad command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ``src/``.  Each
command of a workload runs as users run it, ``python3 -m klindblad.cli`` in a
fresh process with two workers, and its outputs are checked (see checks.py).

``--trace 0`` first times one fresh interpreter importing ``klindblad.cli``
(setup_s), then repeats the workload's command while another fits in
``--seconds`` and reports medians over the commands: wall time, CPU time of
the process tree, and the peak resident memory of each process in the tree,
summed.

``--trace 1`` runs the command with two workers, again with one worker when
the workload has more than one realization, and once more under tracer.py
with one worker.  It reports per-layer self times and counts, the worker
utilization of the two-worker run, and what tracing cost over the untraced
one-worker run.  The payload digests of all of them must agree.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  An operation is one generator spectrum: one
realization at one coupling.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread per process, set before numpy loads here and passed to every
# child: two workers then fill two cores, and the payload bytes depend on the
# BLAS thread count, so every run must use the same one.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
TRACES = HERE / "traces"
WORKERS = 2
RSS_POLL_S = 0.02
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass(frozen=True)
class Workload:
    command: str
    sites: int
    couplings: tuple[str, ...]
    realizations: int = 1
    extra: tuple[str, ...] = ()

    @property
    def operations(self) -> int:
        return self.realizations * len(self.couplings)

    def argv(self, seed: int, out: Path, workers: int) -> list[str]:
        flag = "--beta" if self.command == "sweep-beta" else "--alpha"
        return [
            self.command, "--sites", str(self.sites), flag, ",".join(self.couplings),
            "--realizations", str(self.realizations), *self.extra,
            "--seed", str(seed), "--workers", str(workers), "--out", str(out),
        ]  # fmt: skip

    def verify(self, out: Path, seed: int) -> list[str]:
        if self.command == "csr":
            ginibre = checks.ginibre_ratios(np.random.default_rng(seed))
            return checks.verify_csr(out, list(self.couplings), ginibre)
        if self.command == "heisenberg":
            return checks.verify_heisenberg(out, self.sites, list(self.couplings))
        return checks.verify_sweep(out, self.sites, list(self.couplings))


# Why each workload: csr-5 is many eigenvalue-only solves spread evenly over
# both workers (the shape of the heaviest tier-1 fixture); heisenberg-5 is the
# only one on the eigenvector, commutant, persistence and unitary_pauli_matrix
# path, with one realization leaving a worker idle; sweep-6 is one 4096 x 4096
# generator, where building it and its memory peak weigh most, at beta = 0
# so that its spectrum is that of L_U alone.
WORKLOADS = {
    "csr-5": Workload("csr", 5, ("0.05", "0.5"), realizations=8),
    "heisenberg-5": Workload("heisenberg", 5, ("1", "2", "4", "8", "16", "32")),
    "sweep-6": Workload("sweep-beta", 6, ("0",), extra=("--exact-h-norm",)),
}


@dataclass(frozen=True)
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def record_peaks(pid: int, peaks: dict[int, int]) -> None:
    """Store the resident high-water mark (VmHWM) of a process and of all its
    descendants in ``peaks``, by pid."""
    pending = [pid]
    while pending:
        child = pending.pop()
        proc = f"/proc/{child}"
        try:
            with open(f"{proc}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peaks[child] = int(line.split()[1]) * 1024
            for task in os.listdir(f"{proc}/task"):
                with open(f"{proc}/task/{task}/children") as children:
                    pending.extend(int(c) for c in children.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading


def timed(argv: list[str]) -> Pass:
    """Spawn argv and wait for it: wall time from spawn to exit, CPU time of
    the process and the children it reaped, and the sum of the peak resident
    memory of every process in its tree."""
    done = threading.Event()
    peaks: dict[int, int] = {}
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=sys.stderr)

    def watch() -> None:
        while not done.wait(RSS_POLL_S):
            record_peaks(proc.pid, peaks)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        done.set()
        watcher.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(wall, usage.ru_utime + usage.ru_stime, sum(peaks.values()) / 2**20, proc.returncode)


def cli_argv(workload: Workload, seed: int, out: Path, workers: int) -> list[str]:
    return [sys.executable, "-m", "klindblad.cli", *workload.argv(seed, out, workers)]


class BenchRun:
    """Commands of one benchmark run, their outputs and what went wrong."""

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.out = RESULTS / f"{name}-s{seed}"
        self.digests: dict | None = None
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run(self, argv: list[str]) -> Pass:
        """Time one command; check its payload the first time, and after
        that only that its digests equal the first payload's."""
        shutil.rmtree(self.out, ignore_errors=True)
        result = timed(argv)
        print(result, file=sys.stderr)
        self.attempted += self.workload.operations
        if result.returncode != 0:
            self.failed += self.workload.operations
            self.failures.append(f"command exited with {result.returncode}")
            return result
        try:
            digests = checks.payload_digests(self.out)
        except (OSError, KeyError, ValueError) as exc:
            self.failures.append(f"no readable manifest: {exc!r}")
            return result
        if self.digests is None:
            self.digests = digests
            self.failures += self.workload.verify(self.out, self.seed)
        else:
            try:
                checks.equal_digests(self.digests, digests)
            except checks.CheckFailure as exc:
                self.failures.append(str(exc))
        return result


def measure(bench: BenchRun, seconds: float) -> dict:
    setup = timed([sys.executable, "-c", "import klindblad.cli"])
    if setup.returncode != 0:
        raise SystemExit("cannot import klindblad.cli from src/")
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(bench.run(cli_argv(bench.workload, bench.seed, bench.out, WORKERS)))
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            break
    return {
        "run_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
        "setup_s": (setup.wall_s, "s"),
    }


def trace(bench: BenchRun) -> dict:
    workload, seed, out = bench.workload, bench.seed, bench.out
    parallel = bench.run(cli_argv(workload, seed, out, WORKERS))
    # A single realization runs on one worker either way.
    serial = bench.run(cli_argv(workload, seed, out, 1)) if workload.realizations > 1 else parallel
    spans = TRACES / f"{out.name}.json"
    traced = bench.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans), *workload.argv(seed, out, 1)]
    )
    if traced.returncode != 0:
        raise SystemExit("the traced command failed")
    output_bytes = sum(p.stat().st_size for p in out.iterdir())
    units = {"_s": "s", "_calls": "count", "_computed": "GFLOP"}
    metrics = {
        key: (value, next(u for suffix, u in units.items() if key.endswith(suffix)))
        for key, value in tracer.layer_metrics(json.loads(spans.read_text())).items()
    }
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    metrics["cli.worker_utilization"] = (parallel.cpu_s / (WORKERS * parallel.wall_s), "ratio")
    metrics["trace.overhead_s"] = (traced.wall_s - serial.wall_s, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("the seed must be non-negative")
    if not (SRC / "klindblad" / "cli.py").is_file():
        print(f"error: no klindblad sources under {SRC}", file=sys.stderr)
        return 2
    bench = BenchRun(args.workload, args.seed)
    metrics = trace(bench) if args.trace else measure(bench, args.seconds)
    for failure in bench.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
