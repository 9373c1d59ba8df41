"""Compare two klindblad output directories within the tolerance that holds
across machines.

Identical bytes are promised only for one library build, CPU kernel and
BLAS thread count.  Elsewhere two runs of one command must write the same
file set, with equal integers (seeds, mode indices, counts, populations),
equal labels and strings, and floats within REL_TOL * max(1, |x|).  The
manifest is checked for presence only: its digests, the BLAS kernel and the
output path are expected to differ.

    python tests/comparator.py DIR_A DIR_B

prints each mismatch and exits 1 if there is any.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

REL_TOL = 1e-12


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _close(a, b, rel: float) -> bool:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers or (isinstance(a, int) and isinstance(b, int)):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _walk(a, b, where: str, rel: float, out: list[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            out.append(f"{where}: keys {sorted(a)} != {sorted(b)}")
            return
        for key in a:
            _walk(a[key], b[key], f"{where}.{key}", rel, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{where}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{where}[{i}]", rel, out)
    elif not _close(a, b, rel):
        out.append(f"{where}: {a!r} != {b!r}")


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        return rows[:1] + [[_cell(c) for c in row] for row in rows[1:]]
    return path.read_text()


def compare_dirs(a: Path, b: Path, rel: float = REL_TOL) -> list[str]:
    """Mismatches between the payloads of two output directories; empty
    when they agree within ``rel``."""
    names_a = {p.name for p in Path(a).iterdir()}
    names_b = {p.name for p in Path(b).iterdir()}
    mismatches = []
    if names_a != names_b:
        mismatches.append(f"only in one directory: {sorted(names_a ^ names_b)}")
    for name in sorted((names_a & names_b) - {"manifest.json"}):
        _walk(_load(Path(a) / name), _load(Path(b) / name), name, rel, mismatches)
    return mismatches


if __name__ == "__main__":
    found = compare_dirs(Path(sys.argv[1]), Path(sys.argv[2]))
    print("\n".join(found) or "agree")
    sys.exit(1 if found else 0)
