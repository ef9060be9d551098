"""Compare two orbits.csv files written by `quadray orbits`.

    python tools/compare_orbits.py A/orbits.csv B/orbits.csv

The files agree when

* every (minimal period, stability) class holds the same number of rows in
  both, so the orbit counts, periods, stability classes and the number of
  points in each class (their multiplicity as rows) are unchanged; and
* every root of each file lies within RTOL * max(1, |z|) of a root of the
  same class in the other file; and
* the JSONL twin of each file (orbits.jsonl beside orbits.csv), when there
  is one, holds the same rows in the same order: the writer formats each
  value once for both files, so a JSONL value spelled as the CSV spells it
  equals the CSV field.

This is the check for a change that moves printed roots in their last digits,
where a byte comparison of the outputs would fail.  It prints one summary
line with the largest drift max |z_a - z_b| / max(1, |z_a|) and exits 0 when
the files agree, 1 otherwise.  It pairs roots with scipy's cKDTree, so it
needs the test extra (pip install -e .[test]); the package itself does not.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

#: printed roots may move by rounding, never by more than this relative drift
RTOL = 1e-10


def read_orbits(path: str) -> dict[tuple[int, str], np.ndarray]:
    """Roots of an orbits.csv grouped by (minimal period, stability)."""
    groups: dict[tuple[int, str], list[complex]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["minimal_period"]), row["stability"])
            groups.setdefault(key, []).append(complex(float(row["re_z"]), float(row["im_z"])))
    return {key: np.array(zs, dtype=complex) for key, zs in groups.items()}


def twin_problems(csv_path: str) -> list[str]:
    """Rows where the orbits.jsonl beside an orbits.csv (the same name with the
    suffix .jsonl) disagrees with it; empty when there is no such file."""
    jsonl = Path(csv_path).with_suffix(".jsonl")
    if not jsonl.exists():
        return []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = [json.loads(line) for line in jsonl.read_text(encoding="utf-8").splitlines()]
    if len(json_rows) != len(csv_rows):
        return [f"{jsonl}: {len(json_rows)} rows against {len(csv_rows)} in {csv_path}"]
    for k, (want, row) in enumerate(zip(csv_rows, json_rows), start=1):
        spelled = {key: repr(v) if isinstance(v, float) else str(v) for key, v in row.items()}
        if spelled != want:
            return [f"{jsonl}: row {k} differs from {csv_path}"]
    return []


def _drift(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a point of a to its nearest point of b, relative
    to max(1, |z|)."""
    dist, _ = cKDTree(np.column_stack([b.real, b.imag])).query(
        np.column_stack([a.real, a.imag]))
    return float(np.max(dist / np.maximum(1.0, np.abs(a))))


def compare(a: dict, b: dict) -> tuple[list[str], float]:
    """(problems, largest relative drift) between two grouped root sets."""
    counts_a = Counter({k: len(v) for k, v in a.items()})
    counts_b = Counter({k: len(v) for k, v in b.items()})
    problems = [f"class (period {k[0]}, {k[1]}): {counts_a[k]} rows against {counts_b[k]}"
                for k in sorted(set(counts_a) | set(counts_b)) if counts_a[k] != counts_b[k]]
    drift = 0.0
    for key in sorted(set(a) & set(b)):
        worst = max(_drift(a[key], b[key]), _drift(b[key], a[key]))
        drift = max(drift, worst)
        if worst > RTOL:
            problems.append(f"class (period {key[0]}, {key[1]}): a root moved "
                            f"{worst:.2e} relative, above {RTOL:.0e}")
    return problems, drift


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    a, b = read_orbits(args.a), read_orbits(args.b)
    problems, drift = compare(a, b)
    problems += twin_problems(args.a) + twin_problems(args.b)
    rows = sum(len(v) for v in a.values())
    status = "OK" if not problems else "FAIL"
    print(f"{status} {args.a} {args.b}: {rows} rows, {len(a)} classes, "
          f"max drift {drift:.2e}")
    for line in problems:
        print(f"  {line}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
