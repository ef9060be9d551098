"""Compare the ray_*.csv files written by `quadray rays`.

    python tools/compare_rays.py A/ray_1_3.csv B/ray_1_3.csv
    python tools/compare_rays.py A B

Each argument is one ray_*.csv file, or a directory whose ray_*.csv files are
compared by name; two directories must hold the same names.  Two files agree
when

* their G columns are byte-equal: the same potentials, spelled the same way,
  in the same order; and
* each point z of one lies within RTOL * max(1, |z|) of the point in the same
  row of the other.

This is the check for a change that moves ray points in their last digits,
where a byte comparison of the outputs would fail.  It prints one line per
file pair with the largest drift max |z_a - z_b| / max(1, |z_a|) and exits 0
when every pair agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

#: printed ray points may move by rounding, never by more than this relative drift
RTOL = 1e-10


def read_ray(path: Path) -> tuple[list[str], np.ndarray]:
    """The G column of a ray_*.csv as written, and its points."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return ([row["G"] for row in rows],
            np.array([complex(float(row["re_z"]), float(row["im_z"])) for row in rows],
                     dtype=complex))


def compare(a: Path, b: Path) -> tuple[list[str], float]:
    """(problems, largest relative drift) between two ray files."""
    g_a, z_a = read_ray(a)
    g_b, z_b = read_ray(b)
    if g_a != g_b:
        return [f"{a.name}: G columns differ ({len(g_a)} rows against {len(g_b)})"], 0.0
    drift = float(np.max(np.abs(z_a - z_b) / np.maximum(1.0, np.abs(z_a)), initial=0.0))
    problems = [] if drift <= RTOL else [
        f"{a.name}: a point moved {drift:.2e} relative, above {RTOL:.0e}"]
    return problems, drift


def pairs(a: Path, b: Path) -> tuple[list[tuple[Path, Path]], list[str]]:
    """The file pairs to compare, and the names only one directory holds."""
    if not (a.is_dir() and b.is_dir()):
        return [(a, b)], []
    names_a = {p.name for p in a.glob("ray_*.csv")}
    names_b = {p.name for p in b.glob("ray_*.csv")}
    missing = [f"{name}: only in {a if name in names_a else b}"
               for name in sorted(names_a ^ names_b)]
    return [(a / name, b / name) for name in sorted(names_a & names_b)], missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    todo, problems = pairs(args.a, args.b)
    if not todo:
        problems.append(f"no ray_*.csv files in {args.a}")
    for a, b in todo:
        found, drift = compare(a, b)
        problems += found
        print(f"{'OK' if not found else 'FAIL'} {a} {b}: max drift {drift:.2e}")
    for line in problems:
        print(f"  {line}")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
