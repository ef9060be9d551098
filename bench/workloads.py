"""The benchmark's workloads: the jobs each one runs, built from a workload
seed, and the check every job's output must pass.

Seed 0 is the reference grid. Any other seed moves the parameters c = 0 and
c = -1 of `census`, and c = -1 of `bunch-sweep`, by a complex offset of
modulus at most 0.01 drawn from `random.Random(seed)`. Both stay inside their
hyperbolic components (the main cardioid and the period-2 disc of radius
1/4), so every check below still holds. The golden Siegel parameter, c = -1.749,
and the `pressure-sweep` and `portraits` inputs are the same for every seed:
their checks use closed forms or known portraits that hold only there.

Every check is derived from the mathematics, not from frozen outputs:
Fix(f^n) has 2^n points split by minimal period as the Moebius sums say, the
pressure of z^2 at t is (1 - t) log 2, the tree sum at t = 0 counts 2^n
preimages, a bunch report's threshold is exp(-delta n), a formal orbit
portrait satisfies Milnor's conditions, and rays land on the cycle given by
the roots of f^3(z) = z. This module imports quadray only inside `build`, so
the launcher can read the workload names without it.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

#: the acceptance suite's tight tolerances for real c < -1.3
TIGHT = ["--newton-tol", "1e-12", "--dedup-tol", "2e-11"]

#: the two criterion-8 ray families
ANGLES_63 = ("22/63", "25/63", "37/63", "11/63", "44/63", "50/63")
ANGLES_7 = ("3/7", "6/7", "5/7", "1/7", "2/7", "4/7")

#: criterion 5: the orbit portrait of the airplane-root 3-cycle
AIRPLANE_SETS = [["3/7", "4/7"], ["1/7", "6/7"], ["2/7", "5/7"]]

SEED_OFFSET = 0.01


class CheckFailed(Exception):
    """A job's output contradicts the mathematics it computes."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    """One unit of load. `run(outdir)` does the work that is timed and returns
    what `check(outdir, result)` needs; the check raises CheckFailed."""

    name: str
    run: Callable
    check: Callable
    level: tuple | None = None   # (parameter label, n) for census jobs


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    warm_up: list[list[str]]


# --------------------------------------------------------------------------
# mathematics the checks rest on

def _mobius(m: int) -> int:
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def points_of_minimal_period(d: int) -> int:
    """Number of points of minimal period d of a degree-2 polynomial."""
    return sum(_mobius(d // e) * 2 ** e for e in range(1, d + 1) if d % e == 0)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _unlinked(a: list[Fraction], b: list[Fraction]) -> bool:
    """b lies in one complementary arc of a on the circle."""
    ring = sorted(a)

    def arc(x):
        return sum(1 for y in ring if y < x) % len(ring)

    return len({arc(x) for x in b}) == 1


def _cyclic_rank(values: list[Fraction]) -> tuple:
    order = sorted(range(len(values)), key=lambda i: values[i])
    k = order.index(0)
    return tuple(order[k:] + order[:k])


def check_formal_portrait(sets: list[list[str]], p: int) -> None:
    """Milnor's conditions for a formal orbit portrait A_0 .. A_{p-1}."""
    A = [[Fraction(s) for s in row] for row in sets]
    _require(len(A) == p and all(A), f"portrait needs {p} nonempty sets")
    flat = [a for row in A for a in row]
    _require(len(set(flat)) == len(flat), "an angle appears twice")
    for i, row in enumerate(A):
        image = [(2 * a) % 1 for a in row]
        _require(sorted(image) == sorted(A[(i + 1) % p]),
                 f"doubling does not carry A_{i} onto A_{i + 1}")
        _require(_cyclic_rank(image) == _cyclic_rank(row),
                 f"doubling breaks the cyclic order of A_{i}")
    periods = set()
    for a in flat:
        _require(a.denominator % 2 == 1, f"angle {a} is not periodic")
        k, x = 1, (2 * a) % 1
        while x != a:
            k, x = k + 1, (2 * x) % 1
        periods.add(k)
    _require(len(periods) == 1 and periods.pop() % p == 0,
             "angles lack a common period divisible by p")
    for i in range(p):
        for k in range(i + 1, p):
            _require(_unlinked(A[i], A[k]), f"A_{i} and A_{k} are linked")


def period_three_cycle(c: complex) -> list[complex]:
    """The distinct points of minimal period 3 of z^2 + c, as roots of
    f^3(z) - z with the fixed points removed (numpy, not quadray)."""
    import numpy as np
    from numpy.polynomial import polynomial as P

    f = np.array([c, 0.0, 1.0], dtype=complex)
    g = f
    for _ in range(2):
        g = P.polyadd(P.polypow(g, 2), [c])
    roots = P.polyroots(P.polysub(g, [0.0, 1.0]))
    cycle = [z for z in roots if abs(z * z + c - z) > 1e-3]
    distinct: list[complex] = []
    for z in cycle:
        if all(abs(z - w) > 1e-5 for w in distinct):
            distinct.append(complex(z))
    return distinct


# --------------------------------------------------------------------------
# output checks of the CLI jobs

def check_census(outdir: Path, rc: int, n: int) -> None:
    _require(rc == 0, f"orbits exited {rc}")
    lines = (outdir / "orbits.csv").read_text(encoding="utf-8").splitlines()
    rows = [ln.split(",") for ln in lines[1:]]
    _require(len(rows) == 2 ** n, f"{len(rows)} rows, expected 2^{n}")
    counts: dict[int, int] = {}
    for row in rows:
        counts[int(row[2])] = counts.get(int(row[2]), 0) + 1
    expected = {d: points_of_minimal_period(d) for d in _divisors(n)}
    _require(counts == expected,
             f"rows by minimal period {counts}, Moebius counts {expected}")
    with (outdir / "orbits.jsonl").open(encoding="utf-8") as fh:
        _require(sum(1 for _ in fh) == 2 ** n, "orbits.jsonl row count")


def check_pressure(outdir: Path, rc: int, c: complex, n: int,
                   t_grid: list[float]) -> None:
    _require(rc == 0, f"pressure exited {rc}")
    doc = json.loads((outdir / "pressure.json").read_text(encoding="utf-8"))
    est = doc["estimates"]
    cells = {(e["t"], e["n"], e["mode"]) for e in est}
    want = {(t, m, mode) for t in t_grid for m in (n - 1, n)
            for mode in ("periodic", "tree")}
    _require(cells == want, "pressure estimates do not cover the (t, n, mode) grid")
    for e in est:
        v = e["value"]
        _require(math.isfinite(v), f"non-finite estimate {e}")
        if c == 0:
            target = (1.0 - e["t"]) * math.log(2.0)
            _require(abs(v - target) < 5e-3,
                     f"c=0 {e['mode']} t={e['t']} n={e['n']}: {v} vs {target}")
        elif e["mode"] == "tree" and e["t"] == 0.0:
            _require(abs(v - math.log(2.0)) < 1e-12,
                     f"tree value at t=0 is {v}, not log 2")
    for name in ("pressure.csv", "pressure.svg"):
        _require((outdir / name).stat().st_size > 0, f"{name} is empty")


def check_bunches(outdir: Path, rc: int, n: int, deltas: list[float]) -> None:
    _require(rc == 0, f"bunches exited {rc}")
    reports = json.loads((outdir / "bunches.json").read_text(encoding="utf-8"))["reports"]
    _require(sorted(r["delta"] for r in reports) == sorted(deltas),
             "one report per delta")
    orbit_count = points_of_minimal_period(n) // n
    for r in reports:
        _require(r["n"] == n, f"report level {r['n']}")
        want = math.exp(-r["delta"] * n)
        _require(abs(r["threshold"] - want) <= 1e-12 * want,
                 f"threshold {r['threshold']} is not exp(-{r['delta']}*{n})")
        members = sorted(i for cl in r["clusters"] for i in cl)
        # a quadratic polynomial has at most one attracting cycle, the only
        # kind julia_orbits drops
        _require(members == list(range(len(members)))
                 and orbit_count - 1 <= len(members) <= orbit_count,
                 "clusters do not partition the period-n orbits")
        _require(r["max_cluster"] == max(len(cl) for cl in r["clusters"]),
                 "max_cluster is not the largest cluster")
        _require(r["max_cluster"] <= 2 * n,
                 f"max_cluster {r['max_cluster']} exceeds 2n = {2 * n}")


def check_portrait(outdir: Path, rc: int, p: int, expected_sets=None) -> None:
    _require(rc == 0, f"portrait exited {rc}")
    doc = json.loads((outdir / "portrait.json").read_text(encoding="utf-8"))
    _require(doc["p"] == p, f"portrait period {doc['p']}")
    check_formal_portrait(doc["sets"], p)
    if expected_sets is not None:
        _require(doc["sets"] == expected_sets,
                 f"portrait {doc['sets']}, expected {expected_sets}")


def check_render(outdir: Path, rc: int, angles: tuple[str, ...],
                 marker_period: int) -> None:
    _require(rc == 0, f"render exited {rc}")
    root = ET.parse(outdir / "scene.svg").getroot()
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    # the basilica's Julia set lies inside the default viewport and its one
    # attracting cycle has period 2, so every point of minimal period 4 shows
    _require(len(circles) == points_of_minimal_period(marker_period),
             f"{len(circles)} orbit markers")
    labels = {t.text for t in root.findall(f"{ns}text") if t.text and "/" in t.text}
    _require(labels == set(angles), f"ray labels {sorted(labels)}")
    _require(len(root.findall(f"{ns}polyline")) >= len(angles), "missing ray polylines")
    _require(root.find(f"{ns}path") is not None, "missing Julia point cloud")


# --------------------------------------------------------------------------
# workloads

def _c_arg(c: complex) -> str:
    return f"{c.real!r},{c.imag!r}"


def _offset(rng: random.Random) -> complex:
    return cmath.rect(SEED_OFFSET * math.sqrt(rng.random()),
                      2.0 * math.pi * rng.random())


def _cli_job(q, name, argv, check, level=None) -> Job:
    def run(outdir: Path):
        return q.cli.run_command(argv + ["--output-dir", str(outdir)])
    return Job(name=name, run=run, check=check, level=level)


def _census(seed: int, q) -> Workload:
    rng = random.Random(seed)
    d0, d1 = (0j, 0j) if seed == 0 else (_offset(rng), _offset(rng))
    params = [("0", ["--c", _c_arg(d0)]),
              ("-1", ["--c", _c_arg(-1 + d1)]),
              ("golden", ["--preset", "golden_siegel"]),
              ("-1.749", ["--c", "-1.749,0.0"] + TIGHT)]
    jobs = []
    for label, cargs in params:
        for n in (12, 13, 14):
            jobs.append(_cli_job(
                q, f"orbits c={label} n={n}",
                ["orbits", "--n", str(n)] + cargs,
                lambda out, rc, n=n: check_census(out, rc, n),
                level=(label, n)))
    return Workload("census", seed, jobs, warm_up=[["orbits", "--c", "0,0", "--n", "4"]])


def _pressure_sweep(seed: int, q) -> Workload:
    t_grid = [0.0, 0.5, 1.0, 1.5, 2.0]
    jobs = [_cli_job(q, f"pressure c={label}",
                     ["pressure", "--c", _c_arg(c), "--t", "0:2:0.5", "--n", "12"],
                     lambda out, rc, c=c: check_pressure(out, rc, c, 12, t_grid))
            for label, c in (("0", 0j), ("-1", -1 + 0j))]
    return Workload("pressure-sweep", seed, jobs,
                    warm_up=[["pressure", "--c", "0,0", "--t", "0:1:1", "--n", "4"]])


def _bunch_sweep(seed: int, q) -> Workload:
    rng = random.Random(seed)
    d1 = 0j if seed == 0 else _offset(rng)
    deltas = [0.1, 0.2, 0.3]
    jobs = [_cli_job(q, f"bunches c={label}",
                     ["bunches", "--n", "14", "--delta", "0.1,0.2,0.3"] + cargs,
                     lambda out, rc: check_bunches(out, rc, 14, deltas))
            for label, cargs in (("-1", ["--c", _c_arg(-1 + d1)]),
                                 ("-1.749", ["--c", "-1.749,0.0"] + TIGHT))]
    return Workload("bunch-sweep", seed, jobs,
                    warm_up=[["bunches", "--c", "-1,0", "--n", "6", "--delta", "0.1,0.3"]])


def _landing_job(q) -> Job:
    c = -1.75 + 0j
    qmap = q.QuadraticMap(c)
    angles = [q.Angle.parse(a) for a in ANGLES_7]

    def run(outdir):
        return [q.estimate_landing(qmap, theta) for theta in angles]

    def check(outdir, estimates):
        cycle = period_three_cycle(c)
        _require(len(cycle) == 3, f"{len(cycle)} points of period 3")
        where = {}
        for theta, est in zip(angles, estimates):
            dist = [abs(est.z - w) for w in cycle]
            j = min(range(3), key=dist.__getitem__)
            _require(dist[j] < 1e-4, f"ray {theta} lands {dist[j]:.1e} from the 3-cycle")
            where.setdefault(j, set()).add(str(theta))
        _require(sorted(map(sorted, where.values())) == sorted(AIRPLANE_SETS),
                 f"landing pairs {where}")

    return Job("estimate_landing c=-1.75", run, check)


def _circle_exit_job(q, c: complex, radii: tuple[float, ...]) -> Job:
    qmap = q.QuadraticMap(c)
    families = [[q.Angle.parse(a) for a in fam] for fam in (ANGLES_63, ANGLES_7)]

    def run(outdir):
        reports = []
        for family in families:
            traces = [q.trace_ray(qmap, theta, g_min=1e-8) for theta in family]
            reports += [(family, q.circle_exit_cyclic_order(qmap, traces, 0j, r))
                        for r in radii]
        return reports

    def check(outdir, reports):
        _require(len(reports) == 2 * len(radii), "one report per family and radius")
        for family, rep in reports:
            at_infinity = _cyclic_rank([a.as_fraction() for a in family])
            phases = [cmath.phase(t.exit_point) % (2.0 * math.pi) for t in rep.truncated]
            _require(_cyclic_rank(phases) == at_infinity,
                     f"exit order differs from the order at infinity at c={c}")
            _require(rep.match, "report says the orders differ")

    return Job(f"circle_exit c={c.real:g}", run, check)


def _portraits(seed: int, q) -> Workload:
    jobs = [
        _cli_job(q, "portrait airplane_root p=3",
                 ["portrait", "--preset", "airplane_root", "--period", "3"],
                 lambda out, r: check_portrait(out, r, 3, AIRPLANE_SETS)),
        _cli_job(q, "portrait c=i p=3", ["portrait", "--c", "0,1", "--period", "3"],
                 lambda out, r: check_portrait(out, r, 3)),
        _cli_job(q, "portrait golden_siegel p=4",
                 ["portrait", "--preset", "golden_siegel", "--period", "4",
                  "--ray-period-cap", "8"],
                 lambda out, r: check_portrait(out, r, 4)),
        _cli_job(q, "render basilica",
                 ["render", "--preset", "basilica", "--layers", "julia,rays,orbits",
                  "--marker-period", "4", "--g-min", "1e-8",
                  "--angles", ",".join(ANGLES_63 + ANGLES_7)],
                 lambda out, r: check_render(out, r, ANGLES_63 + ANGLES_7, 4)),
        _landing_job(q),
        _circle_exit_job(q, 0j, (1.2, 3.8, 12.0)),
        _circle_exit_job(q, -1 + 0j, (2.0, 6.3, 20.0)),
    ]
    return Workload("portraits", seed, jobs, warm_up=[
        ["portrait", "--c", "0,0", "--period", "2"],
        ["render", "--c", "0,0", "--layers", "julia,rays", "--angles", "1/3",
         "--points", "100", "--g-min", "1e-3"]])


_BUILDERS = {"census": _census, "pressure-sweep": _pressure_sweep,
             "bunch-sweep": _bunch_sweep, "portraits": _portraits}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int) -> Workload:
    """The workload's jobs for this seed. Jobs look quadray's functions up on
    the package at call time, so a tracing shim installed later still sees
    every call."""
    import quadray
    import quadray.cli  # noqa: F401  (binds quadray.cli)

    return _BUILDERS[name](seed, quadray)
