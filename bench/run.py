"""Benchmark of the quadray package: four workloads, each in a fresh process.

    python3 bench/run.py --workload census --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the checkout is the parent of this directory, and quadray
is imported from its `src/`. With --trace 0 the run reports the end-to-end
metrics named in BENCHMARK.json (wall time of one pass over the workload's
jobs, set-up time, peak memory); with --trace 1 it reports the per-layer
metrics from a traced run instead. The last line of standard output is one
JSON object {correct, attempted, failed, metrics}; the lines before it give
the same numbers for reading, the failure fraction, the level-cost ratio on
`census`, and the provenance. A full record of each run goes to
`.bench_results/` in the checkout; CLI outputs go to a temporary directory
there that is removed when the run ends.

The run measures whole jobs for --seconds seconds, and always at least one
full pass. wall_s sums, over the jobs of one pass, each job's median time.
setup_s is the median over SETUP_SAMPLES fresh processes of the time to
import quadray, build the inputs and warm up. See NOTES.md for the workloads
and what each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"

#: set-up is measured in this many fresh processes, the workload's own included
SETUP_SAMPLES = 3
#: every run must end within 180 s
RUN_BUDGET_S = 170.0


def child_env() -> dict:
    """One thread per process, and the package from this checkout."""
    env = dict(os.environ)
    env.pop("QUADRAY_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, timeout))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        # the ceiling keeps git from reading a repository above the checkout
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0:
            sha = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "machine": platform.machine(), "platform": platform.platform(),
            "python_impl": platform.python_implementation()}


def _wall(job_times: list[list[float]]) -> float:
    return sum(statistics.median(t) for t in job_times)


def level_cost_ratio(jobs: list[dict]) -> float | None:
    """Geometric mean over c of (t_14 / t_12)^(1/2), t the median time of the
    `orbits` job at that level; None without such job pairs."""
    by_level = {tuple(j["level"]): statistics.median(j["times"])
                for j in jobs if j["level"]}
    ratios = [(by_level[(c, 14)] / by_level[(c, 12)]) ** 0.5
              for c, n in by_level if n == 12 and (c, 14) in by_level]
    return math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spec: list[dict], res: dict) -> dict:
    p = res["per_pass"]
    untraced = _wall([j["times"] for j in res["jobs"]])
    traced = _wall([j["traced_times"] for j in res["jobs"]])
    derived = {
        "orbits.seed_rounds": _ratio(p.get("orbits.seed_rounds", 0.0),
                                     p.get("orbits.fixed_points_of_iterate.calls", 0.0)),
        "orbits.seed_yield": _ratio(p.get("orbits.fixed_points_of_iterate.roots", 0.0),
                                    p.get("orbits.seed_leaves", 0.0)),
        "rays.portrait_yield": _ratio(p.get("rays.portrait_at_orbit.accepted", 0.0),
                                      p.get("rays.portrait_candidate_angles.candidates", 0.0)),
        "rays.estimate_landing.converged_frac": _ratio(
            p.get("rays.estimate_landing.converged", 0.0), p.get("rays.estimate_landing.calls", 0.0)),
        "rays.trace_ray.ok_frac": _ratio(p.get("rays.trace_ray.ok", 0.0),
                                         p.get("rays.trace_ray.calls", 0.0)),
        "trace.wall_s": traced,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced,
        "census.level_cost_ratio": level_cost_ratio(res["jobs"]) or 0.0,
    }
    return {m["name"]: {"value": derived[m["name"]] if m["name"] in derived
                        else p.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = perf_counter()
    common = ["--workload", name, "--seed", str(seed)]
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(_worker(common + ["--setup-only"], RUN_BUDGET_S / 4)["setup_s"])
    RESULTS.mkdir(exist_ok=True)
    extra = ["--spans-out", str(RESULTS / f"spans-{name}-seed{seed}.json.gz")] if trace else []
    res = _worker(common + ["--seconds", str(seconds), "--trace", str(trace)] + extra,
                  RUN_BUDGET_S - (perf_counter() - started))
    setup.append(res["setup_s"])
    if trace:
        metrics = per_layer_metrics(spec["per_layer"], res)
    else:
        values = {"wall_s": _wall([j["times"] for j in res["jobs"]]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "provenance": dict(provenance(), **res["versions"]),
              "setup_samples_s": setup, "worker": res, "metrics": metrics,
              "correct": res["failed"] == 0,
              "attempted": res["attempted"], "failed": res["failed"]}
    (RESULTS / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def describe(rec: dict) -> list[str]:
    prov = rec["provenance"]
    lines = [f"# workload={rec['workload']} seed={rec['seed']} trace={rec['trace']} "
             f"seconds={rec['seconds']:g} measured={rec['worker']['measured_s']:.1f}s",
             "# provenance " + " ".join(f"{k}={v}" for k, v in prov.items())]
    for job in rec["worker"]["jobs"]:
        t = job["times"]
        lines.append(f"#   job {job['name']}: median {statistics.median(t):.4f} s "
                     f"over {len(t)}")
    for key, m in rec["metrics"].items():
        lines.append(f"{rec['workload']} {key} {m['value']:.6g} {m['unit']}")
    lines.append(f"{rec['workload']} fail_frac {rec['failed'] / rec['attempted']:.6g} "
                 f"ratio ({rec['failed']}/{rec['attempted']} jobs)")
    lcr = level_cost_ratio(rec["worker"]["jobs"])
    if lcr is not None and not rec["trace"]:
        lines.append(f"{rec['workload']} level_cost_ratio {lcr:.6g} x")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "quadray" / "__init__.py").is_file():
        print(f"no quadray package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(describe(rec)), flush=True)
            records.append(rec)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
