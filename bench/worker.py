"""One workload process: import quadray, build the workload's inputs, warm
up, then run the jobs back to back (a closed loop with one client) and print
one JSON line of timings and checks. Started by run.py, one fresh process per
workload, so its peak memory is its own.

    python3 bench/worker.py --workload census --seed 0 --seconds 20 --trace 0
    python3 bench/worker.py --workload census --seed 0 --setup-only

--setup-only stops after the set-up and reports its time. With --trace 1
every job runs twice in a row, untraced and traced, so the tracing overhead
is measured on the same inputs in the same process. Run it with
PYTHONPATH=src from the checkout root, as run.py does.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _execute(job, outdir: Path) -> tuple[float, float, bool]:
    """Run one job and check its output: (wall seconds, CPU seconds, passed)."""
    outdir.mkdir()
    gc.collect()
    start, cpu = perf_counter(), process_time()
    try:
        result = job.run(outdir)
    except Exception:  # noqa: BLE001 - a job that raises is a failed job
        elapsed, cpu = perf_counter() - start, process_time() - cpu
        print(f"job {job.name!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, cpu, False
    elapsed, cpu = perf_counter() - start, process_time() - cpu
    try:
        job.check(outdir, result)
        passed = True
    except Exception as exc:  # noqa: BLE001 - CheckFailed, or output missing or malformed
        print(f"job {job.name!r} failed its check: {exc!r}", file=sys.stderr)
        passed = False
    shutil.rmtree(outdir, ignore_errors=True)
    return elapsed, cpu, passed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import quadray
    import quadray.cli  # noqa: F401
    if not Path(quadray.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"quadray imported from {quadray.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        for i, argv_warm in enumerate(workload.warm_up):
            rc = quadray.cli.run_command(argv_warm + ["--output-dir", str(tmp / f"warm{i}")])
            if rc != 0:
                print(f"warm-up {argv_warm} exited {rc}", file=sys.stderr)
                return 1
        setup_s = perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, workload, setup_s, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args, workload, setup_s: float, tmp: Path) -> int:
    import mpmath
    import numpy
    import scipy

    tracer = tracing.Tracer() if args.trace else None
    jobs = workload.jobs
    times: list[list[float]] = [[] for _ in jobs]
    cpu_times: list[list[float]] = [[] for _ in jobs]
    traced_times: list[list[float]] = [[] for _ in jobs]
    trace_ids: list[list[int]] = [[] for _ in jobs]
    runs = failed = 0
    start = perf_counter()
    deadline = start + args.seconds
    done_pass = False
    while True:
        for j, job in enumerate(jobs):
            last = sum(t[j][-1] for t in (times, traced_times) if t[j])
            if done_pass and perf_counter() + last > deadline:
                break
            # a job's first execution in a process runs slower, so traced and
            # untraced executions take turns to go first
            modes = [False] if tracer is None else (
                [False, True] if (j + len(times[j])) % 2 == 0 else [True, False])
            for traced in modes:
                runs += 1
                if traced:
                    tracer.trace_id = runs
                    tracer.install()
                try:
                    elapsed, cpu, ok = _execute(job, tmp / f"run{runs}")
                finally:
                    if traced:
                        tracer.uninstall()
                        tracer.trace_id = None
                if traced:
                    traced_times[j].append(elapsed)
                    trace_ids[j].append(runs)
                else:
                    times[j].append(elapsed)
                    cpu_times[j].append(cpu)
                failed += not ok
        else:
            done_pass = True
            if perf_counter() < deadline:
                continue
        break
    measured_s = perf_counter() - start

    out = {
        "workload": workload.name, "seed": workload.seed, "trace": args.trace,
        "setup_s": setup_s, "measured_s": measured_s,
        "attempted": runs, "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": [{"name": job.name, "level": job.level, "times": times[j],
                  "cpu_times": cpu_times[j],
                  "traced_times": traced_times[j]} for j, job in enumerate(jobs)],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mpmath": mpmath.__version__},
    }
    if tracer is not None:
        stats = tracer.trace_stats()
        per_job = [tracing.job_medians([stats.get(t, {}) for t in ids]) for ids in trace_ids]
        out["per_pass"] = tracing.per_pass(per_job)
        for entry, medians in zip(out["jobs"], per_job):
            entry["per_layer"] = medians
        if args.spans_out:
            tracer.dump(Path(args.spans_out),
                        {t: jobs[j].name for j, ids in enumerate(trace_ids) for t in ids})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
