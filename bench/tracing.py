"""Outside-in tracing of quadray's layers, installed from the benchmark.

`Tracer.install()` replaces each public function of the traced modules with
a wrapper that records a span (name, start, end, parent span, trace id) and,
for a few functions, a work count read off the arguments or the result. The
wrapper replaces the function in its defining module and in every quadray
module that bound it with `from .x import f`, so calls made through any of
those names are seen. `uninstall()` puts the originals back. Spans stay in
memory until the run ends. The wrappers return what the function returns,
so tracing changes no output.

A function missing from the program counts nothing, so the benchmark keeps
running when a later change removes or renames one.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

TRACED_MODULES = ("dynamics", "orbits", "bunches", "pressure", "rays",
                  "angles", "scene", "cli")

#: third-party functions traced under the name a quadray module binds them by
FOREIGN = {"bunches": ("linkage",)}


def _file_bytes(path) -> int:
    """Size of a written output; the manifest records a wall time, so its
    size varies from run to run and is left out."""
    path = Path(path)
    return 0 if path.name == "manifest.json" else path.stat().st_size


#: work counts: span name -> (argument names, function of (arguments, result))
COUNTERS = {
    "dynamics.orbit_with_derivative":
        (("z", "n"), lambda a, r: {"point_steps": _size(a["z"]) * a["n"]}),
    "dynamics.preimage_tree": ((), lambda a, r: {"leaves": len(r[0])}),
    "orbits.fixed_points_of_iterate": (("n",), lambda a, r: {"roots": 2 ** a["n"]}),
    "bunches.bunch_clusters":
        (("orbits",), lambda a, r: {"orbit_pairs": len(a["orbits"]) * (len(a["orbits"]) - 1) // 2}),
    "rays.portrait_candidate_angles": ((), lambda a, r: {"candidates": len(r)}),
    "rays.portrait_at_orbit": ((), lambda a, r: {"accepted": len(r.all_angles())}),
    "rays.estimate_landing": ((), lambda a, r: {"converged": int(bool(r.converged))}),
    "rays.trace_ray":
        ((), lambda a, r: {"samples": len(r.samples), "ok": int(r.status == "ok")}),
    "cli.write_csv": (("path",), lambda a, r: {"bytes": _file_bytes(a["path"])}),
    "cli.write_json": (("path",), lambda a, r: {"bytes": _file_bytes(a["path"])}),
}


def _size(z) -> int:
    try:
        return len(z)
    except TypeError:
        return 1


class Tracer:
    """Spans and counts for one run. Single-threaded: the benchmark pins the
    program to one thread, so a plain stack gives each span its parent."""

    def __init__(self):
        # span: [id, parent id, trace id, name, start, end, counts or None]
        self.spans: list[list] = []
        self.trace_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import quadray
        modules = [m for name, m in sys.modules.items()
                   if name == "quadray" or name.startswith("quadray.")]
        targets: dict[int, tuple[str, object]] = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"quadray.{short}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets[id(fn)] = (f"{short}.{attr}", fn)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is targets[id(value)][1]:
                    self._patch(mod, attr, wrapper)
        for short, names in FOREIGN.items():
            mod = getattr(quadray, short, None)
            for attr in names:
                fn = getattr(mod, attr, None)
                if callable(fn):
                    self._patch(mod, attr, self._wrap(f"{short}.{attr}", fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _patch(self, mod, attr, new) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        positions, defaults = {}, {}
        if counter is not None:
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                params = {}
            if not all(p in params for p in counter[0]):
                counter = None  # the signature moved on: count nothing
            else:
                positions = {p: list(params).index(p) for p in counter[0]}
                defaults = {p: params[p].default for p in counter[0]}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, self.trace_id, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if counter is not None:
                named = {p: args[i] if i < len(args) else kwargs.get(p, defaults[p])
                         for p, i in positions.items()}
                try:
                    span[6] = counter[1](named, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    pass  # the result's shape moved on: count nothing
            return result

        return traced

    # -- aggregation ------------------------------------------------------

    def trace_stats(self) -> dict[int, dict[str, float]]:
        """Per trace id: `<span name>.<stat>` -> value, with stats calls,
        total_s, self_s and the work counts, plus the per-enumeration seed
        counts `orbits.seed_rounds` and `orbits.seed_leaves`."""
        child_time = defaultdict(float)
        tree_calls = defaultdict(int)
        tree_leaves = defaultdict(int)
        for sid, parent, _, name, start, end, counts in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                if name == "dynamics.preimage_tree":
                    tree_calls[parent] += 1
                    tree_leaves[parent] += (counts or {}).get("leaves", 0)
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, parent, trace, name, start, end, counts in self.spans:
            stats = out[trace]
            stats["trace.spans"] += 1
            stats[f"{name}.calls"] += 1
            stats[f"{name}.total_s"] += end - start
            stats[f"{name}.self_s"] += end - start - child_time[sid]
            for key, value in (counts or {}).items():
                stats[f"{name}.{key}"] += value
            if name == "orbits.fixed_points_of_iterate":
                # one preimage tree in round 1, two by round 2, four by round 3
                calls = tree_calls[sid]
                stats["orbits.seed_rounds"] += {1: 1, 2: 2, 4: 3}.get(calls, calls)
                stats["orbits.seed_leaves"] += tree_leaves[sid]
        return out

    def dump(self, path: Path, job_names: dict[int, str]) -> None:
        """Write every span, gzip-compressed JSON, at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["id", "parent", "trace", "name", "start", "end", "counts"],
               "traces": {str(k): v for k, v in job_names.items()},
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def job_medians(executions: list[dict[str, float]]) -> dict[str, float]:
    """Each stat's median over one job's traced executions."""
    keys = sorted(set().union(*executions)) if executions else []
    return {key: statistics.median(e.get(key, 0.0) for e in executions) for key in keys}


def per_pass(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Per-pass value of each stat: the job medians summed over the jobs."""
    total: dict[str, float] = defaultdict(float)
    for stats in per_job:
        for key, value in stats.items():
            total[key] += value
    return dict(total)
