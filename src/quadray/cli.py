"""Command-line front end: quadray <command> [flags].

Every run writes its outputs plus a manifest.json recording the fully
resolved configuration, tool version and wall time; re-running a command
from its manifest reproduces the output files byte for byte (the manifest
itself carries the non-deterministic wall time and is not compared).

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import cmath
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .angles import Angle, bryuno_sums, bryuno_sums_from_quotients
from .bunches import (DiscPattern, count_orbits_in_disc_pattern,
                      count_orbits_near_point, distortion_ratio,
                      verify_hypothesis_h)
from .dynamics import PrecisionConfig, QuadraticMap
from .errors import QuadrayError
from .orbits import (alpha_beta_fixed_points, fixed_points_of_iterate,
                     group_into_orbits, julia_orbits)
from .pressure import (MODE_PERIODIC, MODE_TREE, default_tree_basepoint,
                       pressure_comparison)
from .rays import estimate_landing, portrait_at_orbit, trace_ray
from .scene import (HullLayer, MarkerLayer, PointCloudLayer, PolylineLayer,
                    RenderStyle, SceneModel, Viewport, julia_point_cloud,
                    pressure_curve_svg, render_scene)

GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0
_golden_lambda = cmath.exp(2j * math.pi * GOLDEN_ROTATION)

PRESETS = {
    "basilica": complex(-1.0, 0.0),
    "chebyshev": complex(-2.0, 0.0),
    "airplane_root": complex(-1.75, 0.0),
    "golden_siegel": _golden_lambda / 2.0 - _golden_lambda ** 2 / 4.0,
}

COMMANDS = ("orbits", "rays", "portrait", "pressure", "bunches",
            "near-point", "disc-pattern", "distortion", "bryuno", "render")


class UsageError(Exception):
    pass


def parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"complex literal must be 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise UsageError(f"bad complex literal {text!r}") from exc


def parse_grid(text: str) -> list[float]:
    """'start:stop:step' (inclusive within half a step) or a comma list."""
    if ":" in text:
        bits = text.split(":")
        if len(bits) != 3:
            raise UsageError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(b) for b in bits)
        if step <= 0:
            raise UsageError("grid step must be positive")
        out = []
        v = start
        while v <= stop + step / 2.0:
            out.append(round(v, 12))
            v += step
        return out
    return [float(b) for b in text.split(",") if b.strip()]


def parse_int_grid(text: str) -> list[int]:
    vals = parse_grid(text)
    out = [int(round(v)) for v in vals]
    if any(abs(v - i) > 1e-9 for v, i in zip(vals, out)):
        raise UsageError(f"expected integers in {text!r}")
    return out


def parse_angles(text: str) -> list[Angle]:
    return [Angle.parse(tok) for tok in text.split(",") if tok.strip()]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# parameter resolution: defaults < config file < manifest < explicit flags

COMMON_PARAMS = {
    "c": None,
    "preset": None,
    "output_dir": ".",
    "seed": 0,
    "mantissa_bits": 53,
    "newton_tol": 1e-9,
    "dedup_tol": 1e-9,
    "max_iter": 4096,
}

COMMAND_PARAMS: dict[str, dict] = {
    "orbits": {"n": None},
    "rays": {"angles": "1/3,2/3", "g_min": 1e-8},
    "portrait": {"period": None, "orbit_index": 0, "match_tol": 1e-6,
                 "ray_period_cap": None},
    "pressure": {"t": "0:2:0.5", "n": 10, "basepoint": None},
    "bunches": {"n": None, "delta": "0.1", "mode": "H"},
    "near-point": {"z0": "beta", "p": 1, "n": None, "delta": 0.3, "r0": 0.5},
    "disc-pattern": {"period": None, "n": None, "delta": 0.3, "r0": 0.5,
                     "C": 2.0, "orbit_index": 0},
    "distortion": {"center": "alpha", "r": 1e-4, "n": 20, "samples": 2048,
                   "period": 1},
    "bryuno": {"alpha": "golden", "quotients": None, "terms": 20},
    "render": {"layers": "julia", "angles": "", "points": 20000,
               "viewport": "-2.2:2.2:-1.7:1.7", "g_min": 1e-6,
               "marker_period": None},
}

INT_KEYS = {"seed", "mantissa_bits", "max_iter", "orbit_index", "p",
            "period", "samples", "terms", "points", "marker_period",
            "ray_period_cap", "n"}
FLOAT_KEYS = {"newton_tol", "dedup_tol", "g_min", "match_tol", "r0", "C", "r",
              "delta"}
#: per-command keys that accept grid syntax and stay textual
GRID_KEYS = {"bunches": {"n", "delta"}, "pressure": {"t"}}


def _convert(command: str, key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if key in GRID_KEYS.get(command, ()):
        return value
    if key in INT_KEYS:
        return int(value)
    if key in FLOAT_KEYS:
        return float(value)
    return value


def resolve_params(command: str, flag_values: dict, config_path: str | None,
                   manifest_path: str | None) -> dict:
    allowed = dict(COMMON_PARAMS)
    allowed.update(COMMAND_PARAMS[command])
    params = dict(allowed)

    if config_path:
        cp = configparser.ConfigParser()
        read = cp.read(config_path)
        if not read:
            raise UsageError(f"config file not found: {config_path}")
        for section in ("quadray", command):
            if cp.has_section(section):
                for key, value in cp.items(section):
                    if key not in allowed:
                        raise UsageError(
                            f"unknown key {key!r} in config section [{section}]")
                    params[key] = _convert(command, key, value)

    if manifest_path:
        doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        if doc.get("command") != command:
            raise UsageError(
                f"manifest records command {doc.get('command')!r}, not {command!r}")
        for key, value in doc.get("params", {}).items():
            if key not in allowed:
                raise UsageError(f"unknown key {key!r} in manifest")
            params[key] = value

    for key, value in flag_values.items():
        if value is not None:
            if key not in allowed:
                raise UsageError(f"unknown parameter {key!r}")
            params[key] = _convert(command, key, value)

    missing = [k for k, v in params.items() if v is None and allowed[k] is None
               and k in COMMAND_PARAMS[command]
               and k not in ("ray_period_cap", "basepoint", "quotients",
                             "marker_period", "preset", "c")]
    if missing:
        raise UsageError(f"missing required parameter(s): {', '.join(missing)}")
    return params


def resolve_map(params: dict) -> QuadraticMap:
    if params.get("preset"):
        name = params["preset"]
        if name not in PRESETS:
            raise UsageError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
        return QuadraticMap(PRESETS[name])
    if params.get("c"):
        c = params["c"]
        return QuadraticMap(parse_complex(c) if isinstance(c, str) else complex(*c))
    raise UsageError("need --c re,im or --preset")


def resolve_precision(params: dict) -> PrecisionConfig:
    return PrecisionConfig(
        mantissa_bits=int(params["mantissa_bits"]),
        newton_tol=float(params["newton_tol"]),
        dedup_tol=float(params["dedup_tol"]),
        max_iter=int(params["max_iter"]))


def _resolve_point(token, qmap: QuadraticMap) -> complex:
    if isinstance(token, str):
        fp = alpha_beta_fixed_points(qmap)
        if token == "alpha":
            return fp.alpha
        if token == "beta":
            return fp.beta
        return parse_complex(token)
    return complex(*token) if isinstance(token, (list, tuple)) else complex(token)


# --------------------------------------------------------------------------
# command implementations; each returns the list of output file names

def cmd_orbits(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision(params)
    n = int(params["n"])
    points = fixed_points_of_iterate(qmap, n, cfg)
    orbits = group_into_orbits(points, qmap, n, cfg)
    header = ["re_z", "im_z", "minimal_period", "re_lambda", "im_lambda",
              "abs_lambda", "stability"]
    rows = []
    for o in orbits:
        for z in o.points:
            rows.append([z.real, z.imag, o.minimal_period, o.multiplier.real,
                         o.multiplier.imag, abs(o.multiplier), o.stability])
    write_csv(outdir / "orbits.csv", header, rows)
    with (outdir / "orbits.jsonl").open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")
    return ["orbits.csv", "orbits.jsonl"]


def cmd_rays(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision(params)
    angles = parse_angles(params["angles"])
    if not angles:
        raise UsageError("no angles given")
    outputs = []
    for theta in angles:
        trace = trace_ray(qmap, theta, float(params["g_min"]), cfg=cfg)
        name = f"ray_{theta.numerator}_{theta.denominator}.csv"
        write_csv(outdir / name, ["G", "re_z", "im_z"],
                  [[g, z.real, z.imag] for g, z in trace.samples])
        outputs.append(name)
    return outputs


def cmd_portrait(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision(params)
    n = int(params["period"])
    orbits = [o for o in julia_orbits(qmap, n, cfg) if o.minimal_period == n]
    if not orbits:
        raise QuadrayError(f"no minimal-period-{n} orbit on the Julia set")
    idx = int(params["orbit_index"])
    if idx >= len(orbits):
        raise UsageError(f"orbit_index {idx} out of range ({len(orbits)} orbits)")
    cap = params.get("ray_period_cap")
    portrait = portrait_at_orbit(
        qmap, orbits[idx], n, cfg,
        match_tol=float(params["match_tol"]),
        ray_period_cap=int(cap) if cap else None)
    from .angles import classify_portrait
    cls = classify_portrait(portrait)
    doc = json.loads(portrait.to_json())
    doc.update({"schema": "v1", "ray_period": portrait.ray_period,
                "valence": cls.valence, "ray_cycles": cls.ray_cycles,
                "kind": cls.kind})
    write_json(outdir / "portrait.json", doc)
    return ["portrait.json"]


def cmd_pressure(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision(params)
    t_grid = parse_grid(str(params["t"]))
    n = int(params["n"])
    base = params.get("basepoint")
    z = _resolve_point(base, qmap) if base else default_tree_basepoint(qmap, cfg)
    curve = pressure_comparison(qmap, z, t_grid, n, cfg)
    rows = [[e.t, e.n, e.mode, e.value] for e in curve.estimates]
    write_csv(outdir / "pressure.csv", ["t", "n", "mode", "value"], rows)
    write_json(outdir / "pressure.json", {
        "schema": "v1", "t_grid": list(curve.t_grid),
        "discrepancy": curve.discrepancy,
        "estimates": [{"t": e.t, "n": e.n, "mode": e.mode, "value": e.value,
                       "log_sum": e.log_sum} for e in curve.estimates]})
    per = [curve.value(t, n, MODE_PERIODIC) for t in curve.t_grid]
    tre = [curve.value(t, n, MODE_TREE) for t in curve.t_grid]
    (outdir / "pressure.svg").write_text(
        pressure_curve_svg(curve.t_grid, per, tre), encoding="utf-8")
    return ["pressure.csv", "pressure.json", "pressure.svg"]


def cmd_bunches(params: dict, outdir: Path) -> list[str]:
    # only Hypothesis H is checked; the key stays so older manifests replay
    if params["mode"] != "H":
        raise UsageError(f"bunches mode {params['mode']!r} is not supported; only 'H' is")
    qmap = resolve_map(params)
    cfg = resolve_precision(params)
    n_values = parse_int_grid(str(params["n"]))
    deltas = parse_grid(str(params["delta"]))
    reports = []
    for n in n_values:
        orbits = julia_orbits(qmap, n, cfg, minimal_only=True)
        for delta in deltas:
            reports.append((n, delta,
                            verify_hypothesis_h(qmap, n, delta, cfg, orbits=orbits)))
    if len(reports) == 1:
        doc = reports[0][2].to_dict()
        doc["schema"] = "v1"
        write_json(outdir / "bunches.json", doc)
        return ["bunches.json"]
    rows = [[n, delta, rep.threshold, rep.max_cluster, rep.bound,
             rep.hard_bound, rep.passed] for n, delta, rep in reports]
    write_csv(outdir / "bunches.csv",
              ["n", "delta", "threshold", "max_cluster", "bound",
               "hard_bound", "pass"], rows)
    write_json(outdir / "bunches.json", {
        "schema": "v1",
        "reports": [dict(rep.to_dict(), delta=delta) for n, delta, rep in reports]})
    return ["bunches.csv", "bunches.json"]


def cmd_near_point(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision(params)
    z0 = _resolve_point(params["z0"], qmap)
    p = int(params["p"])
    n = int(params["n"])
    delta = float(params["delta"])
    r0 = float(params["r0"])
    count = count_orbits_near_point(qmap, z0, p, n, delta, r0, cfg)
    write_json(outdir / "near_point.json", {
        "schema": "v1", "z0": [z0.real, z0.imag], "p": p, "n": n,
        "delta": delta, "r0": r0, "count": count, "bound": p,
        "pass": count <= p})
    return ["near_point.json"]


def cmd_disc_pattern(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision(params)
    p = int(params["period"])
    n = int(params["n"])
    delta = float(params["delta"])
    r0 = float(params["r0"])
    orbits = julia_orbits(qmap, p, cfg, minimal_only=True)
    if not orbits:
        raise QuadrayError(f"no minimal-period-{p} orbit on the Julia set")
    idx = int(params["orbit_index"])
    pattern = DiscPattern.around_orbit(qmap, orbits[idx], n, delta, r0,
                                       C=float(params["C"]))
    if not pattern.separation_ok(qmap, r0, delta):
        raise QuadrayError("pattern violates the separation inequality")
    report = count_orbits_in_disc_pattern(qmap, pattern, cfg)
    write_json(outdir / "disc_pattern.json", {
        "schema": "v1", "p": p, "n": n, "delta": delta, "r0": r0,
        "C": pattern.C,
        "centers": [[z.real, z.imag] for z in pattern.centers],
        "radii": list(pattern.radii),
        "count": report.count, "bound": report.bound, "pass": report.passed})
    return ["disc_pattern.json"]


def cmd_distortion(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    center = _resolve_point(params["center"], qmap)
    report = distortion_ratio(
        qmap, center, float(params["r"]), int(params["n"]),
        samples=int(params["samples"]), period=int(params["period"]),
        seed=int(params["seed"]))
    write_json(outdir / "distortion.json", {
        "schema": "v1", "center": [report.center.real, report.center.imag],
        "r": report.r, "n": report.n,
        "sup_ratio_minus_one": report.sup_ratio_minus_one,
        "per_step_log_derivative_bound": report.per_step_log_derivative_bound})
    return ["distortion.json"]


def cmd_bryuno(params: dict, outdir: Path) -> list[str]:
    terms = int(params["terms"])
    if params.get("quotients"):
        quots = [int(tok) for tok in str(params["quotients"]).split(",") if tok.strip()]
        report = bryuno_sums_from_quotients(quots, terms)
    else:
        alpha = params["alpha"]
        if alpha == "golden":
            alpha = GOLDEN_ROTATION
        elif alpha == "silver":
            alpha = math.sqrt(2.0) - 1.0
        report = bryuno_sums(float(alpha), terms)
    write_json(outdir / "bryuno.json", {
        "schema": "v1", "alpha": report.alpha,
        "convergent_denominators": list(report.convergent_denominators),
        "bryuno_partial": report.bryuno_partial,
        "perez_marco_partial": report.perez_marco_partial})
    write_csv(outdir / "bryuno.csv", ["index", "q"],
              [[i + 1, q] for i, q in enumerate(report.convergent_denominators)])
    return ["bryuno.json", "bryuno.csv"]


def cmd_render(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision(params)
    vp_bits = [float(b) for b in str(params["viewport"]).split(":")]
    if len(vp_bits) != 4:
        raise UsageError("viewport must be remin:remax:immin:immax")
    vp = Viewport(*vp_bits)
    scene = SceneModel(viewport=vp)
    layer_names = [s.strip() for s in str(params["layers"]).split(",") if s.strip()]
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    for name in layer_names:
        if name == "julia":
            scene.layers.append(PointCloudLayer(points=julia_point_cloud(
                qmap, count=int(params["points"]), seed=int(params["seed"]))))
        elif name == "rays":
            for i, theta in enumerate(parse_angles(params["angles"])):
                trace = trace_ray(qmap, theta, float(params["g_min"]), cfg=cfg)
                scene.layers.append(PolylineLayer(
                    points=[z for _, z in trace.samples],
                    color=palette[i % len(palette)], label=str(theta)))
        elif name == "orbits":
            period = params.get("marker_period")
            if not period:
                raise UsageError("orbits layer needs --marker-period")
            for o in julia_orbits(qmap, int(period), cfg):
                scene.layers.append(MarkerLayer(
                    points=list(o.points),
                    labels=[f"p{o.minimal_period}"] * len(o.points)))
        else:
            raise UsageError(f"unknown layer {name!r}")
    (outdir / "scene.svg").write_text(render_scene(scene), encoding="utf-8")
    return ["scene.svg"]


HANDLERS = {
    "orbits": cmd_orbits,
    "rays": cmd_rays,
    "portrait": cmd_portrait,
    "pressure": cmd_pressure,
    "bunches": cmd_bunches,
    "near-point": cmd_near_point,
    "disc-pattern": cmd_disc_pattern,
    "distortion": cmd_distortion,
    "bryuno": cmd_bryuno,
    "render": cmd_render,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadray",
        description="periodic orbits, external rays, portraits and pressure "
                    "for z^2 + c")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command)
        sp.add_argument("--config")
        sp.add_argument("--from-manifest", dest="from_manifest")
        for key in COMMON_PARAMS:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key)
        for key in COMMAND_PARAMS[command]:
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key)
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--flag -1,0' into '--flag=-1,0' so argparse does not read the
    negative value as an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok.startswith("--") and "=" not in tok and nxt
                and nxt.startswith("-") and any(ch.isdigit() for ch in nxt)):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(_merge_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    command = ns.command
    flag_values = {k: v for k, v in vars(ns).items()
                   if k not in ("command", "config", "from_manifest")}
    started = time.monotonic()
    try:
        params = resolve_params(command, flag_values, ns.config, ns.from_manifest)
        outdir = Path(params["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        outputs = HANDLERS[command](params, outdir)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except QuadrayError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "schema": "v1",
        "version": __version__,
        "command": command,
        "params": {k: v for k, v in params.items()},
        "outputs": outputs,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    write_json(outdir / "manifest.json", manifest)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
