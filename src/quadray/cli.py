"""Command-line front end: quadray <command> [flags].

Every run writes its outputs plus a manifest.json recording the fully
resolved configuration, tool version and wall time; re-running a command
from its manifest reproduces the output files byte for byte (the manifest
itself carries the non-deterministic wall time and is not compared).
Each command names the keys it reads (the map, the seed, the precision
keys, render's layer keys, bryuno's alpha); setting any other away from its
default is a usage error, and so is a null key outside NULLABLE_KEYS, a
malformed number, an integer below INT_FLOORS, a non-finite float or grid
value, or a value of POSITIVE_KEYS that is not above 0.  No command reads
mantissa_bits or max_iter; they stay so that older manifests replay.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import cmath
import functools
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .angles import Angle, bryuno_sums, bryuno_sums_from_quotients, classify_portrait
from .bunches import (MODE_H, DiscPattern, bunch_sweep, count_orbits_in_disc_pattern,
                      count_orbits_near_point, distortion_ratio)
from .dynamics import PrecisionConfig, QuadraticMap
from .errors import QuadrayError
from .orbits import (PeriodicOrbit, alpha_beta_fixed_points,
                     fixed_points_of_iterate, group_into_orbits, julia_orbits)
from .pressure import (MODE_PERIODIC, MODE_TREE, default_tree_basepoint,
                       pressure_comparison)
from .rays import portrait_at_orbit, trace_rays
from .scene import (Viewport, julia_point_cloud, markers_svg, point_cloud_svg,
                    polyline_svg, pressure_curve_svg, render_scene)

GOLDEN_ROTATION = (math.sqrt(5.0) - 1.0) / 2.0
_golden_lambda = cmath.exp(2j * math.pi * GOLDEN_ROTATION)

PRESETS = {
    "basilica": complex(-1.0, 0.0),
    "chebyshev": complex(-2.0, 0.0),
    "airplane_root": complex(-1.75, 0.0),
    "golden_siegel": _golden_lambda / 2.0 - _golden_lambda ** 2 / 4.0,
}

#: Most values of a start:stop:step grid; also stops one whose v += step never moves v.
MAX_GRID = 10_000

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


def _number(kind, text: str, what: str):
    """kind(text), int or float; a usage error when text is not one."""
    try:
        return kind(text)
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}") from exc


def parse_grid(text: str) -> list[float]:
    """'start:stop:step' (inclusive within half a step) or a comma list."""
    if ":" in text:
        bits = text.split(":")
        if len(bits) != 3:
            raise UsageError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (_number(float, b, "grid value") for b in bits)
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"grid bounds must be finite, got {text!r}")
        if step <= 0:
            raise UsageError("grid step must be positive")
        out = []
        v = start
        while v <= stop + step / 2.0:
            if len(out) == MAX_GRID:
                raise UsageError(f"grid {text!r} has more than {MAX_GRID} values")
            out.append(round(v, 12))
            v += step
        return out
    return [_number(float, b, "grid value") for b in text.split(",") if b.strip()]


def parse_int_grid(text: str) -> list[int]:
    vals = parse_grid(text)
    out = [int(round(v)) for v in vals]
    if any(abs(v - i) > 1e-9 or i < 1 for v, i in zip(vals, out)):
        raise UsageError(f"expected positive integers in {text!r}")
    return out


def parse_angles(text: str) -> list[Angle]:
    try:
        return [Angle.parse(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:  # not num/den, or a zero denominator
        raise UsageError(f"bad angle list {text!r}: {exc}") from exc


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


#: the columns of orbits.csv, in order
ORBIT_HEADER = ["re_z", "im_z", "minimal_period", "re_lambda", "im_lambda",
                "abs_lambda", "stability"]

#: json.dumps spells the non-finite floats that repr gives as 'inf', '-inf', 'nan'
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def write_orbits(outdir: Path, orbits: list[PeriodicOrbit]) -> None:
    """Write orbits.csv and orbits.jsonl, one row per orbit point, in one pass.

    The CSV is write_csv of ORBIT_HEADER and rows [re z, im z, minimal period,
    re lambda, im lambda, |lambda|, stability]; line k of the JSONL is
    json.dumps(dict(zip(ORBIT_HEADER, row k)), sort_keys=True).  Finite
    floats are spelled by repr in both files, so each value is formatted once
    (an orbit's fields once per orbit) and the same text goes into both.
    """
    csv_lines = [",".join(ORBIT_HEADER)]
    json_lines = []
    js = _JSON_NONFINITE.get
    for o in orbits:
        lam = o.multiplier
        re_l, im_l, abs_l = repr(lam.real), repr(lam.imag), repr(abs(lam))
        period = str(o.minimal_period)
        csv_tail = f"{period},{re_l},{im_l},{abs_l},{o.stability}"
        json_head = (f'{{"abs_lambda": {js(abs_l, abs_l)}, '
                     f'"im_lambda": {js(im_l, im_l)}, "im_z": ')
        json_mid = (f', "minimal_period": {period}, '
                    f'"re_lambda": {js(re_l, re_l)}, "re_z": ')
        json_tail = f', "stability": {json.dumps(o.stability)}}}\n'
        for z in o.points:
            re_z, im_z = repr(z.real), repr(z.imag)
            csv_lines.append(f"{re_z},{im_z},{csv_tail}")
            json_lines.append(f"{json_head}{js(im_z, im_z)}{json_mid}"
                              f"{js(re_z, re_z)}{json_tail}")
    (outdir / "orbits.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    (outdir / "orbits.jsonl").write_text("".join(json_lines), encoding="utf-8")


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
#: the render keys that only one layer reads
RENDER_LAYER_KEYS = {"julia": ("points",), "rays": ("angles", "g_min"),
                     "orbits": ("marker_period",)}
#: the only keys that may be null, from a default or a manifest
NULLABLE_KEYS = ("c", "preset", "ray_period_cap", "basepoint", "quotients", "marker_period")
#: least values of integer keys (distortion's n may be 0; parse_int_grid checks bunches')
INT_FLOORS = {"n": 1, "p": 1, "period": 1, "samples": 1, "points": 1, "seed": 0}
#: float keys that must be > 0; every float key and grid value must be finite
POSITIVE_KEYS = {"g_min", "r", "r0", "match_tol", "C", "delta"}


def _convert(command: str, key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if key in GRID_KEYS.get(command, ()):
        return value
    if key in INT_KEYS:
        return _number(int, value, key)
    if key in FLOAT_KEYS:
        return _number(float, value, key)
    return value


def resolve_params(command: str, flag_values: dict, config_path: str | None,
                   manifest_path: str | None) -> dict:
    allowed = dict(COMMON_PARAMS)
    allowed.update(COMMAND_PARAMS[command])
    params = dict(allowed)

    if config_path:
        cp = configparser.ConfigParser()
        try:
            if not cp.read(config_path):
                raise UsageError(f"config file not found: {config_path}")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise UsageError(f"unreadable config file {config_path}: {exc}") from exc
        for section in ("quadray", command):
            if cp.has_section(section):
                for key, value in cp.items(section):
                    if key not in allowed:
                        raise UsageError(
                            f"unknown key {key!r} in config section [{section}]")
                    params[key] = _convert(command, key, value)

    if manifest_path:
        try:
            doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise UsageError(f"unreadable manifest {manifest_path}: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
            raise UsageError(f"manifest {manifest_path} is not an object with a params object")
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

    missing = [k for k, v in params.items() if v is None and k not in NULLABLE_KEYS]
    if missing:
        raise UsageError(f"missing or null parameter(s): {', '.join(missing)}")
    for key in INT_FLOORS.keys() & params.keys() - GRID_KEYS.get(command, set()):
        least = 0 if (command, key) == ("distortion", "n") else INT_FLOORS[key]
        if type(params[key]) is not int or params[key] < least:
            raise UsageError(f"{key} must be an integer >= {least}, got {params[key]!r}")
    grids = GRID_KEYS.get(command, set())
    for key in FLOAT_KEYS & params.keys() | grids:
        values = parse_grid(str(params[key])) if key in grids else [params[key]]
        positive = key in POSITIVE_KEYS
        if not all(type(v) in (int, float) and math.isfinite(v) and (v > 0 or not positive)
                   for v in values):
            raise UsageError(f"{key} must be a finite number{' > 0' if positive else ''}, "
                             f"got {params[key]!r}")
    return params


def resolve_map(params: dict) -> QuadraticMap:
    if params.get("preset") and params.get("c"):
        raise UsageError("give --c or --preset, not both")
    if params.get("preset"):
        name = params["preset"]
        if name not in PRESETS:
            raise UsageError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
        return QuadraticMap(PRESETS[name])
    if params.get("c"):
        c = params["c"]
        return QuadraticMap(parse_complex(c) if isinstance(c, str) else complex(*c))
    raise UsageError("need --c re,im or --preset")


#: the keys that name the map, and PrecisionConfig's two keys with the two unread ones
MAP_KEYS = ("c", "preset")
PRECISION_KEYS = ("mantissa_bits", "newton_tol", "dedup_tol", "max_iter")
#: the common keys a command may leave unread; it names the ones it reads
OPTIONAL_KEYS = MAP_KEYS + ("seed",) + PRECISION_KEYS
#: what the enumeration of Fix(f^n) reads
ENUMERATION_KEYS = MAP_KEYS + ("newton_tol", "dedup_tol")


def resolve_precision(command: str, params: dict, reads: tuple[str, ...],
                      unread: tuple[str, ...] = ()) -> PrecisionConfig:
    """The PrecisionConfig of a command that reads the common keys `reads`.

    Any other key of OPTIONAL_KEYS, or a command key this run leaves
    `unread`, set away from its default, by a flag, a config file or a
    manifest, is a usage error, so no knob is accepted and then ignored; the
    keys stay in every manifest, which replays when they hold their defaults.
    """
    defaults = {**COMMON_PARAMS, **COMMAND_PARAMS[command]}
    ignored = [k for k in OPTIONAL_KEYS + unread
               if k not in reads and params[k] != defaults[k]]
    if ignored:
        raise UsageError(f"{command} does not use {', '.join(ignored)}; "
                         "leave them at their defaults")
    try:
        return PrecisionConfig(newton_tol=float(params["newton_tol"]),
                               dedup_tol=float(params["dedup_tol"]))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_point(token, qmap: QuadraticMap) -> complex:
    if isinstance(token, str):
        fp = alpha_beta_fixed_points(qmap)
        if token == "alpha":
            return fp.alpha
        if token == "beta":
            return fp.beta
        return parse_complex(token)
    return complex(*token) if isinstance(token, (list, tuple)) else complex(token)


def _select_orbit(orbits: list[PeriodicOrbit], period: int, params: dict) -> PeriodicOrbit:
    """orbits[orbit_index]; a usage error unless 0 <= orbit_index < len(orbits)."""
    if not orbits:
        raise QuadrayError(f"no minimal-period-{period} orbit on the Julia set")
    idx = int(params["orbit_index"])
    if not 0 <= idx < len(orbits):
        raise UsageError(f"orbit_index {idx} out of range ({len(orbits)} orbits)")
    return orbits[idx]


# --------------------------------------------------------------------------
# command implementations; each returns the list of output file names

def cmd_orbits(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision("orbits", params, ENUMERATION_KEYS)
    n = int(params["n"])
    write_orbits(outdir, group_into_orbits(fixed_points_of_iterate(qmap, n, cfg), qmap, n, cfg))
    return ["orbits.csv", "orbits.jsonl"]


def cmd_rays(params: dict, outdir: Path) -> list[str]:
    resolve_precision("rays", params, MAP_KEYS)
    qmap = resolve_map(params)
    angles = parse_angles(params["angles"])
    if not angles:
        raise UsageError("no angles given")
    outputs = []
    for trace in trace_rays(qmap, angles, float(params["g_min"])):
        theta = trace.angle
        name = f"ray_{theta.numerator}_{theta.denominator}.csv"
        write_csv(outdir / name, ["G", "re_z", "im_z"],
                  [[g, z.real, z.imag] for g, z in trace.samples])
        outputs.append(name)
    return outputs


def cmd_portrait(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision("portrait", params, ENUMERATION_KEYS)
    n = int(params["period"])
    orbit = _select_orbit(julia_orbits(qmap, n, cfg), n, params)
    cap = params.get("ray_period_cap")
    portrait = portrait_at_orbit(
        qmap, orbit, n,
        match_tol=float(params["match_tol"]),
        ray_period_cap=int(cap) if cap else None)
    cls = classify_portrait(portrait)
    doc = json.loads(portrait.to_json())
    doc.update({"schema": "v1", "ray_period": portrait.ray_period,
                "valence": cls.valence, "ray_cycles": cls.ray_cycles,
                "kind": cls.kind})
    write_json(outdir / "portrait.json", doc)
    return ["portrait.json"]


def cmd_pressure(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision("pressure", params, ENUMERATION_KEYS)
    t_grid = parse_grid(str(params["t"]))
    n = int(params["n"])
    base = params.get("basepoint")
    z = _resolve_point(base, qmap) if base else default_tree_basepoint(qmap)
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
    cfg = resolve_precision("bunches", params, ENUMERATION_KEYS)
    n_values = parse_int_grid(str(params["n"]))
    deltas = parse_grid(str(params["delta"]))
    reports = []
    for n in n_values:
        orbits = julia_orbits(qmap, n, cfg, minimal_only=True)
        reports += [(n, delta, rep) for delta, rep in
                    zip(deltas, bunch_sweep(orbits, MODE_H, deltas, n))]
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
    cfg = resolve_precision("near-point", params, ENUMERATION_KEYS)
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
    cfg = resolve_precision("disc-pattern", params, ENUMERATION_KEYS)
    p = int(params["period"])
    n = int(params["n"])
    delta = float(params["delta"])
    r0 = float(params["r0"])
    orbit = _select_orbit(julia_orbits(qmap, p, cfg), p, params)
    pattern = DiscPattern.around_orbit(orbit, n, delta, r0, C=float(params["C"]))
    if not pattern.separation_ok(r0, delta):
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
    resolve_precision("distortion", params, MAP_KEYS + ("seed",))
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
    resolve_precision("bryuno", params, reads=(),
                      unread=("alpha",) if params.get("quotients") else ())
    terms = int(params["terms"])
    alpha = {"golden": GOLDEN_ROTATION, "silver": math.sqrt(2.0) - 1.0}.get(
        params["alpha"], params["alpha"])
    try:
        if params.get("quotients"):
            quots = [int(tok) for tok in str(params["quotients"]).split(",") if tok.strip()]
            report = bryuno_sums_from_quotients(quots, terms)
        else:
            report = bryuno_sums(float(alpha), terms)
    except ValueError as exc:  # the terms, quotients or alpha given
        raise UsageError(str(exc)) from exc
    write_json(outdir / "bryuno.json", {
        "schema": "v1", "alpha": report.alpha,
        "convergent_denominators": list(report.convergent_denominators),
        "bryuno_partial": report.bryuno_partial,
        "perez_marco_partial": report.perez_marco_partial})
    write_csv(outdir / "bryuno.csv", ["index", "q"],
              [[i + 1, q] for i, q in enumerate(report.convergent_denominators)])
    return ["bryuno.json", "bryuno.csv"]


def cmd_render(params: dict, outdir: Path) -> list[str]:
    layer_names = [s.strip() for s in str(params["layers"]).split(",") if s.strip()]
    # only the julia layer samples and only the orbits layer enumerates
    cfg = resolve_precision("render", params, MAP_KEYS
                            + (("seed",) if "julia" in layer_names else ())
                            + (ENUMERATION_KEYS if "orbits" in layer_names else ()),
                            unread=tuple(k for layer, keys in RENDER_LAYER_KEYS.items()
                                         if layer not in layer_names for k in keys))
    qmap = resolve_map(params)
    try:
        vp_bits = [float(b) for b in str(params["viewport"]).split(":")]
    except ValueError as exc:
        raise UsageError(f"bad viewport {params['viewport']!r}") from exc
    if len(vp_bits) != 4:
        raise UsageError("viewport must be remin:remax:immin:immax")
    vp = Viewport(*vp_bits)
    if not (all(map(math.isfinite, vp_bits))
            and vp.re_min < vp.re_max and vp.im_min < vp.im_max):
        raise UsageError("viewport needs finite remin < remax and immin < immax")
    for name in layer_names:
        if name not in RENDER_LAYER_KEYS:
            raise UsageError(f"unknown layer {name!r}")
    angles = parse_angles(params["angles"])
    if "rays" in layer_names and not angles:
        raise UsageError("rays layer needs --angles")
    period = params.get("marker_period")
    if "orbits" in layer_names and not period:
        raise UsageError("orbits layer needs --marker-period")
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    elements: list[str] = []
    for name in layer_names:
        if name == "julia":
            elements += point_cloud_svg(julia_point_cloud(
                qmap, count=int(params["points"]), seed=int(params["seed"])), vp)
        elif name == "rays":
            for i, trace in enumerate(trace_rays(qmap, angles, float(params["g_min"]))):
                elements += polyline_svg([z for _, z in trace.samples], vp,
                                         palette[i % len(palette)], str(trace.angle))
        else:
            orbits = julia_orbits(qmap, int(period), cfg)
            elements += markers_svg([z for o in orbits for z in o.points],
                                    [f"p{o.minimal_period}" for o in orbits for _ in o.points],
                                    vp)
    (outdir / "scene.svg").write_text(render_scene(elements), encoding="utf-8")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and building it costs about 2 ms."""
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
