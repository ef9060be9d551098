"""Command-line front end: quadray <command> [flags].

Every run writes its outputs plus a manifest.json recording the fully
resolved configuration, tool version and wall time; re-running a command
from its manifest reproduces the output files byte for byte (the manifest
itself carries the non-deterministic wall time and is not compared).
@subcommand registers each handler with one table, key -> (default, kind),
kept in KEYS[command]; the parser's flags come from it.  A kind turns a
key's text from a flag or config file, or its JSON value from a manifest,
into an int with an optional floor, a finite float (optionally > 0), a
checked, non-empty grid kept as text, or a string; anything else is a usage
error, and so is a null key whose default is not None.  Each command names the
common keys it reads; setting another (output_dir aside), or a command key the
run leaves unread, away from its default is a usage error.  No command reads
mantissa_bits or max_iter; they stay so that older manifests replay.

Exit codes: 0 success, 1 domain error, 2 usage error.  Each handler imports
the modules it runs beyond dynamics, errors and orbits in its own body.
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
from .dynamics import PrecisionConfig, QuadraticMap
from .errors import QuadrayError
from .orbits import (PeriodicOrbit, alpha_beta_fixed_points,
                     fixed_points_of_iterate, group_into_orbits, julia_orbits)

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


def _number(cast, value, what: str):
    """cast(value), int or float; a usage error when value is not one."""
    try:
        return cast(value)
    except (ValueError, OverflowError) as exc:  # OverflowError: a huge JSON int
        raise UsageError(f"bad {what} {value!r}") from exc


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


def parse_angles(text: str) -> list:
    from .angles import Angle
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

def integer(least: int | None = None):
    """The kind of an int key, at least `least` when that is given."""
    def kind(key: str, value) -> int:
        v = _number(int, value, key) if isinstance(value, str) else value
        if type(v) is not int or (least is not None and v < least):  # bool is refused
            floor = "" if least is None else f" >= {least}"
            raise UsageError(f"{key} must be an integer{floor}, got {value!r}")
        return v
    return kind


def real(positive: bool = False):
    """The kind of a float key: finite, and > 0 when `positive`."""
    def kind(key: str, value) -> float:
        v = _number(float, value, key) if type(value) in (str, int, float) else math.nan
        if not math.isfinite(v) or (positive and v <= 0):
            raise UsageError(f"{key} must be a finite number{' > 0' if positive else ''}, "
                             f"got {value!r}")
        return v
    return kind


def string(key: str, value) -> str:
    """The kind of a string key."""
    if not isinstance(value, str):
        raise UsageError(f"{key} must be a string, got {value!r}")
    return value


def grid(positive: bool = False):
    """The kind of a grid key: parse_grid text whose values are real(positive),
    kept as text."""
    check = real(positive)

    def kind(key: str, value) -> str:
        if not [check(key, v) for v in parse_grid(string(key, value))]:
            raise UsageError(f"{key} needs at least one value, got {value!r}")
        return value
    return kind


#: the default of a key that every run sets
REQUIRED = object()

COMMON_KEYS = {
    "c": (None, string),
    "preset": (None, string),
    "output_dir": (".", string),
    "seed": (0, integer(0)),
    "mantissa_bits": (53, integer()),
    "newton_tol": (1e-9, real()),
    "dedup_tol": (1e-9, real()),
    "max_iter": (4096, integer()),
}

#: each command's keys, key -> (default, kind), and its handler, both filled
#: in by @subcommand; a key may be null only where its default is None
KEYS: dict[str, dict[str, tuple]] = {}
HANDLERS: dict = {}


def subcommand(name: str, **own):
    """Register the decorated handler as command `name`, whose keys are
    COMMON_KEYS and `own`."""
    def register(handler):
        KEYS[name] = {**COMMON_KEYS, **own}
        HANDLERS[name] = handler
        return handler
    return register


#: the render keys that only one layer reads
RENDER_LAYER_KEYS = {"julia": ("points",), "rays": ("angles", "g_min"),
                     "orbits": ("marker_period",)}


def resolve_params(command: str, flag_values: dict, config_path: str | None,
                   manifest_path: str | None) -> dict:
    """Defaults < config file < manifest < flags, each merged value then put
    through its key's kind (a config value also as it is read, so a bad one
    fails even where a flag overrides it; a kind returns its own output
    unchanged)."""
    table = KEYS[command]
    params = {key: default for key, (default, _) in table.items()}

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
                    if key not in table:
                        raise UsageError(
                            f"unknown key {key!r} in config section [{section}]")
                    params[key] = table[key][1](key, value)

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
            if key not in table:
                raise UsageError(f"unknown key {key!r} in manifest")
            params[key] = value

    params.update((key, value) for key, value in flag_values.items() if value is not None)
    missing = [k for k, v in params.items()
               if v is REQUIRED or (v is None and table[k][0] is not None)]
    if missing:
        raise UsageError(f"missing or null parameter(s): {', '.join(missing)}")
    return {k: v if v is None else table[k][1](k, v) for k, v in params.items()}


def resolve_map(params: dict) -> QuadraticMap:
    c, preset = params["c"], params["preset"]
    if preset and c:
        raise UsageError("give --c or --preset, not both")
    if preset:
        if preset not in PRESETS:
            raise UsageError(f"unknown preset {preset!r}; choices: {sorted(PRESETS)}")
        return QuadraticMap(PRESETS[preset])
    if c:
        return QuadraticMap(parse_complex(c))
    raise UsageError("need --c re,im or --preset")


#: the keys that name the map
MAP_KEYS = ("c", "preset")
#: what the enumeration of Fix(f^n) reads
ENUMERATION_KEYS = MAP_KEYS + ("newton_tol", "dedup_tol")


def resolve_precision(command: str, params: dict, reads: tuple[str, ...],
                      unread: tuple[str, ...] = ()) -> PrecisionConfig:
    """The PrecisionConfig of a command that reads the common keys `reads`.

    Any other common key but output_dir, or a command key this run leaves
    `unread`, set away from its default, by a flag, a config file or a
    manifest, is a usage error, so no knob is accepted and then ignored; the
    keys stay in every manifest, which replays when they hold their defaults.
    """
    table = KEYS[command]
    ignored = [k for k in (*COMMON_KEYS, *unread)
               if k not in reads and k != "output_dir" and params[k] != table[k][0]]
    if ignored:
        raise UsageError(f"{command} does not use {', '.join(ignored)}; "
                         "leave them at their defaults")
    try:
        return PrecisionConfig(newton_tol=params["newton_tol"],
                               dedup_tol=params["dedup_tol"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_point(token: str, qmap: QuadraticMap) -> complex:
    if token in ("alpha", "beta"):
        return getattr(alpha_beta_fixed_points(qmap), token)
    return parse_complex(token)


def _select_orbit(orbits: list[PeriodicOrbit], period: int, params: dict) -> PeriodicOrbit:
    """orbits[orbit_index]; a usage error unless 0 <= orbit_index < len(orbits)."""
    if not orbits:
        raise QuadrayError(f"no minimal-period-{period} orbit on the Julia set")
    idx = params["orbit_index"]
    if not 0 <= idx < len(orbits):
        raise UsageError(f"orbit_index {idx} out of range ({len(orbits)} orbits)")
    return orbits[idx]


# --------------------------------------------------------------------------
# command implementations; each returns the list of output file names

@subcommand("orbits", n=(REQUIRED, integer(1)))
def cmd_orbits(params: dict, outdir: Path) -> list[str]:
    qmap = resolve_map(params)
    cfg = resolve_precision("orbits", params, ENUMERATION_KEYS)
    n = params["n"]
    write_orbits(outdir, group_into_orbits(fixed_points_of_iterate(qmap, n, cfg), qmap, n, cfg))
    return ["orbits.csv", "orbits.jsonl"]


@subcommand("rays", angles=("1/3,2/3", string), g_min=(1e-8, real(True)))
def cmd_rays(params: dict, outdir: Path) -> list[str]:
    from .rays import trace_rays
    resolve_precision("rays", params, MAP_KEYS)
    qmap = resolve_map(params)
    angles = parse_angles(params["angles"])
    if not angles:
        raise UsageError("no angles given")
    outputs = []
    for trace in trace_rays(qmap, angles, params["g_min"]):
        theta = trace.angle
        name = f"ray_{theta.numerator}_{theta.denominator}.csv"
        write_csv(outdir / name, ["G", "re_z", "im_z"],
                  [[g, z.real, z.imag] for g, z in trace.samples])
        outputs.append(name)
    return outputs


@subcommand("portrait", period=(REQUIRED, integer(1)), orbit_index=(0, integer()),
            match_tol=(1e-6, real(True)), ray_period_cap=(None, integer(1)))
def cmd_portrait(params: dict, outdir: Path) -> list[str]:
    from .angles import classify_portrait
    from .rays import portrait_at_orbit
    qmap = resolve_map(params)
    cfg = resolve_precision("portrait", params, ENUMERATION_KEYS)
    n = params["period"]
    orbit = _select_orbit(julia_orbits(qmap, n, cfg), n, params)
    portrait = portrait_at_orbit(qmap, orbit, n, match_tol=params["match_tol"],
                                 ray_period_cap=params["ray_period_cap"])
    cls = classify_portrait(portrait)
    doc = json.loads(portrait.to_json())
    doc.update({"schema": "v1", "ray_period": portrait.ray_period,
                "valence": cls.valence, "ray_cycles": cls.ray_cycles,
                "kind": cls.kind})
    write_json(outdir / "portrait.json", doc)
    return ["portrait.json"]


@subcommand("pressure", t=("0:2:0.5", grid()), n=(10, integer(1)), basepoint=(None, string))
def cmd_pressure(params: dict, outdir: Path) -> list[str]:
    from .pressure import MODE_PERIODIC, MODE_TREE, default_tree_basepoint, pressure_comparison
    from .scene import pressure_curve_svg
    qmap = resolve_map(params)
    cfg = resolve_precision("pressure", params, ENUMERATION_KEYS)
    t_grid = parse_grid(params["t"])
    n = params["n"]
    base = params["basepoint"]
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


# parse_int_grid checks that n holds positive integers
@subcommand("bunches", n=(REQUIRED, grid()), delta=("0.1", grid(True)), mode=("H", string))
def cmd_bunches(params: dict, outdir: Path) -> list[str]:
    from .bunches import MODE_H, bunch_sweep
    qmap = resolve_map(params)
    # only Hypothesis H is checked; mode stays so older manifests replay
    cfg = resolve_precision("bunches", params, ENUMERATION_KEYS, unread=("mode",))
    n_values = parse_int_grid(params["n"])
    deltas = parse_grid(params["delta"])
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


@subcommand("near-point", z0=("beta", string), p=(1, integer(1)), n=(REQUIRED, integer(1)),
            delta=(0.3, real(True)), r0=(0.5, real(True)))
def cmd_near_point(params: dict, outdir: Path) -> list[str]:
    from .bunches import count_orbits_near_point
    qmap = resolve_map(params)
    cfg = resolve_precision("near-point", params, ENUMERATION_KEYS)
    z0 = _resolve_point(params["z0"], qmap)
    p, n, delta, r0 = params["p"], params["n"], params["delta"], params["r0"]
    count = count_orbits_near_point(qmap, z0, p, n, delta, r0, cfg)
    write_json(outdir / "near_point.json", {
        "schema": "v1", "z0": [z0.real, z0.imag], "p": p, "n": n,
        "delta": delta, "r0": r0, "count": count, "bound": p,
        "pass": count <= p})
    return ["near_point.json"]


@subcommand("disc-pattern", period=(REQUIRED, integer(1)), n=(REQUIRED, integer(1)),
            delta=(0.3, real(True)), r0=(0.5, real(True)), C=(2.0, real(True)),
            orbit_index=(0, integer()))
def cmd_disc_pattern(params: dict, outdir: Path) -> list[str]:
    from .bunches import DiscPattern, count_orbits_in_disc_pattern
    qmap = resolve_map(params)
    cfg = resolve_precision("disc-pattern", params, ENUMERATION_KEYS)
    p, n, delta, r0 = params["period"], params["n"], params["delta"], params["r0"]
    orbit = _select_orbit(julia_orbits(qmap, p, cfg), p, params)
    pattern = DiscPattern.around_orbit(orbit, n, delta, r0, C=params["C"])
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


@subcommand("distortion", center=("alpha", string), r=(1e-4, real(True)),
            n=(20, integer(0)), samples=(2048, integer(1)), period=(1, integer(1)))
def cmd_distortion(params: dict, outdir: Path) -> list[str]:
    from .bunches import distortion_ratio
    resolve_precision("distortion", params, MAP_KEYS + ("seed",))
    qmap = resolve_map(params)
    center = _resolve_point(params["center"], qmap)
    report = distortion_ratio(qmap, center, params["r"], params["n"], samples=params["samples"],
                              period=params["period"], seed=params["seed"])
    write_json(outdir / "distortion.json", {
        "schema": "v1", "center": [report.center.real, report.center.imag],
        "r": report.r, "n": report.n,
        "sup_ratio_minus_one": report.sup_ratio_minus_one,
        "per_step_log_derivative_bound": report.per_step_log_derivative_bound})
    return ["distortion.json"]


@subcommand("bryuno", alpha=("golden", string), quotients=(None, string), terms=(20, integer()))
def cmd_bryuno(params: dict, outdir: Path) -> list[str]:
    from .angles import bryuno_sums, bryuno_sums_from_quotients
    quotients, terms = params["quotients"], params["terms"]
    resolve_precision("bryuno", params, reads=(), unread=("alpha",) if quotients else ())
    alpha = {"golden": GOLDEN_ROTATION, "silver": math.sqrt(2.0) - 1.0}.get(
        params["alpha"], params["alpha"])
    try:
        if quotients:
            quots = [int(tok) for tok in quotients.split(",") if tok.strip()]
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


@subcommand("render", layers=("julia", string), angles=("", string),
            points=(20000, integer(1)), viewport=("-2.2:2.2:-1.7:1.7", string),
            g_min=(1e-6, real(True)), marker_period=(None, integer(1)))
def cmd_render(params: dict, outdir: Path) -> list[str]:
    from . import scene
    from .rays import trace_rays
    layer_names = [s.strip() for s in params["layers"].split(",") if s.strip()]
    # only the julia layer samples and only the orbits layer enumerates
    cfg = resolve_precision("render", params, MAP_KEYS
                            + (("seed",) if "julia" in layer_names else ())
                            + (ENUMERATION_KEYS if "orbits" in layer_names else ()),
                            unread=tuple(k for layer, keys in RENDER_LAYER_KEYS.items()
                                         if layer not in layer_names for k in keys))
    qmap = resolve_map(params)
    try:
        vp_bits = [float(b) for b in params["viewport"].split(":")]
    except ValueError as exc:
        raise UsageError(f"bad viewport {params['viewport']!r}") from exc
    if len(vp_bits) != 4:
        raise UsageError("viewport must be remin:remax:immin:immax")
    vp = scene.Viewport(*vp_bits)
    if not (all(map(math.isfinite, vp_bits))
            and vp.re_min < vp.re_max and vp.im_min < vp.im_max):
        raise UsageError("viewport needs finite remin < remax and immin < immax")
    for name in layer_names:
        if name not in RENDER_LAYER_KEYS:
            raise UsageError(f"unknown layer {name!r}")
    angles = parse_angles(params["angles"])
    if "rays" in layer_names and not angles:
        raise UsageError("rays layer needs --angles")
    period = params["marker_period"]
    if "orbits" in layer_names and period is None:
        raise UsageError("orbits layer needs --marker-period")
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    elements: list[str] = []
    for name in layer_names:
        if name == "julia":
            elements += scene.point_cloud_svg(scene.julia_point_cloud(
                qmap, count=params["points"], seed=params["seed"]), vp)
        elif name == "rays":
            for i, trace in enumerate(trace_rays(qmap, angles, params["g_min"])):
                elements += scene.polyline_svg([z for _, z in trace.samples], vp,
                                               palette[i % len(palette)], str(trace.angle))
        else:
            orbits = julia_orbits(qmap, period, cfg)
            elements += scene.markers_svg([z for o in orbits for z in o.points],
                                          [f"p{o.minimal_period}" for o in orbits
                                           for _ in o.points], vp)
    (outdir / "scene.svg").write_text(scene.render_scene(elements), encoding="utf-8")
    return ["scene.svg"]


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
    for command in KEYS:
        sp = sub.add_parser(command)
        sp.add_argument("--config")
        sp.add_argument("--from-manifest", dest="from_manifest")
        for key in KEYS[command]:
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
        "params": params,
        "outputs": outputs,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    write_json(outdir / "manifest.json", manifest)
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
