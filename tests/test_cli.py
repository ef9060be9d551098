import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadray import (DEFAULT_CONFIG, PeriodicOrbit, QuadraticMap,
                     fixed_points_of_iterate, group_into_orbits)
from quadray.cli import (ORBIT_HEADER, PRESETS, parse_complex, parse_grid,
                         run_command, write_csv, write_orbits)


def hashes(d: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.name != "manifest.json"}


def test_parse_complex():
    assert parse_complex("0.5,-1.5") == 0.5 - 1.5j
    from quadray.cli import UsageError
    with pytest.raises(UsageError):
        parse_complex("1")


def test_parse_grid():
    assert parse_grid("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert parse_grid("0.1,0.3") == [0.1, 0.3]


@pytest.mark.parametrize("text", ["0:1:1e-12", "1e20:2e20:1", "1e20:1e20:1"])
def test_parse_grid_refuses_runaway_grids(text):
    # too many values, and a step below the rounding of start (v += step
    # never moves v): both stop at the cap instead of filling memory
    from quadray.cli import MAX_GRID, UsageError
    assert len(parse_grid(f"1:{MAX_GRID}:1")) == MAX_GRID
    with pytest.raises(UsageError, match=f"more than {MAX_GRID} values"):
        parse_grid(text)


def test_presets_golden_fixed_point():
    c = PRESETS["golden_siegel"]
    # alpha = lambda/2 must be a fixed point with |f'| = 1
    lam = cmath_exp = None
    import cmath
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    lam = cmath.exp(2j * math.pi * phi)
    alpha = lam / 2.0
    assert alpha * alpha + c == pytest.approx(alpha)
    assert abs(2.0 * alpha) == pytest.approx(1.0)


def test_orbits_command(tmp_path):
    rc = run_command(["orbits", "--c", "-1,0", "--n", "4",
                      "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "orbits.csv").read_text().splitlines()
    assert lines[0] == "re_z,im_z,minimal_period,re_lambda,im_lambda,abs_lambda,stability"
    assert len(lines) == 17  # header + 2^4 points
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "orbits"
    assert manifest["params"]["n"] == 4
    assert "wall_time_s" in manifest
    jsonl = (tmp_path / "orbits.jsonl").read_text().splitlines()
    assert len(jsonl) == 16
    assert set(json.loads(jsonl[0])) == set(lines[0].split(","))


def test_usage_error_missing_map(tmp_path):
    rc = run_command(["orbits", "--n", "4", "--output-dir", str(tmp_path)])
    assert rc == 2


def test_parser_reused_after_a_usage_error(tmp_path, capsys):
    # the parser is built once per process: after an argparse usage error and
    # --help, a good command writes what it writes in a fresh process
    argv = ["orbits", "--c", "-1,0", "--n", "5", "--output-dir"]
    assert run_command(["orbits", "--no-such-flag", "1"]) == 2
    assert run_command(["orbits", "--help"]) == 0
    assert run_command(argv + [str(tmp_path / "reused")]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "quadray.cli", *argv, str(tmp_path / "fresh")],
                   env=env, check=True)
    assert hashes(tmp_path / "reused") == hashes(tmp_path / "fresh")
    out, err = capsys.readouterr()
    assert "unrecognized arguments: --no-such-flag 1" in err
    assert out.startswith("usage: quadray orbits")


def test_domain_error_exit_code(tmp_path):
    # period-2 orbits of the basilica are attracting: no portrait target
    rc = run_command(["portrait", "--preset", "basilica", "--period", "2",
                      "--output-dir", str(tmp_path)])
    assert rc == 1


def test_pressure_command_values(tmp_path):
    rc = run_command(["pressure", "--c", "0,0", "--t", "0:2:1", "--n", "8",
                      "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "pressure.csv").read_text().splitlines()[1:]
    got = {}
    for row in rows:
        t, n, mode, value = row.split(",")
        got[(float(t), int(n), mode)] = float(value)
    assert got[(1.0, 8, "tree")] == pytest.approx(0.0, abs=1e-2)
    assert got[(0.0, 8, "tree")] == pytest.approx(math.log(2.0), abs=1e-12)
    assert (tmp_path / "pressure.svg").read_text().startswith("<svg")


def test_bunches_grid_csv(tmp_path):
    rc = run_command(["bunches", "--preset", "basilica", "--n", "4,5",
                      "--delta", "0.1,0.3", "--output-dir", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "bunches.csv").read_text().splitlines()
    assert rows[0] == "n,delta,threshold,max_cluster,bound,hard_bound,pass"
    assert len(rows) == 5
    reports = json.loads((tmp_path / "bunches.json").read_text())["reports"]
    assert all(r["component_max"] >= r["max_cluster"] for r in reports)


def test_bunches_single_json(tmp_path):
    rc = run_command(["bunches", "--preset", "basilica", "--n", "6",
                      "--delta", "0.1", "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "bunches.json").read_text())
    assert doc["pass"] is True
    assert doc["n"] == 6
    assert doc["schema"] == "v1"
    assert doc["component_max"] >= doc["max_cluster"] >= 1


def test_bunches_rejects_unsupported_mode(tmp_path, capsys):
    rc = run_command(["bunches", "--preset", "basilica", "--n", "6",
                      "--mode", "BMS", "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "does not use mode" in capsys.readouterr().err
    assert not (tmp_path / "bunches.json").exists()


def test_determinism_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        rc = run_command(["render", "--preset", "basilica", "--layers",
                          "julia,rays", "--angles", "1/3,2/3", "--points",
                          "3000", "--seed", "11", "--g-min", "1e-5",
                          "--output-dir", str(d)])
        assert rc == 0
    assert hashes(a) == hashes(b)


def test_manifest_rerun_reproduces(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    rc = run_command(["bryuno", "--alpha", "golden", "--terms", "15",
                      "--output-dir", str(a)])
    assert rc == 0
    rc = run_command(["bryuno", "--from-manifest", str(a / "manifest.json"),
                      "--output-dir", str(b)])
    assert rc == 0
    assert hashes(a) == hashes(b)


def test_config_file_merge_and_flag_priority(tmp_path):
    cfg = tmp_path / "cfg.ini"
    # bryuno reads no map, so the shared section sets a key it reads
    cfg.write_text("[quadray]\nterms = 8\n\n[bryuno]\nterms = 10\n")
    rc = run_command(["bryuno", "--config", str(cfg), "--terms", "12",
                      "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "bryuno.json").read_text())
    assert len(doc["convergent_denominators"]) == 12  # flag wins over config
    rc = run_command(["bryuno", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "bryuno.json").read_text())
    assert len(doc["convergent_denominators"]) == 10  # command section wins


@pytest.mark.parametrize("flag, text", [
    ("--from-manifest", None),
    ("--from-manifest", b"[1,2]"),
    ("--from-manifest", b"{not json"),
    ("--from-manifest", b'{"command": "bryuno", "params": [1]}'),
    ("--from-manifest", b'{"command": "bryuno", "params": {"terms": "\xff"}}'),
    ("--config", b"terms = 12\n"),
    ("--config", b"[bryuno]\nterms = \xff\n"),
], ids=["missing", "list", "not-json", "params-list", "not-utf8", "no-section",
        "config-not-utf8"])
def test_unreadable_manifest_or_config_is_a_usage_error(tmp_path, capsys, flag, text):
    path = tmp_path / "given"
    if text is not None:
        path.write_bytes(text)
    out = tmp_path / "out"
    rc = run_command(["bryuno", flag, str(path), "--output-dir", str(out)])
    assert rc == 2
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_value_is_rejected_even_when_a_flag_wins(tmp_path, capsys):
    cfg = tmp_path / "q.ini"
    cfg.write_text("[bryuno]\nterms = abc\n")
    out = tmp_path / "out"
    rc = run_command(["bryuno", "--config", str(cfg), "--terms", "12", "--output-dir", str(out)])
    assert rc == 2 and "abc" in capsys.readouterr().err
    assert not out.exists()


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[bryuno]\nnot_a_key = 1\n")
    rc = run_command(["bryuno", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert rc == 2


def test_near_point_command(tmp_path):
    rc = run_command(["near-point", "--c", "0,0", "--z0", "beta", "--p", "1",
                      "--n", "6", "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "near_point.json").read_text())
    assert doc["count"] == 0 and doc["pass"] is True


def test_alpha_is_zero_at_c_zero(tmp_path):
    # alpha = 0j at c = 0: a point lookup that tests truthiness would miss it
    assert run_command(["near-point", "--c", "0,0", "--z0", "alpha", "--n", "6",
                        "--output-dir", str(tmp_path / "np")]) == 0
    assert json.loads((tmp_path / "np" / "near_point.json").read_text())["z0"] == [0.0, 0.0]
    assert run_command(["distortion", "--c", "0,0", "--center", "alpha", "--n", "4",
                        "--samples", "16", "--output-dir", str(tmp_path / "d")]) == 0
    doc = json.loads((tmp_path / "d" / "distortion.json").read_text())
    assert doc["center"] == [0.0, 0.0]


def test_disc_pattern_command(tmp_path):
    rc = run_command(["disc-pattern", "--c", "0,0", "--period", "1", "--n", "5",
                      "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "disc_pattern.json").read_text())
    assert doc["pass"] is True


@pytest.mark.parametrize("command", ["portrait", "disc-pattern"])
@pytest.mark.parametrize("index", ["2", "5", "-1"])
def test_orbit_index_out_of_range_is_a_usage_error(tmp_path, capsys, command, index):
    # z^2 has K = 2 orbits of minimal period 3: indices 0 and 1 only
    argv = [command, "--c", "0,0", "--period", "3", "--orbit-index", index]
    if command == "disc-pattern":
        argv += ["--n", "2"]
    rc = run_command(argv + ["--output-dir", str(tmp_path)])
    assert rc == 2
    assert f"orbit_index {index} out of range (2 orbits)" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_rays_command_files(tmp_path):
    rc = run_command(["rays", "--c", "-2,0", "--angles", "0/1,1/2",
                      "--g-min", "1e-6", "--output-dir", str(tmp_path)])
    assert rc == 0
    body = (tmp_path / "ray_0_1.csv").read_text().splitlines()
    assert body[0] == "G,re_z,im_z"
    # the 0-ray of the Chebyshev map runs along [2, +inf)
    last = body[-1].split(",")
    assert float(last[1]) == pytest.approx(2.0, abs=1e-2)
    assert abs(float(last[2])) < 1e-9


@pytest.mark.parametrize("flag, value", [
    ("--mantissa-bits", "64"), ("--newton-tol", "1e-14"),
    ("--dedup-tol", "1e-13"), ("--max-iter", "100")])
def test_rays_rejects_precision_flags(tmp_path, flag, value):
    # no ray routine reads a precision knob, so setting one is an error
    rc = run_command(["rays", "--preset", "basilica", "--angles", "1/3",
                      flag, value, "--output-dir", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "ray_1_3.csv").exists()


def test_rays_rejects_precision_key_in_config(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[rays]\nnewton_tol = 1e-12\n")
    rc = run_command(["rays", "--config", str(cfg), "--preset", "basilica",
                      "--angles", "1/3", "--output-dir", str(tmp_path / "out")])
    assert rc == 2


def test_rays_replays_manifest_with_default_precision(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[quadray]\nmantissa_bits = 53\nmax_iter = 4096\n")
    rc = run_command(["rays", "--config", str(cfg), "--preset", "basilica",
                      "--angles", "1/3,2/3", "--newton-tol", "1e-9",
                      "--output-dir", str(a)])
    assert rc == 0
    params = json.loads((a / "manifest.json").read_text())["params"]
    assert (params["newton_tol"], params["dedup_tol"]) == (1e-9, 1e-9)
    rc = run_command(["rays", "--from-manifest", str(a / "manifest.json"),
                      "--output-dir", str(b)])
    assert rc == 0
    assert hashes(a) == hashes(b)


#: a small valid run of each command, and the precision keys it reads
#: (rays reads none; test_rays_rejects_precision_flags covers it)
PRECISION_READS = {
    "orbits": (["orbits", "--preset", "basilica", "--n", "3"], {"newton_tol", "dedup_tol"}),
    "portrait": (["portrait", "--preset", "basilica", "--period", "3"],
                 {"newton_tol", "dedup_tol"}),
    "pressure": (["pressure", "--preset", "basilica", "--t", "1", "--n", "4"],
                 {"newton_tol", "dedup_tol"}),
    "bunches": (["bunches", "--preset", "basilica", "--n", "4"], {"newton_tol", "dedup_tol"}),
    "near-point": (["near-point", "--preset", "basilica", "--n", "4"],
                   {"newton_tol", "dedup_tol"}),
    "disc-pattern": (["disc-pattern", "--c", "0,0", "--period", "1", "--n", "4"],
                     {"newton_tol", "dedup_tol"}),
    "distortion": (["distortion", "--preset", "basilica", "--n", "4", "--samples", "16"],
                   set()),
    "bryuno": (["bryuno", "--terms", "5"], set()),
    "render-julia": (["render", "--preset", "basilica", "--layers", "julia",
                      "--points", "100"], set()),
    "render-orbits": (["render", "--preset", "basilica", "--layers", "orbits",
                       "--marker-period", "2"], {"newton_tol", "dedup_tol"}),
}
NON_DEFAULT = {"mantissa_bits": "64", "newton_tol": "1e-12", "dedup_tol": "1e-12",
               "max_iter": "100"}


@pytest.mark.parametrize("argv, key", [
    pytest.param(argv, key, id=f"{label}-{key}")
    for label, (argv, reads) in PRECISION_READS.items()
    for key in NON_DEFAULT if key not in reads])
def test_unread_precision_key_rejected(tmp_path, capsys, argv, key):
    # a knob the command never reads is an error before any work, not ignored
    out = tmp_path / "out"
    rc = run_command(argv + [f"--{key.replace('_', '-')}", NON_DEFAULT[key],
                             "--output-dir", str(out)])
    assert rc == 2
    assert key in capsys.readouterr().err
    assert not any(out.iterdir())


#: a small valid run of every command
RUNS = {label: argv for label, (argv, _) in PRECISION_READS.items()}
RUNS["rays"] = ["rays", "--preset", "basilica", "--angles", "1/3"]
#: the runs that read seed: distortion's sample circle and render's julia layer
SEED_READERS = ("distortion", "render-julia")


#: the outputs each of RUNS lists in its manifest, in order
RUN_OUTPUTS = {
    "orbits": ["orbits.csv", "orbits.jsonl"],
    "portrait": ["portrait.json"],
    "pressure": ["pressure.csv", "pressure.json", "pressure.svg"],
    "bunches": ["bunches.json"],
    "near-point": ["near_point.json"],
    "disc-pattern": ["disc_pattern.json"],
    "distortion": ["distortion.json"],
    "bryuno": ["bryuno.json", "bryuno.csv"],
    "render-julia": ["scene.svg"],
    "render-orbits": ["scene.svg"],
    "rays": ["ray_1_3.csv"],
}


def test_manifest_records_every_resolved_parameter(tmp_path):
    from quadray.cli import KEYS
    assert set(RUN_OUTPUTS) == set(RUNS)
    for label, argv in RUNS.items():
        out = tmp_path / label
        assert run_command(argv + ["--output-dir", str(out)]) == 0, label
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["params"]) == set(KEYS[argv[0]]), label
        assert manifest["version"] and manifest["command"] == argv[0]
        assert manifest["outputs"] == RUN_OUTPUTS[label], label
        assert {p.name for p in out.iterdir()} == {*RUN_OUTPUTS[label], "manifest.json"}, label


@pytest.mark.parametrize("argv, key, value", [
    *[pytest.param(argv, "seed", "7", id=f"{label}-seed")
      for label, argv in RUNS.items() if label not in SEED_READERS],
    pytest.param(["bryuno", "--terms", "5"], "c", "0.3,0.1", id="bryuno-c"),
    pytest.param(["bryuno", "--terms", "5"], "preset", "nonexistent", id="bryuno-preset"),
])
def test_unread_seed_and_map_keys_rejected(tmp_path, capsys, argv, key, value):
    # the unread-precision-key rule covers seed, and bryuno never reads the map
    out = tmp_path / "out"
    rc = run_command(argv + [f"--{key}", value, "--output-dir", str(out)])
    assert rc == 2
    assert f"does not use {key}" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_c_with_preset_rejected(tmp_path, capsys):
    # the preset would win and --c be ignored; a manifest written under a
    # preset records c as null, so it still replays
    out, a, b = tmp_path / "out", tmp_path / "a", tmp_path / "b"
    rc = run_command(["orbits", "--c", "0.3,0.1", "--preset", "basilica", "--n", "2",
                      "--output-dir", str(out)])
    assert rc == 2
    assert "not both" in capsys.readouterr().err
    assert not any(out.iterdir())
    assert run_command(["orbits", "--preset", "basilica", "--n", "2",
                        "--output-dir", str(a)]) == 0
    assert json.loads((a / "manifest.json").read_text())["params"]["c"] is None
    assert run_command(["orbits", "--from-manifest", str(a / "manifest.json"),
                        "--output-dir", str(b)]) == 0
    assert hashes(a) == hashes(b)


@pytest.mark.parametrize("label", SEED_READERS)
def test_seed_readers_accept_seed(tmp_path, label):
    argv = RUNS[label]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_command(argv + ["--seed", "7", "--output-dir", str(a)]) == 0
    assert run_command(argv + ["--seed", "8", "--output-dir", str(b)]) == 0
    assert hashes(a) != hashes(b)


#: for every command key, a value away from its default and from the runs'
#: own.  A key must change the output files or make the run exit 2.  A
#: domain error (exit 1) writes no output file, which is a change: every ray
#: landing on a cycle has one period, so a lower cap or a tighter match finds
#: no ray, and p = 2 is not the period of beta.
KEY_VALUES = {
    "orbits": {"n": "2"},
    "rays": {"angles": "1/5", "g_min": "1e-4"},
    "portrait": {"period": "1", "orbit_index": "1", "match_tol": "1e-30",
                 "ray_period_cap": "2"},
    "pressure": {"t": "0.5", "n": "3", "basepoint": "0.5,0.5"},
    "bunches": {"n": "5", "delta": "0.3", "mode": "X"},
    "near-point": {"z0": "alpha", "p": "2", "n": "5", "delta": "0.1", "r0": "1.0"},
    "disc-pattern": {"period": "2", "n": "5", "delta": "0.1", "r0": "1.0", "C": "3.0",
                     "orbit_index": "1"},
    "distortion": {"center": "beta", "r": "1e-3", "n": "5", "samples": "32",
                   "period": "2"},
    "bryuno": {"alpha": "silver", "quotients": "1,2,3,4,5,6", "terms": "6"},
    "render": {"layers": "rays", "angles": "1/5", "points": "200",
               "viewport": "-2:2:-2:2", "g_min": "1e-3", "marker_period": "3"},
}
#: each command's own numeric keys; with seed and the two tolerances these
#: are the keys whose kind is not string, pinned so the set cannot shrink
NUMERIC_KEYS = {
    "orbits": {"n"},
    "rays": {"g_min"},
    "portrait": {"match_tol", "orbit_index", "period", "ray_period_cap"},
    "pressure": {"n", "t"},
    "bunches": {"delta", "n"},
    "near-point": {"delta", "n", "p", "r0"},
    "disc-pattern": {"C", "delta", "n", "orbit_index", "period", "r0"},
    "distortion": {"n", "period", "r", "samples"},
    "bryuno": {"terms"},
    "render": {"g_min", "marker_period", "points"},
}
#: the basilica's 2-cycle is attracting and draws no marker, so the orbits
#: layer is walked on its fixed points
KEY_RUNS = dict(RUNS, **{"render-orbits": ["render", "--preset", "basilica", "--layers",
                                           "orbits", "--marker-period", "1"]})


@pytest.mark.parametrize("label", KEY_RUNS)
def test_every_command_key_is_read_or_rejected(tmp_path, capsys, label):
    from quadray.cli import COMMON_KEYS, KEYS, string
    argv = KEY_RUNS[label]
    base = tmp_path / "base"
    assert run_command(argv + ["--output-dir", str(base)]) == 0
    own = set(KEYS[argv[0]]) - set(COMMON_KEYS)
    assert set(KEY_VALUES[argv[0]]) == own
    for key, value in KEY_VALUES[argv[0]].items():
        out = tmp_path / key
        rc = run_command(argv + [f"--{key.replace('_', '-')}", value, "--output-dir", str(out)])
        if rc == 2:
            assert not any(out.iterdir()), key
        else:
            assert hashes(out) != hashes(base), key
    # every numeric key, common or the command's own, refuses a malformed number
    common = {"seed", "newton_tol", "dedup_tol"}
    numeric = {k for k, (_, kind) in KEYS[argv[0]].items() if kind is not string} & (own | common)
    assert numeric == NUMERIC_KEYS[argv[0]] | common
    for key in sorted(numeric):
        out = tmp_path / f"bad-{key}"
        capsys.readouterr()
        rc = run_command(argv + [f"--{key.replace('_', '-')}", "abc", "--output-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("usage error:") and "abc" in err, (key, err)
        assert not (out.exists() and any(out.iterdir())), key


@pytest.mark.parametrize("argv", [
    ["orbits", "--preset", "basilica", "--n", "abc"],
    ["orbits", "--preset", "basilica", "--n", "2.5"],
    ["orbits", "--preset", "basilica", "--n", "0"],
    ["orbits", "--preset", "basilica", "--n", "3", "--newton-tol", "0"],
    ["orbits", "--preset", "basilica", "--n", "3", "--dedup-tol", "1e-12"],
    ["near-point", "--preset", "basilica", "--n", "4", "--p", "0"],
    ["near-point", "--preset", "basilica", "--n", "4", "--delta", "x"],
    ["pressure", "--preset", "basilica", "--n", "4", "--t", "a:b:c"],
    ["portrait", "--preset", "basilica", "--period", "0"],
    ["bunches", "--preset", "basilica", "--n", "0"],
    ["distortion", "--preset", "basilica", "--n", "-1"],
    ["distortion", "--preset", "basilica", "--n", "4", "--seed", "-1"],
    ["render", "--preset", "basilica", "--layers", "julia", "--points", "-5"],
    ["render", "--preset", "basilica", "--layers", "orbits", "--marker-period", "-2"],
    ["render", "--preset", "basilica", "--layers", "orbits", "--marker-period", "0"],
    ["portrait", "--preset", "basilica", "--period", "3", "--ray-period-cap", "0"],
    ["portrait", "--preset", "basilica", "--period", "3", "--ray-period-cap", "-3"],
], ids=lambda argv: " ".join(argv[:1] + argv[3:]))
def test_malformed_or_out_of_range_number_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_command(argv + ["--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err, err
    assert not (out.exists() and any(out.iterdir()))


@pytest.mark.parametrize("argv", [
    ["pressure", "--c", "0,0", "--t", "2:0:0.5", "--n", "4"],
    ["pressure", "--c", "0,0", "--t", ",", "--n", "4"],
    ["bunches", "--c", "-1,0", "--n", "4", "--delta", "0.3:0.1:0.1"],
    ["bunches", "--c", "-1,0", "--n", "6:4:1", "--delta", "0.1"],
], ids=lambda argv: " ".join(argv[:1] + argv[3:]))
def test_empty_grid_is_a_usage_error(tmp_path, capsys, argv):
    # a grid with no values used to crash after writing some outputs, or to
    # write empty reports; it is refused before any work
    out = tmp_path / "out"
    assert run_command(argv + ["--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "needs at least one value" in err, err
    assert not out.exists()


@pytest.mark.parametrize("argv, key, value", [
    (["rays", "--preset", "basilica", "--angles", "1/3"], "g_min", "0"),
    (["rays", "--preset", "basilica", "--angles", "1/3"], "g_min", "-1"),
    (["rays", "--preset", "basilica", "--angles", "1/3"], "g_min", "inf"),
    (["rays", "--preset", "basilica", "--angles", "1/3"], "g_min", "nan"),
    (["render", "--preset", "basilica", "--layers", "rays", "--angles", "1/3"], "g_min", "0"),
    (["render", "--preset", "basilica", "--layers", "rays", "--angles", "1/3"], "g_min", "nan"),
    (["near-point", "--preset", "basilica", "--n", "4"], "delta", "nan"),
    (["near-point", "--preset", "basilica", "--n", "4"], "r0", "-1"),
    (["distortion", "--preset", "basilica", "--n", "4"], "r", "0"),
    (["distortion", "--preset", "basilica", "--n", "4"], "r", "nan"),
    (["disc-pattern", "--c", "0,0", "--period", "1", "--n", "4"], "C", "0"),
    (["portrait", "--preset", "basilica", "--period", "2"], "match_tol", "nan"),
    (["orbits", "--preset", "basilica", "--n", "3"], "newton_tol", "inf"),
    (["bunches", "--preset", "basilica", "--n", "4"], "delta", "0"),
    (["bunches", "--preset", "basilica"], "n", "inf"),
    (["pressure", "--preset", "basilica", "--n", "4"], "t", "0,nan"),
    (["pressure", "--preset", "basilica", "--n", "4"], "t", "0:inf:1"),
    (["bryuno", "--terms", "5"], "alpha", "inf"),
    (["bryuno", "--terms", "5"], "alpha", "1e400"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_non_finite_or_non_positive_float_is_a_usage_error(tmp_path, capsys, argv, key, value):
    # refused before any work, and with no traceback
    out = tmp_path / "out"
    rc = run_command(argv + [f"--{key.replace('_', '-')}", value, "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("usage error:") and "Traceback" not in err, err
    assert "must be finite" in err or "must be a finite number" in err, err
    assert not (out.exists() and any(out.iterdir()))


@pytest.mark.parametrize("argv, key", [
    (["render", "--preset", "basilica", "--layers", "julia", "--g-min", "1e-3"], "g_min"),
    (["render", "--preset", "basilica", "--layers", "julia", "--angles", "1/3"], "angles"),
    (["render", "--preset", "basilica", "--layers", "rays", "--angles", "1/3",
      "--points", "100"], "points"),
    (["render", "--preset", "basilica", "--layers", "julia", "--marker-period", "2"],
     "marker_period"),
    (["bryuno", "--alpha", "silver", "--quotients", "1,1,1,1,1,1", "--terms", "5"], "alpha"),
])
def test_unread_command_key_rejected(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert run_command(argv + ["--output-dir", str(out)]) == 2
    assert f"does not use {key}" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("layers, message", [
    ("rays", "rays layer needs --angles"),
    ("julia,orbits", "orbits layer needs --marker-period"),
])
def test_layer_without_its_input_is_a_usage_error(tmp_path, capsys, layers, message):
    # a layer that would draw nothing is refused before any work
    out = tmp_path / "out"
    assert run_command(["render", "--preset", "basilica", "--layers", layers,
                        "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["rays", "--preset", "basilica", "--angles", "1/x"], "bad angle list '1/x'"),
    (["rays", "--preset", "basilica", "--angles", "1/3,1/0"], "denominator must be nonzero"),
    (["render", "--preset", "basilica", "--layers", "rays", "--angles", "1/0"],
     "denominator must be nonzero"),
    (["render", "--c", "0,0", "--layers", "orbits", "--marker-period", "1",
      "--viewport", "1:1:-1:1"], "remin < remax"),
    (["render", "--c", "0,0", "--layers", "orbits", "--marker-period", "1",
      "--viewport", "-1:1:1:-1"], "immin < immax"),
    (["render", "--c", "0,0", "--layers", "orbits", "--marker-period", "1",
      "--viewport", "-1:1:-1:x"], "bad viewport"),
])
def test_bad_angle_or_viewport_is_a_usage_error(tmp_path, capsys, argv, message):
    # refused before any output, with no traceback
    out = tmp_path / "out"
    assert run_command(argv + ["--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["--quotients", "1,1,1", "--terms", "5"], "at least n_terms + 1 partial quotients"),
    (["--quotients", "1,0,1,1,1,1", "--terms", "5"], "must be positive"),
    (["--quotients", "1,x,1", "--terms", "2"], "invalid literal"),
    (["--terms", "1"], "n_terms must be >= 2"),
    (["--alpha", "pi"], "could not convert"),
])
def test_bad_bryuno_input_is_a_usage_error(tmp_path, capsys, argv, message):
    rc = run_command(["bryuno", *argv, "--output-dir", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["n", "t"])
def test_null_key_in_manifest_is_a_usage_error(tmp_path, capsys, key):
    # only the keys that may be absent (map, cap, basepoint, quotients,
    # marker period) may be null; any other null names its key
    a = tmp_path / "a"
    assert run_command(["pressure", "--preset", "basilica", "--t", "1", "--n", "4",
                        "--output-dir", str(a)]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    manifest["params"][key] = None
    (tmp_path / "null.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = run_command(["pressure", "--from-manifest", str(tmp_path / "null.json"),
                      "--output-dir", str(tmp_path / "b")])
    assert rc == 2
    assert f"null parameter(s): {key}" in capsys.readouterr().err


#: a valid run, and a manifest key set to a value of the wrong JSON type
MISTYPED = [
    (["rays", "--preset", "basilica", "--angles", "1/3"], "angles", 5),
    (["orbits", "--c", "-1,0", "--n", "2"], "c", 5),
    (["orbits", "--preset", "basilica", "--n", "2"], "preset", ["basilica"]),
    (["near-point", "--preset", "basilica", "--n", "4"], "z0", {"a": 1}),
    (["near-point", "--preset", "basilica", "--n", "4"], "z0", [1, 2, 3]),
    (["disc-pattern", "--c", "0,0", "--period", "1", "--n", "4"], "orbit_index", True),
    (["disc-pattern", "--c", "0,0", "--period", "1", "--n", "4"], "orbit_index", 1.5),
    (["bryuno", "--terms", "5"], "terms", 5.0),
    (["bryuno", "--terms", "5"], "output_dir", 5),
]


@pytest.mark.parametrize("argv, key, value", [
    pytest.param(*case, id=f"{case[1]}={json.dumps(case[2])}") for case in MISTYPED])
def test_mistyped_manifest_value_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                  argv, key, value):
    # a manifest value of the wrong JSON type is refused before any work:
    # no traceback, no silent coercion, and no output (output_dir 5 would be ./5)
    assert run_command(argv + ["--output-dir", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    manifest["params"][key] = value
    (tmp_path / "typed.json").write_text(json.dumps(manifest))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    replay = [argv[0], "--from-manifest", "typed.json"]
    rc = run_command(replay if key == "output_dir" else replay + ["--output-dir", "b"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("usage error:") and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "typed.json"]


def _oracle_orbit_files(outdir: Path, orbits) -> None:
    """Reference writer: write_csv rows, then one json.dumps per row."""
    rows = [[z.real, z.imag, o.minimal_period, o.multiplier.real,
             o.multiplier.imag, abs(o.multiplier), o.stability]
            for o in orbits for z in o.points]
    write_csv(outdir / "orbits.csv", ORBIT_HEADER, rows)
    with (outdir / "orbits.jsonl").open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(ORBIT_HEADER, row)), sort_keys=True) + "\n")


def _enumerated(preset, n):
    qmap = QuadraticMap(PRESETS[preset])
    return group_into_orbits(fixed_points_of_iterate(qmap, n), qmap, n, DEFAULT_CONFIG)


INF, NAN = float("inf"), float("nan")
HAND_BUILT = [
    PeriodicOrbit(points=(complex(-0.0, 5e-324), complex(1e16, -0.0)), minimal_period=2,
                  multiplier=complex(INF, NAN), stability="repelling", multiplicity=2),
    PeriodicOrbit(points=(complex(NAN, -INF),), minimal_period=1,
                  multiplier=complex(-INF, -0.0), stability="parabolic_candidate"),
    PeriodicOrbit(points=(0.1 + 0.2j,), minimal_period=1, multiplier=complex(NAN, 1e-300),
                  stability="indifferent_candidate"),
]


@pytest.mark.parametrize("orbits", [
    pytest.param(lambda: _enumerated("basilica", 6), id="basilica-6"),
    pytest.param(lambda: _enumerated("airplane_root", 6), id="airplane_root-6"),
    pytest.param(lambda: _enumerated("golden_siegel", 5), id="golden_siegel-5"),
    pytest.param(lambda: HAND_BUILT, id="hand-built"),
    pytest.param(lambda: [], id="empty"),
])
def test_orbit_writer_matches_row_oracle(tmp_path, orbits):
    orbits = orbits()
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    write_orbits(new, orbits)
    _oracle_orbit_files(old, orbits)
    for name in ("orbits.csv", "orbits.jsonl"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
