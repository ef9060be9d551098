import hashlib
import json
import math
from pathlib import Path

import pytest

from quadray.cli import (PRESETS, parse_complex, parse_grid, run_command)


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


def test_bunches_rejects_unsupported_mode(tmp_path):
    rc = run_command(["bunches", "--preset", "basilica", "--n", "6",
                      "--mode", "BMS", "--output-dir", str(tmp_path)])
    assert rc == 2
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
    cfg.write_text("[quadray]\npreset = basilica\n\n[bryuno]\nterms = 10\n")
    rc = run_command(["bryuno", "--config", str(cfg), "--terms", "12",
                      "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "bryuno.json").read_text())
    assert len(doc["convergent_denominators"]) == 12  # flag wins over config


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


def test_disc_pattern_command(tmp_path):
    rc = run_command(["disc-pattern", "--c", "0,0", "--period", "1", "--n", "5",
                      "--output-dir", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "disc_pattern.json").read_text())
    assert doc["pass"] is True


def test_manifest_records_every_resolved_parameter(tmp_path):
    from quadray.cli import COMMAND_PARAMS, COMMON_PARAMS
    rc = run_command(["bryuno", "--alpha", "silver", "--terms", "10",
                      "--output-dir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    expected = set(COMMON_PARAMS) | set(COMMAND_PARAMS["bryuno"])
    assert set(manifest["params"]) == expected
    assert manifest["version"]
    assert manifest["outputs"] == ["bryuno.json", "bryuno.csv"]


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
