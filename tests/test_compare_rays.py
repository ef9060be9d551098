"""tools/compare_rays.py: byte-equal potentials, points within rtol of each
other, file by file or directory by directory."""

import importlib.util
from pathlib import Path

from quadray.cli import run_command

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_rays.py"
_spec = importlib.util.spec_from_file_location("compare_rays", TOOL)
compare_rays = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_rays)


def _rewrite(src: Path, dst: Path, edit) -> Path:
    """Copy a ray_*.csv, passing each data row (a dict of fields) through edit."""
    header, *rows = src.read_text().splitlines()
    fields = header.split(",")
    out = [header]
    for k, row in enumerate(rows):
        cells = dict(zip(fields, row.split(",")))
        edit(k, cells)
        out.append(",".join(cells[f] for f in fields))
    dst.write_text("\n".join(out) + "\n")
    return dst


def test_compare_rays(tmp_path, capsys):
    a = tmp_path / "a"
    assert run_command(["rays", "--c", "-1,0", "--angles", "1/3,1/7", "--g-min", "1e-4",
                        "--output-dir", str(a)]) == 0
    ray = a / "ray_1_7.csv"
    assert compare_rays.main([str(ray), str(ray)]) == 0

    def nudge(scale):
        def edit(k, cells):
            if k == 40:
                cells["im_z"] = repr(float(cells["im_z"]) + scale)
        return edit

    near = _rewrite(ray, tmp_path / "near.csv", nudge(1e-12))
    assert compare_rays.main([str(ray), str(near)]) == 0
    far = _rewrite(ray, tmp_path / "far.csv", nudge(1e-8))
    assert compare_rays.main([str(ray), str(far)]) == 1
    assert "moved" in capsys.readouterr().out

    def respell(k, cells):
        if k == 3:
            cells["G"] = cells["G"] + "0"
    other = _rewrite(ray, tmp_path / "other.csv", respell)
    assert compare_rays.main([str(ray), str(other)]) == 1
    assert "G columns differ" in capsys.readouterr().out


def test_compare_rays_directories(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_command(["rays", "--c", "-2,0", "--angles", "1/3,2/3", "--g-min", "1e-6",
                            "--output-dir", str(out)]) == 0
    assert compare_rays.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.count("OK ") == 2
    (b / "ray_2_3.csv").unlink()
    assert compare_rays.main([str(a), str(b)]) == 1
    assert f"ray_2_3.csv: only in {a}" in capsys.readouterr().out
