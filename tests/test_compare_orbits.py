"""tools/compare_orbits.py: class counts and roots within rtol of each other."""

import importlib.util
from pathlib import Path

from quadray.cli import run_command

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_orbits.py"
_spec = importlib.util.spec_from_file_location("compare_orbits", TOOL)
compare_orbits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_orbits)


def _rewrite(src: Path, dst: Path, edit) -> Path:
    """Copy an orbits.csv, passing each data row (a list of fields) through edit."""
    header, *rows = src.read_text().splitlines()
    fields = header.split(",")
    out = [header]
    for k, row in enumerate(rows):
        cells = dict(zip(fields, row.split(",")))
        edit(k, cells)
        out.append(",".join(cells[f] for f in fields))
    dst.write_text("\n".join(out) + "\n")
    return dst


def test_compare_orbits(tmp_path, capsys):
    assert run_command(["orbits", "--preset", "basilica", "--n", "6",
                        "--output-dir", str(tmp_path)]) == 0
    a = tmp_path / "orbits.csv"
    assert compare_orbits.main([str(a), str(a)]) == 0

    def nudge(scale):
        def edit(k, cells):
            if k == 5:
                cells["re_z"] = repr(float(cells["re_z"]) + scale)
        return edit

    near = _rewrite(a, tmp_path / "near.csv", nudge(1e-12))
    assert compare_orbits.main([str(a), str(near)]) == 0
    far = _rewrite(a, tmp_path / "far.csv", nudge(1e-8))
    assert compare_orbits.main([str(a), str(far)]) == 1
    assert "moved" in capsys.readouterr().out

    def relabel(k, cells):
        if k == 0:
            cells["stability"] = "indifferent_candidate"
    other = _rewrite(a, tmp_path / "other.csv", relabel)
    assert compare_orbits.main([str(a), str(other)]) == 1
    assert "rows against" in capsys.readouterr().out
