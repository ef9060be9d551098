"""tools/compare_orbits.py: class counts, roots within rtol of each other, and
the orbits.jsonl twin of each orbits.csv."""

import importlib.util
import json
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


def test_compare_orbits_checks_jsonl_twin(tmp_path, capsys):
    a = tmp_path / "a"
    assert run_command(["orbits", "--preset", "basilica", "--n", "4",
                        "--output-dir", str(a)]) == 0
    b = tmp_path / "b"
    b.mkdir()
    (b / "orbits.csv").write_bytes((a / "orbits.csv").read_bytes())
    lines = (a / "orbits.jsonl").read_text().splitlines()
    row = json.loads(lines[3])
    row["re_z"] += 1e-3
    lines[3] = json.dumps(row, sort_keys=True)
    (b / "orbits.jsonl").write_text("\n".join(lines) + "\n")
    assert compare_orbits.main([str(a / "orbits.csv"), str(b / "orbits.csv")]) == 1
    assert "row 4 differs" in capsys.readouterr().out
    (b / "orbits.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    assert compare_orbits.main([str(a / "orbits.csv"), str(b / "orbits.csv")]) == 1
    assert "15 rows against 16" in capsys.readouterr().out
