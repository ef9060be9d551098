"""Static checks on the package source, and on what importing it loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadray

SRC = Path(__file__).resolve().parents[1] / "src" / "quadray"
# __init__.py only maps the exported names to their modules.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted((line, name) for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _unread_parameters(tree: ast.Module):
    """(function, parameter) for every parameter its function's body never
    reads; self, cls and _-prefixed names are exempt."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for name in params:
            if name not in read and name not in ("self", "cls") and not name.startswith("_"):
                yield node.name, name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = sorted(_unread_parameters(tree))
    assert not unread, f"{path.name} has parameters its functions never read: {unread}"


def _references(tree: ast.Module):
    """(name, line) of every name read or attribute taken in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_private_function_is_used():
    # a private module-level function that nothing else in the package
    # names is a leftover; references from inside its own body do not count
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    refs = [(p, name, line) for p, tree in trees.items() for name, line in _references(tree)]
    unused = sorted(
        f"{p.name}:{node.name}" for p, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(name == node.name and not (q == p and node.lineno <= line <= node.end_lineno)
                    for q, name, line in refs))
    assert not unused, f"private functions nothing else uses: {unused}"


ROOT = SRC.parents[1]
#: exported names that only the tests read, kept there as reference oracles
ORACLES = {
    "green_potential": "the Green function; the ray tests check ray potentials with it",
    "orbit_metric": "the paper's distance max |f^i(x) - f^i(y)|, which rho_n minimizes "
                    "over cyclic alignments",
    "periodic_angles": "the angles k/(2^n - 1); the ray tests enumerate the portrait "
                       "candidates from them",
}


def test_every_export_is_reached():
    # a name the package exports must be read by another module of it, by a
    # tool, by a benchmark workload or by an acceptance test, or be a named
    # oracle; a definition's own body does not count
    exports = set(quadray._EXPORTS)
    readers = [*MODULES, *sorted((ROOT / "tools").glob("*.py")),
               ROOT / "bench" / "workloads.py", ROOT / "tests" / "test_acceptance.py"]
    reached = set()
    for path in readers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        spans = [(node.name, node.lineno, node.end_lineno) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        reached |= {name for name, line in _references(tree)
                    if not any(name == own and lo <= line <= hi for own, lo, hi in spans)}
    unreached = sorted(exports - reached - set(ORACLES))
    assert not unreached, f"exported names nothing outside the tests reads: {unreached}"
    assert set(ORACLES) <= exports


def test_exports_resolve_lazily_to_their_definitions():
    # each name is the object its module defines, is listed by dir() and
    # __all__, and is looked up anew on every use rather than stored in the
    # package, where a benchmark tracing wrapper would outlive uninstall()
    assert quadray.__all__ == sorted(quadray._EXPORTS)
    listed = dir(quadray)
    for name, module in quadray._EXPORTS.items():
        defining = importlib.import_module(f"quadray.{module}")
        assert getattr(quadray, name) is vars(defining)[name], name
        assert name in listed and name not in vars(quadray), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quadray.no_such_name


# Importing the package and the CLI loads dynamics, errors and orbits and no
# other quadray module: each command imports what it runs, so orbits adds no
# module and bunches adds quadray.bunches alone.  Every command, distortion
# included, loads numpy and nothing heavier: the orbit-set counts, the
# close-pair search, the components, the linkage and the scrambled Halton
# sampler run on numpy arrays alone.  No module of the package imports scipy
# (0.5-1 s to import) or mpmath (about 0.1 s), which are test oracles only,
# and configparser (2 ms) loads only for --config.
_LOADED = """
import sys
import quadray, quadray.cli

def heavy():
    print(*sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "mpmath", "configparser")))

def ours():
    print(*sorted(m for m in sys.modules if m.startswith("quadray.")))

def run(*argv):
    assert quadray.cli.run_command([*argv, "--output-dir", {out!r}]) == 0, argv

heavy()
ours()
run("orbits", "--c", "0,0", "--n", "4")
ours()
run("bunches", "--c", "-1,0", "--n", "6", "--delta", "0.1,0.3")
ours()
heavy()
run("pressure", "--c", "0,0", "--t", "0:1:1", "--n", "4")
run("portrait", "--c", "0,0", "--period", "2")
run("render", "--c", "0,0", "--layers", "julia,rays", "--angles", "1/3",
    "--points", "100", "--g-min", "1e-3")
run("near-point", "--c", "-1,0", "--z0", "beta", "--n", "4")
run("disc-pattern", "--c", "0,0", "--period", "2", "--n", "2")
heavy()
from quadray import QuadraticMap, distortion_ratio
distortion_ratio(QuadraticMap(0j), 0.5, 1e-4, 1, samples=4)
run("distortion", "--c", "0,0", "--center", "0.5,0", "--n", "1", "--samples", "4")
run("rays", "--c", "-2,0", "--angles", "1/3,2/3", "--g-min", "1e-6")
run("bryuno", "--terms", "5")
heavy()
"""


def test_startup_defers_scipy_stats(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _LOADED.format(out=str(tmp_path))],
                         env=env, capture_output=True, text=True, check=True).stdout
    (at_import, ours_at_import, ours_after_orbits, ours_after_bunches, after_bunches,
     after_commands, after_distortion) = (line.split() for line in out.split("\n")[:7])
    assert at_import == [], f"import quadray, quadray.cli loads {at_import}"
    assert ours_at_import == ["quadray.cli", "quadray.dynamics", "quadray.errors",
                              "quadray.orbits"], ours_at_import
    assert ours_after_orbits == ours_at_import, f"orbits loads {ours_after_orbits}"
    assert ours_after_bunches == sorted(ours_at_import + ["quadray.bunches"]), (
        f"bunches loads {ours_after_bunches}")
    assert after_bunches == [], f"orbits and bunches load {after_bunches}"
    assert after_commands == [], (
        f"pressure, portrait, render, near-point and disc-pattern load {after_commands}")
    assert after_distortion == [], f"distortion, rays and bryuno load {after_distortion}"


@pytest.mark.parametrize("oracle", ["scipy", "mpmath"])
def test_no_module_imports(oracle):
    # scipy and mpmath are oracles of the tests and tools only: pyproject.toml
    # lists them in the test extra, not among the runtime dependencies
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            imports += [(path.name, node.lineno) for name in names
                        if name.split(".")[0] == oracle]
    assert not imports, f"{oracle} imported at {imports}"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert not [d for d in project["dependencies"] if d.startswith(oracle)]
    assert [d for d in project["optional-dependencies"]["test"] if d.startswith(oracle)]
