"""Static checks on the package source, and on what importing it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quadray"
# __init__.py imports names only to re-export them.
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


# scipy.stats (and the scipy.optimize it pulls in) is about half of a cold
# start; only distortion_ratio's Halton sampler needs it.
_DEFERRED = ("scipy.stats", "scipy.optimize")
_LOADED = """
import sys
import quadray, quadray.cli
print(*[m for m in {deferred} if m in sys.modules])
from quadray import QuadraticMap, distortion_ratio
distortion_ratio(QuadraticMap(0j), 0.5, 1e-4, 1, samples=4)
print(*[m for m in {deferred} if m in sys.modules])
"""


def test_startup_defers_scipy_stats():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _LOADED.format(deferred=_DEFERRED)],
                         env=env, capture_output=True, text=True, check=True).stdout
    at_import, after_distortion = out.split("\n")[:2]
    assert at_import == "", f"import quadray, quadray.cli loads {at_import}"
    assert "scipy.stats" in after_distortion.split()
