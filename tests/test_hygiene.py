"""Repository hygiene: the README's library sketch runs, no module of the
package imports a name it never uses, importing a module loads only the
modules it depends on, the CLI builds its numeric map in one place and
imports no private name, every cache the package holds is bounded, and the
rings hold exactly the contract their module names.

The import check reads the source text with the standard library only, so a
deleted public name or a dead import shows here rather than in a reader's
session.
"""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cyclozeta import rings

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyclozeta"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_readme_sketch_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert blocks, "README.md holds no python sketch"
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, "README.md", "exec"), {})


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import statement -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _used(tree: ast.Module) -> set:
    """Every name the module reads, including those inside quoted
    annotations such as ``-> "TPolynomial"``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _submodules_loaded_by(module: str) -> set:
    """The ``cyclozeta`` submodules a fresh interpreter holds after
    ``import <module>``, without the package prefix."""
    code = (f"import sys, {module}\n"
            "print(*(n for n in sys.modules if n.startswith('cyclozeta.')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return {name.removeprefix("cyclozeta.") for name in result.stdout.split()}


def test_imports_load_only_their_dependencies():
    # the package file re-exports nothing, so a caller of the exact engine
    # does not compile the numeric evaluator or the CLI
    assert _submodules_loaded_by("cyclozeta") == set()
    assert _submodules_loaded_by("cyclozeta.regularization") == {
        "errors", "groups", "words", "algebra", "rings", "regularization"}
    assert not _submodules_loaded_by("cyclozeta.duality") & {"numeval", "cli", "serialize"}


def test_cli_builds_the_numeric_map_once():
    # every numeric suite is handed the map the one seam builds, so a test
    # can run each suite on another map by replacing that one name
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "NumericZMap"]
    assert len(calls) == 1, f"cli.py builds NumericZMap at lines {calls}"


def test_cli_imports_no_private_name():
    # an underscore name is its module's own: the CLI adapts the library
    # through public names, so a private helper can change without it
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name.startswith("_")]
    assert not private, f"cli.py imports private names: {private}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_caches_are_bounded(path):
    # a cache without a bound grows for as long as the process runs; only
    # a function of no arguments can hold a single entry without one.  A
    # cache is a functools one (it has cache_parameters), not a hand-written
    # class with the same methods.
    name = "cyclozeta" if path.stem == "__init__" else f"cyclozeta.{path.stem}"
    module = importlib.import_module(name)
    flagged = []
    for name, obj in vars(module).items():
        info = getattr(obj, "cache_info", None)
        if not callable(info) or isinstance(obj, type):
            continue
        if not hasattr(obj, "cache_parameters") or (
                info().maxsize is None and inspect.signature(obj.__wrapped__).parameters):
            flagged.append(name)
    assert not flagged, f"{path.name} holds unbounded or hand-written caches: {flagged}"


@pytest.mark.parametrize("ring", [rings.RationalRing, rings.ComplexRing],
                         ids=lambda r: r.__name__)
def test_rings_hold_exactly_the_documented_contract(ring):
    # the paragraph of the rings docstring that starts "A ring needs" names
    # the contract; a public method or property outside it needs a
    # docstring change first.  Fields the contract does not name (the
    # complex tolerance) configure one ring and are not part of it.
    paragraph = re.search(r"^A ring needs .*?(?:\n\n|\Z)", rings.__doc__, re.S | re.M)
    assert paragraph, "the rings docstring names no contract"
    contract = set(re.findall(r"``([a-z_]+)``", paragraph.group()))
    members = {name for name, value in vars(ring).items() if not name.startswith("_")
               and (callable(value) or isinstance(value, property))}
    named_fields = {f.name for f in dataclasses.fields(ring)} & contract
    assert members | named_fields == contract
