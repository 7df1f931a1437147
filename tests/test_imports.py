"""Import structure of the package: every import at module level, no import
cycle between the modules, and nothing imported from outside the standard
library (networkx is a test dependency only)."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

import edgeideals

SRC = pathlib.Path(edgeideals.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text())
    local = [node.lineno
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_module_level_imports_are_read(path):
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:   # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant))
    assert sorted((line, name) for name, line in bound.items()
                  if name not in read) == []


def _package_imports():
    """Module stem -> the package modules it imports at module level."""
    deps = {}
    for path in MODULES:
        deps[path.stem] = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps[path.stem].update(
                    [node.module] if node.module
                    else (a.name for a in node.names))
    return deps


def test_package_imports_are_acyclic():
    deps = _package_imports()
    done = set()
    while len(done) < len(deps):
        ready = {m for m in deps if m not in done and deps[m] <= done}
        assert ready, "import cycle among %s" % sorted(set(deps) - done)
        done |= ready


def test_bounds_and_classify_import_only_covers_and_graphs():
    # The cover-based results sit below the certificate stack: neither
    # reaches constructions, certificates or polynomials.
    deps = _package_imports()
    assert deps["bounds"] == deps["classify"] == {"covers", "graphs"}


def test_package_needs_only_the_standard_library():
    outside = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: %s" % (path.name, n) for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
    assert re.search(r"^dependencies = \[\]$", PYPROJECT.read_text(), re.M)


def test_cli_import_leaves_networkx_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, edgeideals.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
