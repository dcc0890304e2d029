"""The package parses as its oldest declared Python, imports only the standard
library and its declared dependencies, forks, leaves, kills and reaps its child
processes and shares their work in one module, hands no reduction to BLAS or
LAPACK, and uses no numpy.random."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gupmech").glob("*.py"))


def _declared() -> set:
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in project["dependencies"]}


def _minimum_python() -> tuple:
    """(major, minor) of the `>=` bound in pyproject.toml's requires-python."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        spec = tomllib.load(handle)["project"]["requires-python"]
    major, minor = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec.strip()).groups()
    return int(major), int(minor)


def _imported(path: Path) -> set:
    """First component of every absolute import anywhere in the module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


# the os calls of the process steps, the fork rule and the work queue, which
# only `_child` may make
PROCESS_STEPS = {"fork", "_exit", "kill", "waitpid", "sched_getaffinity", "sched_setaffinity",
                 "pipe", "set_blocking"}


def _os_names(path: Path) -> set:
    """Every name the module takes from os: os.name, from os import name, getattr(os, "name")."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call) and len(node.args) > 1 \
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "os" \
                and isinstance(node.args[1], ast.Constant):
            names.add(node.args[1].value)
    return names


# numpy names that hand a reduction to BLAS or LAPACK, whose kernel, and so
# whose bits, the CPU picks; gupmech sums on floats in a fixed order instead
BLAS_NAMES = {"dot", "vecdot", "matmul", "einsum", "inner", "tensordot", "polyfit", "linalg"}


def _blas_uses(source: str) -> list:
    """(line, name) of every @ operator and every call or attribute named in BLAS_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in BLAS_NAMES:
            found.append((node.lineno, node.func.id))
        elif isinstance(node, ast.ImportFrom):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in BLAS_NAMES or "linalg" in (node.module or ""))
    return sorted(found)


def _numpy_random_uses(source: str) -> list:
    """(line, name) of every import of numpy.random and every np.random or numpy.random read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name.split(".")[:2] == ["numpy", "random"])
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module.split(".")[:2] == ["numpy", "random"]
                     or node.module == "numpy" and "random" in {a.name for a in node.names}):
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            found.append((node.lineno, f"{node.value.id}.random"))
    return sorted(found)


def test_sources_found():
    assert SOURCES, "no package sources found"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_every_source_parses_as_the_oldest_declared_python(path):
    # syntax only: the grammar of that version, not its library or its runtime
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=_minimum_python())


@pytest.mark.parametrize("source", ["try:\n    pass\nexcept* ValueError:\n    pass",
                                    "type Pair = tuple[float, float]",
                                    "def first[T](xs: list[T]) -> T:\n    return xs[0]"])
def test_the_syntax_guard_refuses_newer_syntax(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=_minimum_python())


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_every_third_party_import_is_declared(path):
    third_party = _imported(path) - set(sys.stdlib_module_names) - {"gupmech"}
    assert third_party <= _declared(), f"{path.name} imports undeclared {third_party}"


def test_the_cli_loads_no_third_party_package_but_numpy():
    # A fresh process, so that modules the tests imported do not count.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    script = ("import sys; before = set(sys.modules); import gupmech.cli; "
              "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))")
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split()) - set(sys.stdlib_module_names) - {"gupmech"}
    assert loaded == {"numpy"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_only_the_child_module_forks(path):
    named = _os_names(path) & PROCESS_STEPS
    assert named == (PROCESS_STEPS if path.stem == "_child" else set()), \
        f"{path.name} names {sorted(named)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_reduction_goes_through_blas(path):
    assert _blas_uses(path.read_text(encoding="utf-8")) == [], path.name


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_source_uses_numpy_random(path):
    # the check rows' stream is gupmech._rng; numpy.random would load
    # secrets and OpenSSL for entropy that no row uses
    assert _numpy_random_uses(path.read_text(encoding="utf-8")) == [], path.name


@pytest.mark.parametrize("source, found", [
    ("import numpy.random", [(1, "numpy.random")]),
    ("import numpy.random.bit_generator as bg", [(1, "numpy.random.bit_generator")]),
    ("from numpy.random import default_rng", [(1, "numpy.random")]),
    ("from numpy import random", [(1, "numpy")]),
    ("rng = np.random.default_rng(7)", [(1, "np.random")]),
    ("import numpy\nu = numpy.random.random()", [(2, "numpy.random")]),
    ("import random\nu = rng.random(3)\nv = random.random()", []),
])
def test_the_numpy_random_guard_sees_each_form(source, found):
    assert _numpy_random_uses(source) == found


@pytest.mark.parametrize("source, found", [
    ("bp2 = beta * float(p.dot(p))", [(1, "dot")]),
    ("s = np.vecdot(dx, dx, axis=0)", [(1, "vecdot")]),
    ("a = u @ v\nb @= v", [(1, "@"), (2, "@")]),
    ("n = np.linalg.norm(v)", [(1, "linalg")]),
    ("from numpy import dot\nx = dot(u, v)", [(1, "dot"), (2, "dot")]),
    ("from numpy.linalg import norm", [(1, "norm")]),
    ("@np.errstate(over='ignore')\ndef f(a, b):\n    return a * b", []),
])
def test_the_blas_guard_sees_each_form(source, found):
    assert _blas_uses(source) == found
