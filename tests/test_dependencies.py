"""The package imports only the standard library and its declared dependencies,
and forks, leaves, kills and reaps its child processes and shares their work in
one module."""

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
PROCESS_STEPS = {"fork", "_exit", "kill", "waitpid", "sched_getaffinity", "pipe",
                 "set_blocking"}


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


def test_sources_found():
    assert SOURCES, "no package sources found"


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
