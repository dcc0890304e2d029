"""The lines of src/gupmech that a pytest run never executes, as a pytest plugin.

Run from the repository root:

    PYTHONPATH=src:tools python -m pytest -q -p line_trace

Tracing starts when pytest loads this plugin, before any test module or
conftest imports gupmech, through `sys.settrace` and `threading.settrace`.
Only frames whose code lies under src/gupmech get a line tracer.  After the
run, the terminal summary lists, per file, every executable line (a line
that some code object's `co_lines()` maps an instruction to) that never
ran, and then every `raise` statement among them.

Only this process is traced: lines that run only in a forked child or in a
subprocess (the CLI tests that start `python -m gupmech`) are listed as
never run.  The suite's own `testpaths` keep this file out of its runs.
"""

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gupmech"

_ran = set()     # (resolved path, line number) of every line event and call
_paths = {}      # co_filename -> resolved path under PACKAGE, or None


def _package_path(filename):
    if filename not in _paths:
        path = Path(filename).resolve()
        _paths[filename] = str(path) if path.parent == PACKAGE else None
    return _paths[filename]


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((_package_path(frame.f_code.co_filename), frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    path = _package_path(frame.f_code.co_filename)
    if path is None:
        return None
    _ran.add((path, frame.f_lineno))
    return _lines


sys.settrace(_calls)
threading.settrace(_calls)


def _executable(code):
    """Every source line that code or a code object nested in it maps an instruction to.

    A module's first instruction sits on line 0, which is no source line.
    """
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable(const)
    return lines


def _ranges(numbers):
    """'3, 7-9' for [3, 7, 8, 9]."""
    spans = []
    for n in sorted(numbers):
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    write = terminalreporter.write_line
    terminalreporter.section("src/gupmech lines never run")
    raises = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran = {line for name, line in _ran if name == str(path)}
        missed = _executable(compile(source, str(path), "exec")) - ran
        if missed:
            write(f"{path.name}: {_ranges(missed)}")
        raises += [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Raise) and node.lineno in missed]
    terminalreporter.section("raise statements never run")
    write(", ".join(raises) if raises else "none")
