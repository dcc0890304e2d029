"""The same bits under every BLAS kernel.

OpenBLAS picks its kernel from the CPU, and OPENBLAS_CORETYPE picks it for
one process.  gupmech sums every short reduction left to right on floats and
hands none to BLAS or LAPACK, so the pinned values must come out the same
under each kernel.  On a build without run-time kernel choice the variable
does nothing and the comparison still holds.
"""

import contextlib
import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from gupmech._rng import Generator
from gupmech.algebra import (PhaseState, bracket_xp_3d, jacobi_residual, momentum_function_3d,
                             numerical_bracket)
from gupmech.checks import _suite_hamiltonians, _suite_states, run_suite
from gupmech.dynamics import hamilton_rhs, hamilton_rhs_fd
from gupmech.frames import GalileanBoost, galilean_apply, interval_residual
from gupmech.legendre import momentum_from_velocity_exact
from test_algebra import _PIN_PARAMS, _pin_families, _pin_states
from test_legendre import _seeded_velocities

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("Haswell", "Nehalem", "Prescott")


def _transform_events():
    """The 480 events of the transform-exact bench scenario at seed 1."""
    rng = random.Random("transform-exact:1")
    return np.array([[rng.uniform(-10.0, 10.0) for _ in range(4)] for _ in range(480)])


@functools.lru_cache(maxsize=None)
def _values() -> str:
    """float.hex of the seed-42 check rows, the values pinned on 3D states and
    the seed-1 transform residual, as JSON."""
    out = {row.name: row.measured.hex() for row in run_suite("all", seed=42)}
    brackets, triples = _pin_families()
    for k, state in enumerate(_pin_states(3)):
        out.update({f"{name} {k}": float(numerical_bracket(f, g, state)).hex()
                    for name, (dim, f, g) in brackets.items() if dim == 3})
        out.update({f"{name} {k}": float(jacobi_residual(f, g, h, state)).hex()
                    for name, (dim, f, g, h) in triples.items() if dim == 3})
        big_p = [momentum_function_3d(_PIN_PARAMS, axis)((state.x, state.p))
                 for axis in (1, 2, 3)]
        out[f"closed {k}"] = [bracket_xp_3d(big_p, i, j, _PIN_PARAMS).hex()
                              for i in (1, 2, 3) for j in (1, 2, 3)]
    for k, kind in enumerate(_suite_hamiltonians()):
        if kind.dim == 3:
            states = [PhaseState.of(x, p)
                      for x, p in _suite_states(Generator([200 + k]), kind, 2)]
            out[f"rhs {k}"] = [c.hex() for s in states for rhs in (hamilton_rhs, hamilton_rhs_fd)
                               for a in rhs(kind, s) for c in a.tolist()]
            out[f"inversion {k}"] = [c.hex() for v in _seeded_velocities(kind, 100 + k)
                                     for c in momentum_from_velocity_exact(v, kind).tolist()]
    boost = GalileanBoost(velocity=0.4, scale=1.0)
    events = _transform_events()
    out["transform residual"] = interval_residual(boost, events, galilean_apply(boost, events))
    return json.dumps(out, sort_keys=True)


def test_the_seed_1_transform_residual_is_pinned():
    assert json.loads(_values())["transform residual"] == 1.6997734380553403e-15


def test_pinned_values_do_not_depend_on_the_blas_kernel():
    # one process per kernel, all at once; any still running at exit is killed
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")]
    script = "import test_kernels; print(test_kernels._values())"
    runs = {}
    with contextlib.ExitStack() as stack:
        for kernel in KERNELS:
            runs[kernel] = stack.enter_context(subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=dict(os.environ, OPENBLAS_CORETYPE=kernel,
                                    PYTHONPATH=os.pathsep.join(filter(None, paths)))))
            stack.callback(runs[kernel].kill)
        results = {kernel: run.communicate(timeout=60) for kernel, run in runs.items()}
    for kernel, (out, err) in results.items():
        assert runs[kernel].returncode == 0, err
        assert json.loads(out) == json.loads(_values()), kernel
