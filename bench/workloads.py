"""The four benchmark workloads and the seeded input generator.

Each workload is one `gupmech` command run the way a user runs it. The
generator turns a workload seed into the scenario config and event CSV
that the command reads; the command receives nothing else.
"""

import math
import os
import random
from dataclasses import dataclass
from typing import Tuple

DEFAULT_SEED = 1

# Sizes keep one sample near 1.5 s on a shared 2-core host, so that a run
# of 25 s takes ~15 samples: the host's per-sample noise is about +-30%,
# and the median of fewer samples moves too much between runs.
SIM_1D_STEPS = 40_000
SIM_3D_STEPS = 12_000
TRANSFORM_EVENTS = 480
CHECK_ROWS = 33
# check-all runs the CLI's default check seed, not the workload seed:
# algebra.bracket-3d-representation fails its tolerance on about a quarter
# of check seeds (23 of 0..99), a defect of that check, not of this run.
CHECK_SEED = 42
DT = 0.001


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("simulate-1d", "RK4 steps",
             "exact-1d harmonic for 4e4 RK4 steps: the scalar integrator and a "
             "4e4-row trajectory write; no frames, legendre or residual code runs"),
    Workload("simulate-3d", "RK4 steps",
             "exact-3d harmonic for 1.2e4 RK4 steps: the vector integrator and an "
             "8-column write, kept apart so a change that helps 1D and costs 3D shows"),
    Workload("transform-exact", "events",
             "exact boost of 480 seeded 3D events: the all-pairs interval "
             "residual in the CLI dominates, against small read, boost and write"),
    Workload("check-all", "check rows",
             "check --suite all: the only run through algebra brackets, Jacobi, "
             "Newton inversion, constants with mpmath and the dynamics check loops"),
)}


@dataclass(frozen=True)
class Scenario:
    """Generated inputs for one workload: the CLI argv and what it must produce."""

    workload: str
    seed: int
    argv: Tuple[str, ...]
    work: int
    output: str = ""


def _write(directory, name, text):
    with open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _vector(values):
    return ", ".join(repr(v) for v in values)


def _unit_vector(rng):
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(phi), r * math.sin(phi), z)


def _simulate_config(kind, x0, p0, t_end, dt):
    return (f"model.kind = {kind}\n"
            "model.mass = 1.0\n"
            "model.beta = 0.01\n"
            "model.potential = harmonic\n"
            "model.stiffness = 1.0\n"
            f"initial.x = {_vector(x0)}\n"
            f"initial.p = {_vector(p0)}\n"
            f"t_end = {t_end!r}\n"
            f"dt = {dt!r}\n"
            "output.trajectory = trajectory.csv\n")


def generate(workload: str, seed: int, directory: str) -> Scenario:
    """Write the inputs of `workload` for `seed` into `directory`.

    The same seed always writes the same bytes. Paths in the returned argv
    are relative to `directory`, where the command is run.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "simulate-1d":
        # The exact-1d tangent branch ends at |p| = pi / (2 sqrt(beta)) = 15.7;
        # the orbit's largest |p| stays near p0.
        p0 = 3.0 + rng.uniform(-0.25, 0.25)
        _write(directory, "scenario.cfg",
               _simulate_config("exact-1d", (1.0,), (p0,), SIM_1D_STEPS * DT, DT))
        return Scenario(workload, seed, ("simulate", "--config", "scenario.cfg"),
                        SIM_1D_STEPS, "trajectory.csv")
    if workload == "simulate-3d":
        # The exact-3d domain is beta |p|^2 < 1, that is |p| < 10.
        x0 = tuple(v + rng.uniform(-0.1, 0.1) for v in (1.0, 0.0, 0.5))
        size = 3.0 + rng.uniform(-0.15, 0.15)
        p0 = tuple(size * c for c in _unit_vector(rng))
        _write(directory, "scenario.cfg",
               _simulate_config("exact-3d", x0, p0, SIM_3D_STEPS * DT, DT))
        return Scenario(workload, seed, ("simulate", "--config", "scenario.cfg"),
                        SIM_3D_STEPS, "trajectory.csv")
    if workload == "transform-exact":
        _write(directory, "scenario.cfg",
               "model.kind = exact-3d\n"
               "model.mass = 1.0\n"
               "model.beta = 0.01\n"
               "boost.velocity = 0.4\n"
               "boost.scale = 1.0\n"
               "boost.law = exact\n"
               "output.events = events_transformed.csv\n")
        rows = ["t,x1,x2,x3"]
        for _ in range(TRANSFORM_EVENTS):
            rows.append(",".join(repr(rng.uniform(-10.0, 10.0)) for _ in range(4)))
        _write(directory, "events.csv", "\n".join(rows) + "\n")
        return Scenario(workload, seed,
                        ("transform", "--config", "scenario.cfg", "--events", "events.csv"),
                        TRANSFORM_EVENTS, "events_transformed.csv")
    return Scenario(workload, seed, ("check", "--suite", "all", "--seed", str(CHECK_SEED)),
                    CHECK_ROWS)
