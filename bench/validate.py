"""Per-run output validation; a run that fails it counts toward error_rate.

The checks on report fields and CSV row counts hold for every seed. For
the default seed the simulate endpoints are also compared with values
recorded from the unoptimised code.
"""

import json
import math
import os

from workloads import DEFAULT_SEED, Scenario

# RK4 energy drift on these orbits is about 1e-14; a broken step shows as
# drift many orders above this.
ENERGY_DRIFT_LIMIT = 1e-9

# The exact boost is a rotation of (u t, x1), so the interval residual is
# round-off; seeded event sets measure a few 1e-15.
INTERVAL_RESIDUAL_LIMIT = 1e-12

# Endpoint tolerance, relative to max(|value|, 1). Measured on the default
# seed: a 1-ulp change of the initial state moves the endpoint by at most
# 7e-15, and reordered arithmetic adds a few ulps per step, at most ~1e-11
# over 4e4 steps. A different model or potential moves it by ~1e-2 and an
# order-2 integrator by ~1e-6. Halving dt with RK4 moves it by only 1e-12,
# below this tolerance; a changed step count fails the samples check.
ENDPOINT_RTOL = 1e-10

# Endpoints of the default seed, recorded from the unoptimised code:
# (t, x, p, energy).
REFERENCE_ENDPOINTS = {
    "simulate-1d": (40.0, (-2.9617109803078767,), (-0.7612941951746773,),
                    4.67677374645921),
    "simulate-3d": (12.0,
                    (0.5464314589727096, -1.3235672389958169, -0.17919560006925966),
                    (-0.910448607197352, -2.469389499886011, -1.48352270745544),
                    6.063495981144096),
}

CHECK_NAMES = (
    "algebra.bracket-1d-representation", "algebra.bracket-3d-representation",
    "algebra.vanishing-brackets", "algebra.beta-zero-bound",
    "algebra.beta-zero-halving", "algebra.antisymmetry", "algebra.leibniz",
    "algebra.monotonicity-1d", "algebra.jacobi-residual",
    "dynamics.model-agreement-bound", "dynamics.model-agreement-halving",
    "dynamics.effective-sqrt-consistency", "dynamics.rhs-fd-agreement",
    "dynamics.rk4-order", "dynamics.relativistic-coefficient",
    "legendre.inversion-roundtrip", "legendre.first-order-gap-bound",
    "legendre.first-order-gap-halving", "legendre.sign-structure",
    "legendre.action-additivity", "legendre.action-interval-link",
    "frames.interval-invariance", "frames.first-order-convergence",
    "frames.group-structure", "frames.lorentz-invariance",
    "frames.no-speed-limit", "frames.covariance-exact",
    "frames.covariance-control",
    "constants.published-magnitudes", "constants.mass-independence",
    "constants.extended-consistency", "constants.superluminal-shift",
    "constants.closed-vs-exact",
)


class ValidationError(Exception):
    """The run's exit code, report or output file is wrong."""


def _csv_rows(path):
    """Data rows of a CSV file: its lines minus the header."""
    try:
        with open(path, "rb") as handle:
            return handle.read().count(b"\n") - 1
    except OSError as err:
        raise ValidationError(f"cannot read {os.path.basename(path)}: {err.strerror}") from None


def _close(got, want):
    return abs(got - want) <= ENDPOINT_RTOL * max(abs(want), 1.0)


def _check_simulate(scenario, report, workdir):
    traj = report["trajectory"]
    samples = scenario.work + 1
    if traj["samples"] != samples:
        raise ValidationError(f"samples {traj['samples']} != {samples}")
    rows = _csv_rows(os.path.join(workdir, scenario.output))
    if rows != samples:
        raise ValidationError(f"trajectory CSV has {rows} rows, expected {samples}")
    drift = traj["energy_drift"]
    if not (math.isfinite(drift) and drift <= ENERGY_DRIFT_LIMIT):
        raise ValidationError(f"energy_drift {drift!r} above {ENERGY_DRIFT_LIMIT}")
    end = traj["endpoint"]
    got = [end["t"], *end["x"], *end["p"], end["energy"]]
    if not all(math.isfinite(v) for v in got):
        raise ValidationError(f"non-finite endpoint {got}")
    if scenario.seed == DEFAULT_SEED:
        reference = REFERENCE_ENDPOINTS[scenario.workload]
        want = [reference[0], *reference[1], *reference[2], reference[3]]
        if len(got) != len(want) or not all(map(_close, got, want)):
            raise ValidationError(f"endpoint {got} differs from the reference {want}")


def _check_transform(scenario, report, workdir):
    events = report["events"]
    if events["count"] != scenario.work:
        raise ValidationError(f"count {events['count']} != {scenario.work}")
    residual = events["interval_residual"]
    if residual is None or not residual <= INTERVAL_RESIDUAL_LIMIT:
        raise ValidationError(
            f"interval_residual {residual!r} above {INTERVAL_RESIDUAL_LIMIT}")
    rows = _csv_rows(os.path.join(workdir, scenario.output))
    if rows != scenario.work:
        raise ValidationError(f"events CSV has {rows} rows, expected {scenario.work}")


def _check_check(scenario, report, workdir):
    del workdir
    if report["failures"] != 0:
        raise ValidationError(f"{report['failures']} check(s) failed")
    names = tuple(row["name"] for row in report["results"])
    if names != CHECK_NAMES:
        raise ValidationError(f"check rows {names} differ from the {len(CHECK_NAMES)} expected")
    failing = [row["name"] for row in report["results"] if not row["passed"]]
    if failing:
        raise ValidationError(f"failing check rows: {', '.join(failing)}")


_CHECKS = {"simulate": _check_simulate, "transform": _check_transform,
           "check": _check_check}


def validate(scenario: Scenario, returncode: int, stdout: str, workdir: str) -> None:
    """Raise ValidationError unless the run exited 0 with a correct report and output."""
    if returncode != 0:
        raise ValidationError(f"exit code {returncode}")
    try:
        report = json.loads(stdout)
    except ValueError as err:
        raise ValidationError(f"report is not JSON: {err}") from None
    command = scenario.argv[0]
    if report.get("command") != command:
        raise ValidationError(f"report command {report.get('command')!r} != {command!r}")
    try:
        _CHECKS[command](scenario, report, workdir)
    except (KeyError, TypeError) as err:
        raise ValidationError(f"report lacks or mistypes a field: {err!r}") from None
