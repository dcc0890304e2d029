"""Command-line entry: simulate, transform, constants, check.

Exit codes: 0 success, 1 check-suite failure, 2 usage, parse or float
overflow error, 3 numeric-domain error.  Each command returns its report
body, its report path and its exit code; one runner stamps `command` and
`wall_time_s`, writes the report file and prints the report as sorted-key
JSON on stdout.  wall_time_s is the only field expected to differ between
identical runs.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from . import checks, constants, csvio, dynamics, frames
from .algebra import DomainError
from .config import ConfigError, UNITS_MODES, parse_config, render_config

_USAGE_EXIT = 2
_DOMAIN_EXIT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gupmech",
        description="Particle mechanics on a minimal-length deformed phase space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="integrate a configured scenario")
    simulate.add_argument("--config", required=True, metavar="PATH")

    transform = sub.add_parser("transform", help="boost an event list between frames")
    transform.add_argument("--config", required=True, metavar="PATH")
    transform.add_argument("--events", required=True, metavar="CSV")

    consts = sub.add_parser("constants", help="report the derived physical scales")
    consts.add_argument("--mass", type=float, default=None, metavar="KG",
                        help="particle mass in kg (default: electron)")

    check = sub.add_parser("check", help="run the seeded invariant suites")
    check.add_argument("--suite", choices=checks.SUITE_NAMES, default="all")
    check.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    check.add_argument("--tolerance-scale", type=float, default=1.0,
                       help="multiply every tolerance (0 exercises the failure path)")

    return parser


def _units_mode(config_units: str) -> str:
    override = os.environ.get("GUP_UNITS")
    if override is None:
        return config_units
    if override not in UNITS_MODES:
        raise ConfigError(
            f"GUP_UNITS: expected one of {', '.join(UNITS_MODES)}, got {override!r}")
    return override


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(
            f"config {path} is not UTF-8 text (byte {err.start}: {err.reason})") from None
    try:
        return parse_config(text)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


def _scenario(path):
    """The parsed config and the report fields simulate and transform share."""
    config = _load_config(path)
    return config, {"scenario": render_config(config), "units": _units_mode(config.units)}


def _distinct(report_path, outputs):
    """ConfigError if output.report resolves to a file of outputs, a {setting: path} dict."""
    for key, other in outputs.items():
        if report_path and os.path.realpath(report_path) == os.path.realpath(other):
            raise ConfigError(f"output.report and {key} both name {other}")


def _cmd_simulate(args):
    config, report = _scenario(args.config)
    if config.t_end is None or config.dt is None:
        raise ConfigError("simulate needs t_end and dt")
    kind = config.build_hamiltonian()
    initial = config.build_initial_state()
    out_path = config.trajectory_path or "trajectory.csv"
    _distinct(config.report_path, {"output.trajectory": out_path})
    # a long trajectory's finished rows are formatted by a forked child while RK4 steps on
    with csvio.TableWriter() as writer:
        trajectory = dynamics.integrate(kind, initial, config.t_end, config.dt, writer.trajectory)
        csvio.write_trajectory(out_path, trajectory, writer)
    end = trajectory.endpoint
    report["trajectory"] = {
        "samples": len(trajectory),
        "endpoint": {
            "t": float(trajectory.times[-1]),
            "x": [float(v) for v in end.x],
            "p": [float(v) for v in end.p],
            "energy": float(trajectory.energies[-1]),
        },
        "energy_drift": float(dynamics.energy_drift(trajectory)),
    }
    report["output"] = {"trajectory_csv": out_path}
    return report, config.report_path, 0


def _cmd_transform(args):
    config, report = _scenario(args.config)
    boost = config.build_boost()
    if boost is None:
        raise ConfigError("transform needs a boost.velocity entry")
    out_path = config.events_path or "events_transformed.csv"
    _distinct(config.report_path, {"output.events": out_path, "--events": args.events})
    events = csvio.read_events(args.events)
    if isinstance(boost, frames.LorentzBoost):
        mapped = frames.lorentz_apply(boost, events)
        report["boost"] = {"law": "lorentz", "velocity": boost.velocity,
                           "light_speed": boost.light_speed}
    else:
        mapped = frames.galilean_apply(boost, events)
        report["boost"] = {"law": boost.law, "velocity": boost.velocity,
                           "scale": boost.scale}
    # a non-finite interval is refused before any file is written
    residual = frames.interval_residual(boost, events, mapped)
    csvio.write_events(out_path, mapped)
    report["events"] = {"count": len(events), "interval_residual": residual}
    report["output"] = {"events_csv": out_path}
    return report, config.report_path, 0


def _cmd_constants(args):
    mass = constants.CODATA.electron_mass if args.mass is None else args.mass
    if not (math.isfinite(mass) and mass > 0.0):
        raise ConfigError(f"--mass must be finite and positive, got {mass}")
    try:
        one = constants.EffectiveScales.for_mass(mass, constants.GEOMETRY_ONE_D)
        three = constants.EffectiveScales.for_mass(mass, constants.GEOMETRY_THREE_D)
    except DomainError:
        raise
    except (ArithmeticError, ValueError) as err:  # gamma underflowed to 0, or a square overflowed
        raise ConfigError(f"--mass {mass!r} left the float range: {err!r}") from None
    c = constants.CODATA.light_speed
    report = {
        "gamma": one.gamma,
        "c_gamma": one.c_gamma,
        "u_over_c_1d": one.u / c,
        "u_over_c_3d": three.u / c,
        "c_eff_rel_deviation_1d": one.deviation,
        "c_eff_rel_deviation_3d": three.deviation,
        "assumptions": {
            "mass_kg": mass,
            "light_speed": c,
            "reduced_planck": constants.CODATA.reduced_planck,
            "gravitational": constants.CODATA.gravitational,
            "planck_length": constants.CODATA.planck_length,
            "minimal_length": "planck length",
            # the CODATA values are SI whatever GUP_UNITS says
            "units": "SI",
        },
    }
    return report, None, 0


def _cmd_check(args):
    if not (math.isfinite(args.tolerance_scale) and args.tolerance_scale >= 0.0):
        raise ConfigError(
            f"--tolerance-scale must be finite and non-negative, got {args.tolerance_scale}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    results = checks.run_suite(args.suite, seed=args.seed,
                               tolerance_scale=args.tolerance_scale)
    failures = sum(1 for r in results if not r.passed)
    report = {
        "suite": args.suite,
        "seed": args.seed,
        "tolerance_scale": args.tolerance_scale,
        "results": [dataclasses.asdict(r) for r in results],
        "failures": failures,
    }
    return report, None, 0 if failures == 0 else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "transform": _cmd_transform,
    "constants": _cmd_constants,
    "check": _cmd_check,
}


def _run(args) -> int:
    """Run one command; stamp, time, write and print its report."""
    started = time.perf_counter()
    body, report_path, code = _COMMANDS[args.command](args)
    report = {"command": args.command, **body,
              "wall_time_s": time.perf_counter() - started}
    text = json.dumps(report, sort_keys=True, indent=2)
    if report_path:
        with open(report_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text + "\n")
    print(text)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except DomainError as err:
        print(f"gupmech: domain error: {err}", file=sys.stderr)
        return _DOMAIN_EXIT
    except (OSError, ValueError) as err:
        print(f"gupmech: error: {err}", file=sys.stderr)
        return _USAGE_EXIT
    except ArithmeticError as err:
        source = getattr(args, "config", None) or "the command line"
        if isinstance(err, FloatingPointError):
            # the message names the initial state or step of the config, or --events rows
            message = f"{getattr(args, 'events', None) or source}: {err}"
        else:
            message = f"a value in {source} left the float range: {err!r}"
        print(f"gupmech: error: {message}", file=sys.stderr)
        return _USAGE_EXIT


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
