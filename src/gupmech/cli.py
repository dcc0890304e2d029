"""Command-line entry: simulate, transform, constants, check.

Exit codes: 0 success, 1 check-suite failure, 2 usage, parse or float
overflow error, 3 numeric-domain error.  Reports are sorted-key JSON on
stdout; wall_time_s is the only field expected to differ between identical runs.
"""

import argparse
import json
import math
import sys
import time
from os import environ

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


def _emit(report) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))


def _units_mode(config_units: str) -> str:
    override = environ.get("GUP_UNITS")
    if override is None:
        return config_units
    if override not in UNITS_MODES:
        raise ConfigError(
            f"GUP_UNITS: expected one of {', '.join(UNITS_MODES)}, got {override!r}")
    return override


def _write_report(path, report) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(report, handle, sort_keys=True, indent=2)
            handle.write("\n")


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


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    config = _load_config(args.config)
    units = _units_mode(config.units)
    if config.t_end is None or config.dt is None:
        raise ConfigError("simulate needs t_end and dt")
    kind = config.build_hamiltonian()
    initial = config.build_initial_state()
    trajectory = dynamics.integrate(kind, initial, config.t_end, config.dt)
    out_path = config.trajectory_path or "trajectory.csv"
    csvio.write_trajectory(out_path, trajectory)
    end = trajectory.endpoint
    report = {
        "command": "simulate",
        "scenario": render_config(config),
        "units": units,
        "trajectory": {
            "samples": len(trajectory),
            "endpoint": {
                "t": float(trajectory.times[-1]),
                "x": [float(v) for v in end.x],
                "p": [float(v) for v in end.p],
                "energy": float(trajectory.energies[-1]),
            },
            "energy_drift": float(dynamics.energy_drift(trajectory)),
        },
        "output": {"trajectory_csv": out_path},
        "wall_time_s": time.perf_counter() - started,
    }
    _write_report(config.report_path, report)
    _emit(report)
    return 0


def _cmd_transform(args) -> int:
    started = time.perf_counter()
    config = _load_config(args.config)
    units = _units_mode(config.units)
    boost = config.build_boost()
    if boost is None:
        raise ConfigError("transform needs a boost.velocity entry")
    events = csvio.read_events(args.events)
    if isinstance(boost, frames.LorentzBoost):
        mapped = frames.lorentz_apply(boost, events)
        boost_echo = {"law": "lorentz", "velocity": boost.velocity,
                      "light_speed": boost.light_speed}
    else:
        mapped = frames.galilean_apply(boost, events)
        boost_echo = {"law": boost.law, "velocity": boost.velocity,
                      "scale": boost.scale}
    # a non-finite interval is refused before any file is written
    residual = frames.interval_residual(boost, events, mapped)
    out_path = config.events_path or "events_transformed.csv"
    csvio.write_events(out_path, mapped)
    report = {
        "command": "transform",
        "scenario": render_config(config),
        "units": units,
        "boost": boost_echo,
        "events": {
            "count": len(events),
            "interval_residual": residual,
        },
        "output": {"events_csv": out_path},
        "wall_time_s": time.perf_counter() - started,
    }
    _write_report(config.report_path, report)
    _emit(report)
    return 0


def _cmd_constants(args) -> int:
    started = time.perf_counter()
    mass = constants.CODATA.electron_mass if args.mass is None else args.mass
    if not (math.isfinite(mass) and mass > 0.0):
        raise ConfigError(f"--mass must be finite and positive, got {mass}")
    units = _units_mode("SI")
    one = constants.EffectiveScales.for_mass(mass, constants.GEOMETRY_ONE_D)
    three = constants.EffectiveScales.for_mass(mass, constants.GEOMETRY_THREE_D)
    c = constants.CODATA.light_speed
    report = {
        "command": "constants",
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
            "units": units,
        },
        "wall_time_s": time.perf_counter() - started,
    }
    _emit(report)
    return 0


def _cmd_check(args) -> int:
    started = time.perf_counter()
    if not (math.isfinite(args.tolerance_scale) and args.tolerance_scale >= 0.0):
        raise ConfigError(
            f"--tolerance-scale must be finite and non-negative, got {args.tolerance_scale}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    results = checks.run_suite(args.suite, seed=args.seed,
                               tolerance_scale=args.tolerance_scale)
    failures = sum(1 for r in results if not r.passed)
    report = {
        "command": "check",
        "suite": args.suite,
        "seed": args.seed,
        "tolerance_scale": args.tolerance_scale,
        "results": [
            {"name": r.name, "measured": r.measured, "tolerance": r.tolerance,
             "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "failures": failures,
        "wall_time_s": time.perf_counter() - started,
    }
    _emit(report)
    return 0 if failures == 0 else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "transform": _cmd_transform,
    "constants": _cmd_constants,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as err:
        print(f"gupmech: domain error: {err}", file=sys.stderr)
        return _DOMAIN_EXIT
    except (OSError, ValueError) as err:
        print(f"gupmech: error: {err}", file=sys.stderr)
        return _USAGE_EXIT
    except ArithmeticError as err:
        source = getattr(args, "config", None) or "the command line"
        if isinstance(err, FloatingPointError):
            # the raiser's own message names the initial state, the step or the CSV rows
            message = f"{source}: {err}"
        else:
            message = f"a value in {source} left the float range: {err!r}"
        print(f"gupmech: error: {message}", file=sys.stderr)
        return _USAGE_EXIT


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
