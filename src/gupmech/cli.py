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
    check.add_argument("--seed", type=_seeds, default=checks.DEFAULT_SEED,
                       help="one seed N, or A-B for every seed from A to B")
    check.add_argument("--tolerance-scale", type=float, default=1.0,
                       help="multiply every tolerance (0 exercises the failure path)")

    return parser


def _seeds(text):
    """--seed's value: one seed as int() reads it, or range(A, B + 1) for A-B."""
    try:
        return int(text)
    except ValueError:
        first, _, last = text.rpartition("-")
    if first.strip().isdecimal() and last.strip().isdecimal() and int(first) <= int(last):
        return range(int(first), int(last) + 1)
    raise argparse.ArgumentTypeError(f"expected N or A-B with 0 <= A <= B, got {text!r}")


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


def _distinct(args, report_path, files):
    """ConfigError if an output names --config, or output.report names another file of the run.

    files is a {setting: path} dict of the run's other files; each output.* setting is written.
    """
    same = os.path.realpath
    for key, other in {"--config": args.config, **files}.items():
        if report_path and same(report_path) == same(other):
            raise ConfigError(f"output.report and {key} both name {other}")
        if key.startswith("output.") and same(other) == same(args.config):
            raise ConfigError(f"{key} and --config both name {other}")


def _cmd_simulate(args):
    config, report = _scenario(args.config)
    if config.t_end is None or config.dt is None:
        raise ConfigError("simulate needs t_end and dt")
    kind = config.build_hamiltonian()
    initial = config.build_initial_state()
    out_path = config.trajectory_path or "trajectory.csv"
    _distinct(args, config.report_path, {"output.trajectory": out_path})
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
    _distinct(args, config.report_path, {"output.events": out_path, "--events": args.events})
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
    scales = []
    for geometry in (constants.GEOMETRY_ONE_D, constants.GEOMETRY_THREE_D):
        try:
            scales.append(constants.EffectiveScales.for_mass(mass, geometry))
        except DomainError as err:  # c gamma / alpha reached 1
            raise DomainError(f"--mass {mass!r} in the {geometry} geometry: {err}") from None
        except (ArithmeticError, ValueError) as err:  # gamma underflowed to 0, or a square overflowed
            raise ConfigError(f"--mass {mass!r} left the float range: {err!r}") from None
    one, three = scales
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
    if isinstance(args.seed, range):
        seed, body = f"{args.seed[0]}-{args.seed[-1]}", _range_report(args)
    elif args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    else:
        results = checks.run_suite(args.suite, seed=args.seed,
                                   tolerance_scale=args.tolerance_scale)
        seed, body = args.seed, {"results": [dataclasses.asdict(r) for r in results],
                                 "failures": sum(1 for r in results if not r.passed)}
    report = {"suite": args.suite, "seed": seed, "tolerance_scale": args.tolerance_scale, **body}
    return report, None, 0 if body["failures"] == 0 else 1


def _range_report(args):
    """Per row its failing seeds and worst margin, measured / tolerance with NaN the worst,
    at its worst seed; per seed every measured value as float.hex."""
    by_seed = checks.run_seeds(args.suite, args.seed, args.tolerance_scale)
    rows = []
    for column in zip(*by_seed):  # one row's results, seed by seed
        samples = [(r.measured / r.tolerance, seed, r.passed) for seed, r in zip(args.seed, column)]
        margin, worst, _ = max(samples, key=lambda s: (s[0] != s[0], s[0]))
        rows.append({"name": column[0].name, "worst_margin": margin, "worst_seed": worst,
                     "failing_seeds": [seed for _, seed, passed in samples if not passed]})
    return {"rows": rows, "failures": sum(1 for row in rows if row["failing_seeds"]),
            "seeds": [{"seed": seed, "measured": {r.name: r.measured.hex() for r in results}}
                      for seed, results in zip(args.seed, by_seed)]}


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
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value like -1-5 for an option, after --seed or its abbreviations
    for k in range(len(argv) - 1, 0, -1):
        if (argv[k - 1] in ("--se", "--see", "--seed")
                and argv[k][:1] == "-" and argv[k][1:2].isdigit()):
            argv[k - 1:k + 1] = [f"--seed={argv[k]}"]
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
