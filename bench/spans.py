"""In-memory span tracer that wraps gupmech's functions from outside.

A span wrapper records (id, name, start, end, parent) around each call,
plus counters taken from its arguments and result. A count wrapper only
bumps a counter; it is for functions called once per pair or per step,
where a span would cost more than the work it measures. Each wrapper
replaces the function in every gupmech module namespace that holds it,
so calls through `from .x import f` names are caught too. No file under
src/ changes.
"""

import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

# Span record fields, kept as lists so a wrapper does one append per call.
ID, NAME, START, END, PARENT, INFO = range(6)

MODULES = ("cli", "config", "dynamics", "csvio", "frames", "legendre",
           "algebra", "constants", "checks")


@dataclass(frozen=True)
class Target:
    module: str
    function: str
    count_only: bool = False
    # (args, result) -> counters recorded on the span
    extra: Optional[Callable] = None
    # count-only names whose calls inside the span are recorded on it
    deltas: Tuple[str, ...] = ()

    @property
    def name(self):
        return f"{self.module}.{self.function}"


def _rows(args, result):
    del result
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


TARGETS = (
    Target("dynamics", "radial_velocity", count_only=True),
    Target("legendre", "euclidean_interval", count_only=True),
    Target("cli", "main"),
    Target("config", "parse_config"),
    Target("config", "render_config"),
    Target("dynamics", "integrate", extra=lambda a, r: {"steps": len(r) - 1}),
    Target("dynamics", "energy_drift"),
    Target("csvio", "write_trajectory", extra=_rows),
    Target("csvio", "read_events", extra=lambda a, r: {"rows": len(r)}),
    Target("csvio", "write_events", extra=_rows),
    Target("frames", "galilean_apply"),
    Target("frames", "covariance_residual"),
    Target("legendre", "momentum_from_velocity_exact",
           deltas=("dynamics.radial_velocity",)),
    Target("legendre", "action_along_path"),
    Target("algebra", "numerical_bracket"),
    Target("algebra", "jacobi_residual"),
    Target("constants", "gamma_from_planck_length"),
    Target("constants", "geometry_alpha"),
    Target("constants", "effective_velocity_u"),
    Target("constants", "light_speed_deviation"),
    Target("constants", "effective_light_speed"),
    Target("constants", "effective_light_speed_extended"),
    Target("checks", "run_suite"),
)


class Tracer:
    """Spans and call counts of one process, kept in memory until it ends."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.spans = []
        self.calls = {}
        self._stack = [None]
        self._clock = clock

    def span_wrapper(self, name, fn, extra=None, deltas=()):
        spans, stack, clock = self.spans, self._stack, self._clock
        cells = [(counter, self.calls.setdefault(counter, [0])) for counter in deltas]

        def wrapper(*args, **kwargs):
            record = [len(spans), name, 0.0, 0.0, stack[-1], None]
            spans.append(record)
            stack.append(record[ID])
            before = [cell[0] for _, cell in cells]
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            info = extra(args, result) if extra else {}
            for (counter, cell), start in zip(cells, before):
                info[counter] = cell[0] - start
            record[INFO] = info or None
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        cell = self.calls.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target that exists; a target the code no longer has reads 0."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gupmech" or n.startswith("gupmech."))]
        for target in targets:
            home = sys.modules.get(f"gupmech.{target.module}")
            original = getattr(home, target.function, None)
            if original is None:
                continue
            if target.count_only:
                wrapper = self.count_wrapper(target.name, original)
            else:
                wrapper = self.span_wrapper(target.name, original, target.extra,
                                            target.deltas)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self):
        return {"run": self.run_id, "spans": self.spans,
                "calls": {name: cell[0] for name, cell in self.calls.items()}}


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span[START]
        for child in sorted(children.get(span[ID], ()), key=lambda s: s[START]):
            lo = max(child[START], reach)
            hi = min(child[END], span[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[ID]] = (span[END] - span[START]) - covered
    return out


def outermost_times(spans, key=lambda name: name):
    """Per key of a span's name: total duration of its spans that no span of
    the same key encloses, so nested or recursive calls count once."""
    by_id = {span[ID]: span for span in spans}
    totals = {}
    for span in spans:
        k = key(span[NAME])
        parent = span[PARENT]
        while parent is not None and key(by_id[parent][NAME]) != k:
            parent = by_id[parent][PARENT]
        if parent is None:
            totals[k] = totals.get(k, 0.0) + span[END] - span[START]
    return totals


def _module(name):
    return name.split(".", 1)[0]


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(trace, setup_s, wall_s):
    """Per-layer metrics of one traced process, by name; a layer not called reads 0."""
    spans = trace["spans"]
    incl = defaultdict(float, outermost_times(spans))
    count = Counter(span[NAME] for span in spans)
    info = Counter()
    selfs = self_times(spans)
    module_self = dict.fromkeys(MODULES, 0.0)
    for span in spans:
        for key, value in (span[INFO] or {}).items():
            info[span[NAME], key] += value
        module_self[_module(span[NAME])] += selfs[span[ID]]

    steps = info["dynamics.integrate", "steps"]
    traj_rows = info["csvio.write_trajectory", "rows"]
    inversions = count["legendre.momentum_from_velocity_exact"]
    m = {
        "dynamics.integrate.s": incl["dynamics.integrate"],
        "dynamics.integrate.steps": steps,
        "dynamics.integrate.us_per_step": _ratio(incl["dynamics.integrate"], steps, 1e6),
        "dynamics.energy_drift.s": incl["dynamics.energy_drift"],
        "csvio.write_trajectory.s": incl["csvio.write_trajectory"],
        "csvio.write_trajectory.rows": traj_rows,
        "csvio.write_trajectory.bytes": info["csvio.write_trajectory", "bytes"],
        "csvio.write_trajectory.us_per_row": _ratio(incl["csvio.write_trajectory"],
                                                    traj_rows, 1e6),
        "csvio.read_events.s": incl["csvio.read_events"],
        "csvio.read_events.rows": info["csvio.read_events", "rows"],
        "csvio.write_events.s": incl["csvio.write_events"],
        "csvio.write_events.bytes": info["csvio.write_events", "bytes"],
        "frames.galilean_apply.s": incl["frames.galilean_apply"],
        "frames.galilean_apply.calls": count["frames.galilean_apply"],
        "frames.covariance_residual.s": incl["frames.covariance_residual"],
        "legendre.euclidean_interval.calls": trace["calls"].get("legendre.euclidean_interval", 0),
        "legendre.momentum_from_velocity_exact.s": incl["legendre.momentum_from_velocity_exact"],
        "legendre.momentum_from_velocity_exact.calls": inversions,
        "legendre.newton_evals_per_inversion": _ratio(
            info["legendre.momentum_from_velocity_exact", "dynamics.radial_velocity"],
            inversions),
        "legendre.action_along_path.s": incl["legendre.action_along_path"],
        "algebra.numerical_bracket.s": incl["algebra.numerical_bracket"],
        "algebra.numerical_bracket.calls": count["algebra.numerical_bracket"],
        "algebra.jacobi_residual.s": incl["algebra.jacobi_residual"],
        "constants.s": outermost_times(spans, _module).get("constants", 0.0),
        "checks.run_suite.s": incl["checks.run_suite"],
        "config.parse_config.s": incl["config.parse_config"],
        "config.render_config.s": incl["config.render_config"],
    }
    for module in MODULES:
        m[f"{module}.self_s"] = module_self[module]
    m["trace.main_s"] = incl["cli.main"]
    # Setup plus every layer's self time, against the process's wall time;
    # the rest is interpreter start-up and exit.
    m["trace.accounted_share"] = _ratio(setup_s + sum(module_self.values()), wall_s)
    return m
