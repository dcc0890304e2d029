"""Benchmark entry: run one workload as fresh `gupmech` processes and report metrics.

Usage, from the repository root:

    python3 bench/run.py --workload simulate-1d --seed 1 --seconds 25 --trace 0

Each sample is one child process running one CLI command on inputs
generated from the seed, exactly as a user runs it (sequential, closed
loop, one process at a time). Samples repeat until --seconds have passed
and at least MIN_SAMPLES ran. Every sample's output is validated.

Before each untraced sample the fixed reference process (reference.py)
is timed. wall_ref is the sample's wall time over that reference time
and work_per_ref its work per reference time of cli.main; both keep the
program's cost while the host's speed, which swings by a third within
minutes on a shared machine, divides out. setup_s is the import of
gupmech.cli (numpy and mpmath included) rescaled the same way to
seconds at REF_NOMINAL_S per reference run; the raw import time is
printed as import_s. peak_rss_mb is the child's ru_maxrss.

With --trace 0 the last stdout line carries the end-to-end metrics (the
median over samples); with --trace 1 untraced and traced samples
alternate and it carries the per-layer metrics of the traced ones. Units
come from BENCHMARK.json. Earlier lines give median, quartiles and
sample count for each metric, and the ungated raw times (RAW_METRICS).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Optional

import spans
from validate import ValidationError, validate
from workloads import DEFAULT_SEED, WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60

# The reference process's typical time on the 2-core Xeon host the bounds
# were measured on. setup_s is stated at this host speed: the raw import
# time's per-run median moves between 0.15 and 0.28 s with the host alone.
REF_NOMINAL_S = 0.3

# Printed beside the end-to-end metrics but not gated: raw seconds swing
# with the host's speed, which the gated metrics divide out.
RAW_METRICS = (
    {"name": "wall_s", "unit": "s"},
    {"name": "work_per_s", "unit": "1/s"},
    {"name": "import_s", "unit": "s"},
    {"name": "ref_s", "unit": "s"},
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (no source tree, import fails)."""


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    error: Optional[str]
    setup_s: Optional[float] = None
    main_s: Optional[float] = None
    ref_s: Optional[float] = None
    trace: Optional[dict] = None


def child_env(root):
    env = dict(os.environ)
    env.pop("GUP_UNITS", None)  # it would stamp a different unit system into reports
    env["PYTHONPATH"] = os.path.join(root, "src")
    # One thread per process: the host has two cores and the work is serial.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = env["MKL_NUM_THREADS"] = "1"
    return env


def prepare(root):
    """Check the checkout holds the package and compile its bytecode once.

    Compilation is a one-time cost an installed package does not pay on
    every run, so it stays out of setup_s.
    """
    if not os.path.isfile(os.path.join(root, "src", "gupmech", "cli.py")):
        raise SetupError(f"no gupmech source tree under {os.path.join(root, 'src')}")
    done = subprocess.run([sys.executable, "-c", "import gupmech.cli"], cwd=root,
                          env=child_env(root), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SetupError(f"cannot import gupmech.cli: {done.stderr.strip()}")


def spawn(argv, root, workdir, stdout, stderr):
    """Run one child to completion: (exit code, wall seconds, resource usage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=workdir, env=child_env(root),
                            stdout=stdout, stderr=stderr)
    # A hung child is killed, and then fails validation by its exit code.
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    # Recorded so the Popen object does not try to reap the child again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def reference_time(root, workdir):
    """Wall time of the fixed reference process, the host-speed yardstick."""
    code, wall, _ = spawn([sys.executable, os.path.join(HERE, "reference.py")], root,
                          workdir, subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise SetupError(f"the reference process exited {code}")
    return wall


def run_once(root, scenario, workdir, traced, run_id) -> Sample:
    record = os.path.join(workdir, "record.json")
    stdout = os.path.join(workdir, "stdout.json")
    for stale in (record, stdout, os.path.join(workdir, scenario.output)):
        if os.path.isfile(stale):
            os.remove(stale)
    argv = [sys.executable, os.path.join(HERE, "child.py"), record,
            "1" if traced else "0", run_id, *scenario.argv]
    with open(stdout, "wb") as out, open(os.path.join(workdir, "stderr.txt"), "wb") as err:
        returncode, wall, usage = spawn(argv, root, workdir, out, err)
    sample = Sample(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0, error=None)
    with open(stdout, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        validate(scenario, returncode, text, workdir)
    except ValidationError as err:
        sample.error = str(err)
    if os.path.exists(record):
        with open(record, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        sample.setup_s = data["setup_s"]
        sample.main_s = data["main_s"]
        sample.trace = data.get("trace")
    elif sample.error is None:
        sample.error = "the child wrote no timing record"
    return sample


def measure(root, workload, seed, seconds, trace):
    """Samples of one run: (untraced, traced); traced is empty unless trace."""
    tmp_root = os.path.join(root, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root)
    try:
        scenario = generate(workload, seed, workdir)
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        while (len(plain) < MIN_SAMPLES or (trace and len(traced) < MIN_SAMPLES)
               or time.perf_counter() < deadline):
            ref_s = reference_time(root, workdir)
            sample = run_once(root, scenario, workdir, False, f"{seed}-{len(plain)}")
            sample.ref_s = ref_s
            plain.append(sample)
            if trace:
                traced.append(run_once(root, scenario, workdir, True,
                                       f"{seed}-t{len(traced)}"))
        return scenario, plain, traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass


def end_to_end_values(scenario, plain):
    """Per-sample values of each end-to-end metric."""
    timed = [s for s in plain if s.main_s is not None]
    return {
        "wall_ref": [s.wall_s / s.ref_s for s in plain],
        "setup_s": [s.setup_s * REF_NOMINAL_S / s.ref_s for s in timed],
        "work_per_ref": [scenario.work * s.ref_s / s.main_s for s in timed],
        "peak_rss_mb": [s.rss_mb for s in plain],
        "wall_s": [s.wall_s for s in plain],
        "work_per_s": [scenario.work / s.main_s for s in timed],
        "import_s": [s.setup_s for s in timed],
        "ref_s": [s.ref_s for s in plain],
    }


def per_layer_values(plain, traced):
    """Per-sample values of each per-layer metric, from the traced samples."""
    untraced_main = statistics.median(s.main_s for s in plain if s.main_s is not None)
    values = {}
    for s in traced:
        if s.trace is None:
            continue
        layer = spans.layer_metrics(s.trace, s.setup_s, s.wall_s)
        layer["trace.overhead"] = s.main_s / untraced_main - 1.0
        for name, value in layer.items():
            values.setdefault(name, []).append(value)
    return values


def summary(values):
    """(median, q1, q3, n) of one metric's samples."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def summaries(declared, values):
    """name -> (unit, median, q1, q3, n) for each declared metric."""
    table = {}
    for metric in declared:
        name = metric["name"]
        if not values.get(name):
            raise KeyError(f"no sample measured {name}")
        table[name] = (metric["unit"], *summary(values[name]))
    return table


def print_table(table):
    for name, (unit, median, q1, q3, n) in table.items():
        print(f"{name:45s} {median:14.6g}  q1 {q1:<12.6g} q3 {q3:<12.6g} n {n:<3d} {unit}")


def report_errors(samples):
    """Print each distinct validation failure once; return how many samples failed."""
    errors = [s.error for s in samples if s.error is not None]
    for message in sorted(set(errors)):
        print(f"bench: invalid output ({errors.count(message)}x): {message}", file=sys.stderr)
    return len(errors)


def declared_metrics(root):
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    try:
        end_to_end, per_layer = declared_metrics(root)
        prepare(root)
    except (OSError, ValueError, KeyError, SetupError, subprocess.TimeoutExpired) as err:
        print(f"bench: cannot run here: {err}", file=sys.stderr)
        return 2

    scenario, plain, traced = measure(root, args.workload, args.seed, args.seconds,
                                      args.trace == 1)
    samples = plain + traced
    failed = report_errors(samples)
    try:
        if args.trace:
            table = summaries(per_layer, per_layer_values(plain, traced))
        else:
            values = end_to_end_values(scenario, plain)
            table = summaries(end_to_end, values)
            print_table(summaries(RAW_METRICS, values))
    except (KeyError, statistics.StatisticsError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    print_table(table)
    metrics = {name: {"value": row[1], "unit": row[0]} for name, row in table.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
