"""Print every end-to-end and per-layer metric of every workload, with an env block.

Usage, from the repository root:

    python3 bench/report.py [--seed 1] [--seconds 25] [--workload NAME ...] [--json OUT]

Each workload runs once with untraced and traced samples alternating
(the same measurement as `run.py --trace 1`). End-to-end metrics come
from the untraced samples, per-layer metrics from the traced ones. Each
metric is printed by name with its median, quartiles, sample count and
unit; error_rate is failed over attempted samples. --json also writes
the whole report as one JSON document.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

from run import (RAW_METRICS, SetupError, child_env, declared_metrics, end_to_end_values,
                 measure, per_layer_values, prepare, print_table, report_errors, summaries)
from workloads import DEFAULT_SEED, WORKLOADS


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root):
    versions = subprocess.run(
        [sys.executable, "-c",
         "import numpy, mpmath; print(numpy.__version__, mpmath.__version__)"],
        cwd=root, env=child_env(root), capture_output=True, text=True, check=True,
    ).stdout.split()
    return {"python": platform.python_version(), "numpy": versions[0],
            "mpmath": versions[1], "nproc": os.cpu_count(), "cpu": _cpu_model()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        end_to_end, per_layer = declared_metrics(root)
        prepare(root)
    except (OSError, ValueError, KeyError, SetupError) as err:
        print(f"bench: cannot run here: {err}", file=sys.stderr)
        return 2

    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True))
    document = {"env": env, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in args.workload or list(WORKLOADS):
        scenario, plain, traced = measure(root, workload, args.seed, args.seconds, True)
        samples = plain + traced
        failed = report_errors(samples)
        values = end_to_end_values(scenario, plain)
        tables = {"end_to_end": summaries(end_to_end, values),
                  "raw": summaries(RAW_METRICS, values),
                  "per_layer": summaries(per_layer, per_layer_values(plain, traced))}
        error_rate = failed / len(samples)
        print(f"\n== {workload} (work: {WORKLOADS[workload].work_unit}): "
              f"attempted {len(samples)}, failed {failed}, error_rate {error_rate:.3g}")
        for table in tables.values():
            print_table(table)
        document["workloads"][workload] = {
            "attempted": len(samples), "failed": failed, "error_rate": error_rate,
            **{kind: {name: dict(zip(("unit", "median", "q1", "q3", "n"), row))
                      for name, row in table.items()}
               for kind, table in tables.items()},
        }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
