"""Run every check row on seeds 0-99 and print each measured value exactly.

Usage, from the root of a checkout:

    python tools/seed_sweep.py > sweep.jsonl

Each seed gives one JSON line, {"seed": s, "measured": {row: hex}}, with
every row's measured value as float.hex, so the outputs of two checkouts
can be compared with diff.  After the seeds comes one line per row,
{"row": name, "failing_seeds": [...], "worst_margin": m, "worst_seed": s},
where the margin is measured / tolerance and a NaN measurement counts as
the worst.  The run time goes to stderr, so stdout stays diffable.  The
exit status is 1 if any row fails on any seed, else 0.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from gupmech.checks import run_suite  # noqa: E402

SEEDS = range(100)


def main():
    started = time.perf_counter()
    rows = {}  # row name -> [(margin, seed, passed)] over the seeds
    for seed in SEEDS:
        results = run_suite("all", seed=seed)
        print(json.dumps({"seed": seed,
                          "measured": {r.name: r.measured.hex() for r in results}}))
        for r in results:
            margin = r.measured / r.tolerance
            rows.setdefault(r.name, []).append((margin, seed, r.passed))
    failing = False
    for name, samples in rows.items():
        # a NaN margin sorts above every number
        margin, seed, _ = max(samples, key=lambda s: (s[0] != s[0], s[0]))
        failing_seeds = [s for _, s, passed in samples if not passed]
        failing = failing or bool(failing_seeds)
        print(json.dumps({"row": name, "failing_seeds": failing_seeds,
                          "worst_margin": margin, "worst_seed": seed}))
    print(f"seed sweep: {len(SEEDS)} seeds in {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
