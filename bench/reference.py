"""Fixed reference process, timed next to every sample to gauge the host's speed.

It does what a benchmarked command does, in miniature and without
gupmech: start Python, import numpy, step a small numpy state in a
Python loop. On a shared host the speed of such a process swings by a
third within minutes; a sample's time divided by the reference time
measured just before it keeps only the program's own cost.
"""

import numpy as np

if __name__ == "__main__":
    x = np.zeros(3)
    for _ in range(20_000):
        x = x + 0.001 * np.sin(x + 1.0)
    if not np.all(np.isfinite(x)):
        raise SystemExit("reference loop produced a non-finite state")
