"""Peak memory of `simulate`, read from fresh processes.

The trajectory's arrays (t, x, p and E) take 8 (2d + 2) bytes a sample, 32 in
1D.  The passes that run after the last RK4 step (the energy drift, the time
order check and the finiteness check) are reductions, so peak memory grows by
little more than that per step: about 33 bytes.  When each of them built
arrays as long as the trajectory, the growth was about 50 bytes per step.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the exact-1d harmonic orbit of the simulate benchmark, at dt = 1e-3
_SCENARIO = """\
model.kind = exact-1d
model.mass = 1.0
model.beta = 0.01
model.potential = harmonic
model.stiffness = 1.0
initial.x = 1.0
initial.p = 3.0
t_end = {t_end!r}
dt = 0.001
"""


def _peak_kb(tmp_path, steps):
    """ru_maxrss in KB of one `python -m gupmech simulate` run of this many steps."""
    work = tmp_path / str(steps)
    work.mkdir()
    (work / "scenario.cfg").write_text(_SCENARIO.format(t_end=steps * 1e-3), encoding="utf-8")
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.Popen([sys.executable, "-m", "gupmech", "simulate", "--config",
                             "scenario.cfg"], cwd=work, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))))
    with proc.stderr:
        # wait4 reads the child's own peak, which getrusage(RUSAGE_CHILDREN) would
        # mix with that of every other child this process has reaped
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # so Popen does not reap it again
        assert proc.returncode == 0, proc.stderr.read()
    assert (work / "trajectory.csv").stat().st_size > 0
    return usage.ru_maxrss


def test_peak_memory_grows_by_at_most_40_bytes_per_step(tmp_path):
    short, long = 20_000, 120_000
    growth = (_peak_kb(tmp_path, long) - _peak_kb(tmp_path, short)) * 1024 / (long - short)
    assert growth <= 40.0, f"{growth:.1f} bytes per step"
