"""Every check row's seed-42 measurement, pinned bit for bit, and the two-process runner."""

import errno
import functools
import importlib.util
import json
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gupmech import _child, dynamics, frames, legendre
from gupmech.checks import _SUITES, CheckResult, _rk4_order_errors, _row, run_suite

# float.hex of each row's `measured` at seed 42, recorded while algebra
# probes were built through the validating PhaseState constructor and the
# 1D RK4 loop called its square and radius helpers on every stage, and
# dynamics.rk4-order compared dt = 8e-3, 4e-3 and 2e-3 with one shared
# reference at 2.5e-4, and the constants rows ran on 90-digit decimal,
# with every short reduction summed left to right on floats and the
# covariance line fitted from centred sums, so no BLAS kernel sets a bit,
# and the 3D representation row extrapolated from steps h and h/2.
# Rows near round-off, such as the residuals of exact identities, move
# with any reordering of arithmetic, so a change that keeps these pins
# keeps every output bit.
_PINNED_ROWS = {
    "algebra.bracket-1d-representation": "0x1.91abf17c8d19fp-37",
    "algebra.bracket-3d-representation": "0x1.19ef8574adf9ep-36",
    "algebra.vanishing-brackets": "0x0.0p+0",
    "algebra.beta-zero-bound": "0x1.7b4f5bf34749ap-2",
    "algebra.beta-zero-halving": "0x1.aff398007ae00p-5",
    "algebra.antisymmetry": "0x0.0p+0",
    "algebra.leibniz": "0x1.d1a4000000000p-34",
    "algebra.monotonicity-1d": "0x0.0p+0",
    "algebra.jacobi-residual": "0x1.6c6df39400000p-23",
    "dynamics.model-agreement-bound": "0x1.95d434c8fbf36p-3",
    "dynamics.model-agreement-halving": "0x1.918a467a75cc0p-6",
    "dynamics.effective-sqrt-consistency": "0x1.0cb2977fce66bp-1",
    "dynamics.rhs-fd-agreement": "0x1.014e2a598e89ep-29",
    "dynamics.rk4-order": "0x1.c98208292fa00p-10",
    "dynamics.relativistic-coefficient": "0x0.0p+0",
    "legendre.inversion-roundtrip": "0x1.eeac44a7eab55p-37",
    "legendre.first-order-gap-bound": "0x1.077034855d749p-1",
    "legendre.first-order-gap-halving": "0x1.4c00dad258644p-3",
    "legendre.sign-structure": "0x0.0p+0",
    "legendre.action-additivity": "0x1.0000000000000p-54",
    "legendre.action-interval-link": "0x1.cba4ded7d1d11p-50",
    "frames.interval-invariance": "0x1.05012fbca9ffbp-50",
    "frames.first-order-convergence": "0x1.85367363289c0p-5",
    "frames.group-structure": "0x1.cb5a47aff370ap-52",
    "frames.lorentz-invariance": "0x1.cd2a6413538c0p-48",
    "frames.no-speed-limit": "0x1.0000000000000p-52",
    "frames.covariance-exact": "0x1.4400000000000p-46",
    "frames.covariance-control": "0x1.600f4b93064c4p-11",
    "constants.published-magnitudes": "0x1.6271eed1c3470p-3",
    "constants.mass-independence": "0x0.0p+0",
    "constants.extended-consistency": "0x0.0p+0",
    "constants.superluminal-shift": "0x0.0p+0",
    "constants.closed-vs-exact": "0x1.dadd8c9c7b329p-57",
}


@functools.lru_cache(maxsize=None)
def _measured():
    return {row.name: row.measured for row in run_suite("all", seed=42)}


def test_every_row_is_pinned():
    assert sorted(_measured()) == sorted(_PINNED_ROWS)


@pytest.mark.parametrize("name", sorted(_PINNED_ROWS))
def test_seed_42_measurement_is_pinned(name):
    assert _measured()[name].hex() == _PINNED_ROWS[name]


def test_the_3d_representation_row_passes_seeds_0_to_99():
    # with one step h it failed on 23 of these seeds, 0, 2 and 8 among them
    name = "algebra.bracket-3d-representation"
    fn = dict(_SUITES["algebra"])[name]
    margins = [measured / tolerance for measured, tolerance, _ in
               (_row(seed, name, fn) for seed in range(100))]
    assert [seed for seed, margin in enumerate(margins) if not margin <= 1.0] == []


def test_rk4_order_measures_truncation_not_round_off():
    errors = _rk4_order_errors()
    assert all(error > 1e-13 for error in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(16.0, abs=0.5)


def _allow_cpus(monkeypatch, count):
    allowed = set(range(count))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed, raising=False)


def test_suite_step_count(monkeypatch):
    # A cost guard without timing: rk4-order takes 4,875 RK4 steps (125 +
    # 250 + 500 and a 4,000-step reference), the other rows 4,000.  On one
    # CPU every row runs here, where the steps are counted.
    _allow_cpus(monkeypatch, 1)
    steps = []
    integrate = dynamics.integrate

    def counted(*args, **kwargs):
        trajectory = integrate(*args, **kwargs)
        steps.append(len(trajectory) - 1)
        return trajectory

    for module in (dynamics, frames):
        monkeypatch.setattr(module, "integrate", counted)
    run_suite("all")
    assert sum(steps) == 8875


def _nan_on_call(function, call):
    """function, except that its call-th call returns NaN in every value."""
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        result = function(*args, **kwargs)
        return np.multiply(result, math.nan) if len(calls) == call else result

    return poisoned


@pytest.mark.parametrize("module, function, suite, row", [
    (dynamics, "hamilton_rhs_fd", "dynamics", "dynamics.rhs-fd-agreement"),
    (legendre, "momentum_from_velocity_exact", "legendre", "legendre.inversion-roundtrip"),
], ids=["rhs-fd-agreement", "inversion-roundtrip"])
@pytest.mark.parametrize("cpus", (1, 2), ids=["one-cpu", "two-cpus"])
def test_a_nan_sample_fails_its_row(request, monkeypatch, module, function, suite, row, cpus):
    # the calls are counted per process, and the row is the first of its
    # suite to call the function in whichever process runs it
    if cpus == 1:
        _allow_cpus(monkeypatch, 1)
    else:
        request.getfixturevalue("two_cpus")
    monkeypatch.setattr(module, function, _nan_on_call(getattr(module, function), 50))
    result = {r.name: r for r in run_suite(suite)}[row]
    assert math.isnan(result.measured) and not result.passed


def _rows(results):
    """Everything a report prints of each row, measured values as float.hex."""
    return [(r.name, r.measured.hex(), r.tolerance.hex(), r.passed, r.detail) for r in results]


def _child_marks(tmp_path, here):
    """(mark, wait, path): the child marks each row it takes in the file at path;
    wait returns once the file exists."""
    path = tmp_path / "child-rows"

    def mark(index):
        if os.getpid() != here:
            with open(path, "a") as handle:
                handle.write(f"{index}\n")

    def wait():
        deadline = time.monotonic() + 60
        while not path.exists():
            assert time.monotonic() < deadline, "the child took no row"
            time.sleep(0.001)

    return mark, wait, path


# Run in a fresh interpreter, where no test has loaded numpy.random yet: two
# CPUs allowed, and each fork call records whether numpy.random was loaded.
_IMPORTS_AT_FORK = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
fork, at_fork = os.fork, []

def recorded():
    at_fork.append("numpy.random" in sys.modules)
    return fork()

os.fork = recorded
import gupmech.cli
at_import = "numpy.random" in sys.modules
status = gupmech.cli.main(["check", "--suite", "algebra"])
print(status, at_import, at_fork)
"""


def test_the_child_inherits_the_rows_generator_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run([sys.executable, "-c", _IMPORTS_AT_FORK], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # start-up leaves numpy.random unloaded; the one fork finds it loaded
    assert result.stdout.splitlines()[-1] == "0 False [True]"


# Run in a fresh interpreter with stdout piped, so it is block-buffered:
# text printed before the fork and still unflushed would show twice if the
# child flushed it on its way out.
_PRINTS_AROUND_THE_FORK = """
import os
os.sched_getaffinity = lambda pid: {0, 1}
from gupmech.checks import run_suite
print("before")
print("after", len(run_suite("frames")))
"""


def test_the_check_child_flushes_no_inherited_buffer():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    done = subprocess.run([sys.executable, "-c", _PRINTS_AROUND_THE_FORK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "before\nafter 7\n", "")


class TestTwoProcessRunner:
    """run_suite shares its rows with one forked child and returns the rows of one process."""

    @pytest.fixture(autouse=True)
    def _no_child_left(self, descriptors_kept):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("suite, seed", [("all", 0), ("all", 42)]
                             + [(name, 42) for name in _SUITES])
    def test_two_processes_give_the_rows_of_one(self, monkeypatch, forks, suite, seed):
        shared = run_suite(suite, seed=seed)
        assert len(forks) == 1
        _allow_cpus(monkeypatch, 1)
        assert _rows(shared) == _rows(run_suite(suite, seed=seed))
        assert len(forks) == 1

    def test_a_single_row_forks_nothing(self, monkeypatch, forks):
        monkeypatch.setitem(_SUITES, "frames", _SUITES["frames"][:1])
        assert [r.name for r in run_suite("frames")] == ["frames.interval-invariance"]
        assert forks == []

    # the call refused, the calls of it that go through first, and its error
    @pytest.mark.parametrize("name, passed, error", [
        ("fork", 0, BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
        ("pipe", 0, OSError(errno.EMFILE, "Too many open files")),
        ("pipe", 1, OSError(errno.EMFILE, "Too many open files")),
    ], ids=["EAGAIN", "EMFILE-queue", "EMFILE-child-value"])
    def test_a_failed_fork_runs_every_row_here(self, monkeypatch, two_cpus, name, passed, error):
        attempts, call = [], getattr(os, name)

        def no_fork():
            attempts.append(os.getpid())
            if len(attempts) > passed:
                raise error
            return call()

        monkeypatch.setattr(os, name, no_fork)
        rows = _rows(run_suite("legendre"))
        assert len(attempts) == passed + 1
        _allow_cpus(monkeypatch, 1)
        assert rows == _rows(run_suite("legendre"))
        assert len(attempts) == passed + 1

    def test_300_rows_each_run_once(self, tmp_path, monkeypatch, forks):
        # indices wider than a byte: a one-byte queue would run rows 256-299 as rows 0-43
        here = os.getpid()
        mark, wait, child_rows = _child_marks(tmp_path, here)
        log = tmp_path / "rows-run"

        def row(rng, index):
            mark(index)
            if os.getpid() == here:
                wait()  # so the child takes rows as well
            with open(log, "a") as handle:
                handle.write(f"{index}\n")
            return index + float(rng.random()), 1e9, f"row {index}"

        monkeypatch.setitem(_SUITES, "frames", [
            (f"trivial-{i}", functools.partial(row, index=i)) for i in range(300)])
        shared = run_suite("frames")
        assert len(forks) == 1 and child_rows.exists()
        assert sorted(map(int, log.read_text().split())) == list(range(300))
        _allow_cpus(monkeypatch, 1)
        assert _rows(shared) == _rows(run_suite("frames"))
        assert [r.name for r in shared] == [f"trivial-{i}" for i in range(300)]

    @pytest.mark.parametrize("count", (40_000, 70_000), ids=["past-the-pipe", "past-2-bytes"])
    def test_rows_past_a_full_queue_run_here(self, monkeypatch, forks, count):
        # 160,000 bytes of indices do not fit a 64 KiB pipe, and 70,000 rows
        # do not fit 2-byte indices.  The rows take no generator, which would
        # cost more than the rest of the run.
        put, queued = _child.Shared.put, []

        def counted(shared, count):
            queued.append(put(shared, count))
            return queued[-1]

        monkeypatch.setattr(_child.Shared, "put", counted)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: None)
        monkeypatch.setitem(_SUITES, "frames", [
            (f"trivial-{i}", functools.partial(lambda rng, i: (i, 1.0, ""), i=i))
            for i in range(count)])
        assert [r.measured for r in run_suite("frames")] == list(range(count))
        assert len(forks) == 1 and 0 < queued[0] < count

    def test_a_row_raising_only_in_the_child_is_run_again_here(self, tmp_path, monkeypatch,
                                                               forks):
        here = os.getpid()
        mark, wait, child_rows = _child_marks(tmp_path, here)

        def failing_in_the_child(index, fn):
            def row(rng):
                mark(index)
                if os.getpid() != here:
                    raise RuntimeError(f"row {index} failed in the child")
                wait()
                return fn(rng)
            return row

        expected = _rows(run_suite("legendre"))
        monkeypatch.setitem(_SUITES, "legendre", [
            (name, failing_in_the_child(i, fn)) for i, (name, fn) in enumerate(_SUITES["legendre"])])
        assert _rows(run_suite("legendre")) == expected
        assert len(forks) == 2 and child_rows.read_text()

    def test_rows_the_child_never_delivers_run_again_here(self, tmp_path, monkeypatch, two_cpus,
                                                          forks):
        # the child's rows cannot be pickled, so it exits 1 with none delivered
        _allow_cpus(monkeypatch, 1)
        expected = _rows(run_suite("legendre"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: two_cpus, raising=False)
        here = os.getpid()
        mark, wait, child_rows = _child_marks(tmp_path, here)
        dump = pickle.dump

        def dump_here_only(*args, **kwargs):
            if os.getpid() != here:
                raise pickle.PicklingError("the child's rows cannot be sent")
            return dump(*args, **kwargs)

        def held_until_the_child_takes_one(index, fn):
            def row(rng):
                mark(index)
                if os.getpid() == here:
                    wait()
                return fn(rng)
            return row

        monkeypatch.setattr(pickle, "dump", dump_here_only)
        monkeypatch.setitem(_SUITES, "legendre", [
            (name, held_until_the_child_takes_one(i, fn))
            for i, (name, fn) in enumerate(_SUITES["legendre"])])
        assert _rows(run_suite("legendre")) == expected
        assert len(forks) == 1 and child_rows.read_text()

    def test_a_row_raising_in_both_raises_as_in_one_process(self, monkeypatch, forks):
        def row(rng, index):
            time.sleep(0.002)  # long enough that both processes take rows
            if index in (3, 7):
                raise ValueError(f"row {index} has no value")
            return float(rng.random()), 1.0, "trivial"

        monkeypatch.setitem(_SUITES, "frames", [
            (f"trivial-{i}", functools.partial(row, index=i)) for i in range(12)])
        with pytest.raises(ValueError, match=r"^row 3 has no value$"):
            run_suite("frames")
        assert len(forks) == 1
        _allow_cpus(monkeypatch, 1)
        with pytest.raises(ValueError, match=r"^row 3 has no value$"):
            run_suite("frames")

    def test_an_interrupt_kills_and_reaps_the_child(self, tmp_path, monkeypatch, forks):
        here = os.getpid()
        mark, wait, _ = _child_marks(tmp_path, here)

        def row(rng, index):
            mark(index)
            if os.getpid() != here:
                time.sleep(60)
            wait()
            raise KeyboardInterrupt

        monkeypatch.setitem(_SUITES, "frames", [
            (f"held-{i}", functools.partial(row, index=i)) for i in range(2)])
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_suite("frames")
        assert len(forks) == 1 and time.monotonic() - started < 30


@pytest.mark.parametrize("measured, status", [(0.5, 0), (2.0, 1), (math.nan, 1)],
                         ids=["passing", "failing", "nan"])
def test_the_seed_sweep_exits_1_on_a_failing_row(monkeypatch, capsys, measured, status):
    spec = importlib.util.spec_from_file_location(
        "seed_sweep", Path(__file__).resolve().parents[1] / "tools" / "seed_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)

    def one_row(suite, seed):  # seed 0 passes, seed 1 measures `measured`
        value = measured if seed else 0.5
        return [CheckResult("trivial", value, 1.0, value <= 1.0, "")]

    monkeypatch.setattr(sweep, "SEEDS", range(2))
    monkeypatch.setattr(sweep, "run_suite", one_row)
    assert sweep.main() == status
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failing_seeds"] == [1] * status
