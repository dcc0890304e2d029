"""Every check row's seed-42 measurement, pinned bit for bit, the sampler the rows draw from,
and the runner of seeds and rows."""

import ast
import errno
import functools
import hashlib
import inspect
import math
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gupmech import _child, _rng, checks, dynamics, frames, legendre
from gupmech.algebra import _square
from gupmech.checks import _SUITES, _draw, _rk4_order_errors, _row, _states, run_seeds, run_suite

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
               (_row(seed, name, fn, True) for seed in range(100))]
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


def test_a_sign_error_in_the_relativistic_coefficient_fails_its_row(monkeypatch):
    # flipped, each case's sign disagrees with its side of beta = 3 / (8 m^2 c^2): 1.0
    _allow_cpus(monkeypatch, 1)
    coefficient = dynamics.relativistic_quartic_coefficient
    monkeypatch.setattr(dynamics, "relativistic_quartic_coefficient",
                        lambda kind: -coefficient(kind))
    result = {r.name: r for r in run_suite("dynamics")}["dynamics.relativistic-coefficient"]
    assert result.measured == 1.0 and not result.passed


def _nan_on_call(function, call):
    """function, except that its call-th call returns NaN in every value."""
    calls = []

    def poisoned(*args, **kwargs):
        calls.append(None)
        result = function(*args, **kwargs)
        return np.multiply(result, math.nan) if len(calls) == call else result

    return poisoned


@pytest.mark.parametrize("module, function, suite, row", [
    (dynamics, "_rhs_fd", "dynamics", "dynamics.rhs-fd-agreement"),
    (legendre, "momentum_from_velocity_exact", "legendre", "legendre.inversion-roundtrip"),
    (frames, "_euclidean", "frames", "frames.interval-invariance"),
    (frames, "_minkowski", "frames", "frames.lorentz-invariance"),
], ids=["rhs-fd-agreement", "inversion-roundtrip", "interval-invariance", "lorentz-invariance"])
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


def _per_call(rng, count, *ranges):
    """The rows of checks._draw as the rows drew them before it: one rng.uniform call per value."""
    return [[float(rng.uniform(low, high)) for low, high in ranges] for _ in range(count)]


# every ranges tuple a row passes to _draw: the 1D bracket states, the 2-value
# states and 1D events, the 3D events, the 1D Jacobi triples, the 1D suite
# states, the 3D states, the group-structure boosts and event, and the boost
# velocities of the interval and Lorentz rows
_RANGES = [((-13.0, 13.0), (-2.0, 2.0)), ((-2.0, 2.0),) * 2, ((-2.0, 2.0),) * 4,
           ((-2.0, 2.0), (-8.0, 8.0), (-1.0, 1.0), (-1.0, 1.0)), ((-0.85, 0.85), (-2.0, 2.0)),
           ((-2.0, 2.0),) * 3 + ((-1.0, 1.0),) * 3 + ((0.1, 1.0),),
           ((-0.8, 0.8),) * 3 + ((-2.0, 2.0),) * 2, ((-10.0, 10.0),), ((-0.95, 0.95),)]


def test_the_ranges_cover_every_draw_of_the_rows(monkeypatch):
    _allow_cpus(monkeypatch, 1)
    seen, draw = set(), checks._draw

    def recorded(rng, count, *ranges):
        seen.add(ranges)
        return draw(rng, count, *ranges)

    monkeypatch.setattr(checks, "_draw", recorded)
    run_suite("all")
    assert sorted(seen) == sorted(_RANGES)


@pytest.mark.parametrize("ranges", _RANGES, ids=lambda ranges: "-".join(
    f"{low:g}:{high:g}" for low, high in ranges))
@pytest.mark.parametrize("count", (1, 100))
@pytest.mark.parametrize("seed", (0, 1, 42, 2 ** 40 + 7))
def test_one_draw_gives_the_per_call_values(ranges, count, seed):
    # low + (high - low) * u must round as rng.uniform does, with no fused multiply-add
    one, per_call = _rng.Generator([seed]), np.random.default_rng(seed)
    got = _draw(one, count, *ranges)
    want = _per_call(per_call, count, *ranges)
    assert [[c.hex() for c in row] for row in got] == [[c.hex() for c in row] for row in want]
    # both took the same number of values, so the draws that follow agree too
    assert one.random(1)[0].hex() == per_call.random().hex()


def _per_call_states(rng, count, beta, fill=0.9):
    """The 3D states of checks._states as the rows drew them before it: one rng.uniform call
    per 3-vector and one for the scale."""
    states = []
    for _ in range(count):
        x = rng.uniform(-2.0, 2.0, size=3)
        p = rng.uniform(-1.0, 1.0, size=3)
        p *= math.sqrt(fill * rng.uniform(0.1, 1.0) / beta) / math.sqrt(_square(p.tolist()))
        states.append((x.tolist(), p.tolist()))
    return states


# the beta and fill of each 3D use
_DRAWS = [{"beta": 0.01, "fill": 0.5}, {"beta": 0.001, "fill": 0.8}, {"beta": 0.01, "fill": 0.9}]


@pytest.mark.parametrize("draw", _DRAWS, ids=lambda draw: "-".join(f"{k}-{v:.4g}"
                                                                   for k, v in draw.items()))
@pytest.mark.parametrize("count", (1, 100))
@pytest.mark.parametrize("seed", (0, 1, 42, 2 ** 40 + 7))
def test_one_draw_per_row_gives_the_per_call_states(draw, count, seed):
    one, per_call = _rng.Generator([seed]), np.random.default_rng(seed)
    got = _states(one, count, **draw)
    want = _per_call_states(per_call, count, **draw)
    assert ([[c.hex() for c in part] for state in got for part in state]
            == [[c.hex() for c in part] for state in want for part in state])
    # both took the same number of values, so the draws that follow agree too
    assert one.random(1)[0].hex() == per_call.random().hex()


def test_the_rows_draw_only_through_draw_and_the_jacobi_axes():
    # numpy's bounded integers read the stream in their own way, so the 3D
    # Jacobi half draws its states one at a time between its axis indices
    tree = ast.parse(Path(checks.__file__).read_text(encoding="utf-8"))
    calls = {(function.name, node.func.attr) for function in ast.walk(tree)
             if isinstance(function, ast.FunctionDef) for node in ast.walk(function)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "rng"}
    assert calls == {("_draw", "random"), ("_check_jacobi", "integers")}


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


# Run in a fresh interpreter with two CPUs allowed: each fork call records which
# of numpy.random and the secrets and _hashlib it imports are loaded, the child
# writes the same just before it leaves, and the CLI process after its report.
_IMPORTS_AROUND_THE_FORK = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
fork, leave, at_fork = os.fork, os._exit, []

def loaded():
    return [name for name in ("numpy.random", "secrets", "_hashlib") if name in sys.modules]

def recorded():
    at_fork.append(loaded())
    return fork()

def left(status):
    os.write(1, f"child {loaded()}\\n".encode())
    leave(status)

os.fork, os._exit = recorded, left
import gupmech.cli
status = gupmech.cli.main(["check", "--suite", "all"])
print(status, at_fork, loaded())
"""


def test_check_never_loads_numpy_random_in_either_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run([sys.executable, "-c", _IMPORTS_AROUND_THE_FORK], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    # one fork, and neither process loads them before it, after it or at its end
    assert lines[-1] == "0 [[]] []"
    assert lines.count("child []") == 1


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
            return index + rng.random(1)[0], 1e9, f"row {index}"

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
        monkeypatch.setattr(_rng, "Generator", lambda key: None)
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
            @functools.wraps(fn)  # keeps fn's signature, which says whether it takes a generator
            def row(*args):
                mark(index)
                if os.getpid() != here:
                    raise RuntimeError(f"row {index} failed in the child")
                wait()
                return fn(*args)
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
            @functools.wraps(fn)  # keeps fn's signature, which says whether it takes a generator
            def row(*args):
                mark(index)
                if os.getpid() == here:
                    wait()
                return fn(*args)
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
            return rng.random(1)[0], 1.0, "trivial"

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


def test_every_row_takes_a_generator_or_nothing():
    # a row's signature says whether it draws: any other one would be called wrong
    signatures = {name: list(inspect.signature(fn).parameters)
                  for block in _SUITES.values() for name, fn in block}
    assert {name: params for name, params in signatures.items()
            if params not in (["rng"], [])} == {}
    assert sum(1 for params in signatures.values() if not params) == 20


_SEED_FREE = [(name, fn) for block in _SUITES.values() for name, fn in block
              if not inspect.signature(fn).parameters]


@pytest.mark.parametrize("name, fn", _SEED_FREE, ids=[name for name, _ in _SEED_FREE])
def test_a_seed_free_row_has_one_value_on_every_seed(name, fn):
    assert (_row(0, name, fn, False)[0].hex() == _row(42, name, fn, False)[0].hex()
            == _PINNED_ROWS[name])


def test_a_range_gives_each_seeds_own_values(forks):
    # values, not passes: a row failing on one of these seeds shows as failing in both
    by_seed = run_seeds("all", range(5))
    assert len(forks) == 1
    assert [_rows(results) for results in by_seed] == [_rows(run_suite("all", seed=seed))
                                                        for seed in range(5)]


def test_a_seed_free_row_runs_once_in_a_range(monkeypatch):
    _allow_cpus(monkeypatch, 1)
    calls = []

    def drawing(rng):
        calls.append("drawing")
        return rng.random(1)[0], 1.0, ""

    def seed_free():
        calls.append("seed-free")
        return 0.25, 1.0, ""

    monkeypatch.setitem(_SUITES, "frames", [("drawing", drawing), ("seed-free", seed_free)])
    by_seed = run_seeds("frames", range(3, 6))
    assert sorted(calls) == ["drawing"] * 3 + ["seed-free"]
    assert [[r.measured for r in results][1] for results in by_seed] == [0.25] * 3
    assert len({results[0].measured for results in by_seed}) == 3


def test_a_range_reads_each_rows_signature_once(monkeypatch):
    # whether a row takes a generator is decided per row, not per (seed, row) job
    _allow_cpus(monkeypatch, 1)
    reads, signature = [], inspect.signature

    def counted(fn, *args, **kwargs):
        reads.append(fn)
        return signature(fn, *args, **kwargs)

    monkeypatch.setattr(inspect, "signature", counted)
    run_seeds("all", range(3))
    assert len(reads) == 33


# The first 16 hex digits of the SHA-256 of each row's measured values on
# seeds 0-19, as float.hex joined by spaces, recorded before the rows drew
# through checks._draw.  A row that keeps these keeps its bits on every seed
# of the range, not only on seed 42.
_RANGE_PINS = {
    "algebra.bracket-1d-representation": "dbdfd1acfbe545d7",
    "algebra.bracket-3d-representation": "8d752c5cce68cc14",
    "algebra.vanishing-brackets": "60cf612109b72d5a",
    "algebra.beta-zero-bound": "d612b236ff2aaed3",
    "algebra.beta-zero-halving": "23eaeb105c344566",
    "algebra.antisymmetry": "60cf612109b72d5a",
    "algebra.leibniz": "57b15d364884c8bb",
    "algebra.monotonicity-1d": "60cf612109b72d5a",
    "algebra.jacobi-residual": "3bc3ca2bb090046f",
    "dynamics.model-agreement-bound": "f245096b75815178",
    "dynamics.model-agreement-halving": "890118dc010a1cdd",
    "dynamics.effective-sqrt-consistency": "023ad7fef9dca3a6",
    "dynamics.rhs-fd-agreement": "ef38a10e07f52546",
    "dynamics.rk4-order": "541e14dfdd336a3b",
    "dynamics.relativistic-coefficient": "60cf612109b72d5a",
    "legendre.inversion-roundtrip": "2df1d116977769c8",
    "legendre.first-order-gap-bound": "0fea9714c203bdca",
    "legendre.first-order-gap-halving": "8be7da6e415b0b14",
    "legendre.sign-structure": "60cf612109b72d5a",
    "legendre.action-additivity": "5de5c7044a28828e",
    "legendre.action-interval-link": "616335609a29391b",
    "frames.interval-invariance": "b17dc7efdd29c145",
    "frames.first-order-convergence": "3ed1cae7c6052447",
    "frames.group-structure": "b25a7635b49137aa",
    "frames.lorentz-invariance": "d1f562f455cb943c",
    "frames.no-speed-limit": "6638aa0930b7a980",
    "frames.covariance-exact": "3690d08ac1e57077",
    "frames.covariance-control": "67eae9b846faba5c",
    "constants.published-magnitudes": "d1ac1c87d763ef1b",
    "constants.mass-independence": "60cf612109b72d5a",
    "constants.extended-consistency": "60cf612109b72d5a",
    "constants.superluminal-shift": "60cf612109b72d5a",
    "constants.closed-vs-exact": "fa50db62185b7b16",
}


@functools.lru_cache(maxsize=None)
def _range_digests():
    return {column[0].name: hashlib.sha256(
                " ".join(r.measured.hex() for r in column).encode()).hexdigest()[:16]
            for column in zip(*run_seeds("all", range(20)))}


def test_every_row_has_a_range_pin(descriptors_kept):
    assert sorted(_range_digests()) == sorted(_RANGE_PINS)


@pytest.mark.parametrize("name", sorted(_RANGE_PINS))
def test_seeds_0_to_19_are_pinned(name, descriptors_kept):
    assert _range_digests()[name] == _RANGE_PINS[name]
