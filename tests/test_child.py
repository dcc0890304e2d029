"""`_child.Shared` on trivial work: who takes which index, where each runs, what is left behind."""

import errno
import os
import pickle
import time

import pytest

from gupmech import _child

# this process's CPU mask as the kernel has it, read past the two_cpus fixture's fake
_real_cpus = getattr(os, "sched_getaffinity", None)

two_real_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or _real_cpus is None or len(_real_cpus(0)) < 2,
    reason="needs two allowed CPUs")


@pytest.fixture(autouse=True)
def _no_child_left(descriptors_kept):
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _both_take(tmp_path):
    """work(index) = index squared, where each process's first index waits
    until the other process has taken one, so both take at least one."""
    here = os.getpid()

    def wait(path):
        deadline = time.monotonic() + 60
        while not path.exists():
            assert time.monotonic() < deadline, f"no {path.name}"
            time.sleep(0.001)

    def work(index):
        mine, other = ("here", "there") if os.getpid() == here else ("there", "here")
        first = not (tmp_path / mine).exists()
        (tmp_path / mine).touch()
        if first:
            wait(tmp_path / other)
        return index * index

    return work


def test_each_queued_index_is_in_one_of_the_two(tmp_path, forks):
    work = _both_take(tmp_path)
    shared = _child.Shared(work, 4)
    assert shared.put(40) == 36  # numbered on from the indices queued before the fork
    mine, theirs = shared.finish(work)
    assert len(forks) == 1 and mine and theirs
    assert not mine.keys() & theirs.keys()
    assert {**mine, **theirs} == {i: i * i for i in range(40)}


def test_an_index_whose_work_raised_is_in_neither(tmp_path, forks):
    # each process's first index raises, after both have taken one
    both, firsts = _both_take(tmp_path), tmp_path / "firsts"

    def work(index):
        value = both(index)
        marked = tmp_path / f"raised-{os.getpid()}"
        if marked.exists():
            return value
        marked.touch()
        with open(firsts, "a") as handle:
            handle.write(f"{index}\n")
        raise ValueError(f"index {index} has no value")

    mine, theirs = _child.Shared(work, 30).finish(work)
    raised = {int(k) for k in firsts.read_text().split()}
    assert len(forks) == 1 and len(raised) == 2
    assert not mine.keys() & theirs.keys()
    assert {**mine, **theirs} == {i: i * i for i in range(30) if i not in raised}


def test_a_failed_child_delivers_nothing(tmp_path, monkeypatch, forks):
    # the child's values cannot be pickled, so it exits 1
    here, dump = os.getpid(), pickle.dump

    def dump_here_only(*args, **kwargs):
        if os.getpid() != here:
            raise pickle.PicklingError("the child's values cannot be sent")
        return dump(*args, **kwargs)

    monkeypatch.setattr(pickle, "dump", dump_here_only)
    work = _both_take(tmp_path)
    mine, theirs = _child.Shared(work, 20).finish(work)
    assert len(forks) == 1 and theirs == {}
    assert 0 < len(mine) < 20 and mine == {i: i * i for i in mine}


def test_an_interrupt_kills_and_reaps_the_child(tmp_path, forks):
    both, here = _both_take(tmp_path), os.getpid()

    def work(index):
        both(index)
        if os.getpid() != here:
            time.sleep(60)
        raise KeyboardInterrupt

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _child.Shared(work, 2).finish(work)
    assert len(forks) == 1 and time.monotonic() - started < 30


@two_real_cpus
def test_the_child_and_this_process_run_on_disjoint_cpus(tmp_path):
    # each value is the CPU mask of the process that ran the index, read mid-work
    start, both = _real_cpus(0), _both_take(tmp_path)

    def work(index):
        both(index)
        return os.sched_getaffinity(0)

    mine, theirs = _child.Shared(work, 8).finish(work)
    assert mine and theirs
    assert all(cpus == {min(start)} for cpus in mine.values())
    assert all(cpus == start - {min(start)} for cpus in theirs.values())
    assert set().union(*mine.values()).isdisjoint(set().union(*theirs.values()))
    assert _real_cpus(0) == start


@two_real_cpus
def test_closing_an_unjoined_child_puts_back_this_process_s_cpus():
    start = _real_cpus(0)
    shared = _child.Shared(lambda index: time.sleep(60), 1)
    assert _real_cpus(0) == {min(start)}
    shared.close()
    assert _real_cpus(0) == start


@two_real_cpus
def test_a_raising_work_here_puts_back_this_process_s_cpus():
    start, here = _real_cpus(0), os.getpid()

    def work(index):
        if os.getpid() == here:
            raise KeyboardInterrupt
        time.sleep(60)

    with pytest.raises(KeyboardInterrupt):
        _child.Shared(work, 2).finish(work)
    assert _real_cpus(0) == start


def _returned_here_only(tmp_path, make):
    """make(), marking each process that comes back from it or raises out of it.

    Only this process should: a child that got here would run this test's
    code, so it marks itself and leaves at once.
    """
    here = os.getpid()
    try:
        return make()
    finally:
        (tmp_path / f"returned-{os.getpid()}").touch()
        if os.getpid() != here:
            os._exit(1)


def test_a_refused_pin_changes_nothing(tmp_path, monkeypatch, forks):
    # both processes' pins and the putting back are refused, as on a host
    # that does not allow the CPU asked for
    pins, here = tmp_path / "pins", os.getpid()
    start = _real_cpus(0) if _real_cpus else None

    def refused(pid, cpus):
        with open(pins, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        raise OSError(errno.EINVAL, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    work = _both_take(tmp_path)
    shared = _returned_here_only(tmp_path, lambda: _child.Shared(work, 20))
    mine, theirs = shared.finish(work)
    assert len(forks) == 1 and mine and theirs
    assert {**mine, **theirs} == {i: i * i for i in range(20)}
    pids = pins.read_text().split()
    assert pids.count(str(here)) == 2 and len(set(pids)) == 2  # pin and put back; the child's
    assert [p.name for p in tmp_path.glob("returned-*")] == [f"returned-{here}"]
    assert (_real_cpus(0) if _real_cpus else None) == start


def test_a_child_whose_pin_raises_leaves_without_returning(tmp_path, monkeypatch, forks):
    # the child's pin raises past its OSError guard, so it takes no index and exits 1
    here, pin = os.getpid(), getattr(os, "sched_setaffinity", None)

    def pin_here_only(pid, cpus):
        if os.getpid() != here:
            raise RuntimeError("the child's pin failed")
        if pin is not None:
            pin(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", pin_here_only, raising=False)
    shared = _returned_here_only(tmp_path, lambda: _child.Shared(lambda index: index * index, 20))
    mine, theirs = shared.finish(lambda index: index * index)
    assert len(forks) == 1 and theirs == {}
    assert mine == {i: i * i for i in range(20)}
    assert [p.name for p in tmp_path.glob("returned-*")] == [f"returned-{here}"]
