"""`_child.Shared` on trivial work: who takes which index, and what is left behind."""

import os
import pickle
import time

import pytest

from gupmech import _child


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

