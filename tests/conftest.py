"""Fixtures shared by the tests of the code that forks a child alongside itself."""

import errno
import os

import pytest

# this process's CPU mask as the kernel has it, whatever a test fakes
_REAL_AFFINITY = getattr(os, "sched_getaffinity", None)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the code see two allowed CPUs, whatever the host allows; the set it sees.

    A host that allows two or more shows its own.  One that allows one shows
    {0, 1} and refuses every pin, as the kernel refuses a CPU the process may
    not use, so putting back the faked mask can never change the real one.
    """
    cpus = _REAL_AFFINITY(0) if _REAL_AFFINITY else set()
    if len(cpus) < 2:
        cpus = {0, 1}
        if hasattr(os, "sched_setaffinity"):
            def refused(pid, mask):
                raise OSError(errno.EINVAL, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refused)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    return cpus


@pytest.fixture
def forks(monkeypatch, two_cpus):
    """The list of fork calls made, one entry each, counted in the calling process."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def descriptors_kept():
    """Fail the test if it leaves more or fewer file descriptors open than it found.

    They are counted in /proc/self/fd, which is only read, where it exists.
    """
    def count():
        return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None

    before = count()
    yield
    assert count() == before


@pytest.fixture(autouse=True)
def affinity_kept():
    """Fail the test if it leaves this process's real CPU mask changed.

    Every test uses it: the CLI and the check suites fork where two CPUs
    are allowed, and `_child.Shared` pins this process while its child runs.
    """
    before = _REAL_AFFINITY(0) if _REAL_AFFINITY else None
    yield
    assert (_REAL_AFFINITY(0) if _REAL_AFFINITY else None) == before
