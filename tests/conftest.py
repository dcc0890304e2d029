"""Fixtures shared by the tests of the code that forks a child alongside itself."""

import os

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the code see two allowed CPUs, whatever the host allows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


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
