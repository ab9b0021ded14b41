"""Helpers for tests of the forked half of ``fit`` and ``detect``."""

import os

import pytest


def in_process_only(mp: pytest.MonkeyPatch) -> None:
    """One CPU in the affinity mask, and a fork that fails the test."""
    def fork():
        raise AssertionError("forked with one CPU")

    mp.setattr(os, "sched_getaffinity", lambda pid: {0})
    mp.setattr(os, "fork", fork)


def counted_forks(mp: pytest.MonkeyPatch) -> list:
    """Two CPUs in the affinity mask; each fork is appended to the list."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    mp.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
