"""Helpers for tests of the forked halves of ``fit``, ``detect`` and ``kfold_cv``."""

import os
import tempfile

import pytest


def in_process_only(mp: pytest.MonkeyPatch) -> None:
    """One CPU in the affinity mask, and a fork that fails the test."""
    def fork():
        raise AssertionError("forked with one CPU")

    mp.setattr(os, "sched_getaffinity", lambda pid: {0})
    mp.setattr(os, "fork", fork)


class ForkLog:
    """The pids of the processes that forked, in order, read back as a list.

    Every process appends to one unlinked file it shares with the others, so
    a fork made inside a forked worker is counted too.
    """

    def __init__(self):
        with tempfile.NamedTemporaryFile() as tmp:
            self._fd = os.open(tmp.name, os.O_RDWR | os.O_APPEND)

    def __del__(self):
        os.close(self._fd)

    def append(self, pid: int) -> None:
        os.write(self._fd, f"{pid}\n".encode())

    def _pids(self) -> list[int]:
        text = os.pread(self._fd, os.fstat(self._fd).st_size, 0).decode()
        return [int(line) for line in text.split()]

    def __len__(self):
        return len(self._pids())

    def __eq__(self, other):
        return self._pids() == other

    def __repr__(self):
        return f"ForkLog({self._pids()})"


def counted_forks(mp: pytest.MonkeyPatch) -> ForkLog:
    """Two CPUs in the affinity mask; each fork, made in any process, is
    logged under the pid that made it."""
    forks, real_fork = ForkLog(), os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    mp.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
