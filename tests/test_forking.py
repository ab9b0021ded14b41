"""The forked worker's error messages when it sends no exception of its own,
and calls made inside a half."""

import os
import re
import signal

import pytest

from botfuse.forking import in_two_halves
from fork_checks import assert_no_child_left, counted_forks


def _refused(make, message):
    with pytest.MonkeyPatch.context() as mp:
        counted_forks(mp)
        with pytest.raises(RuntimeError, match=re.escape(message) + "$"):
            in_two_halves(make, 5, "number")
    assert_no_child_left()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_items_come_back_in_order(n):
    with pytest.MonkeyPatch.context() as mp:
        forks = counted_forks(mp)
        squares = in_two_halves(lambda i: i * i, n, "square")
    assert squares == [i * i for i in range(n)]
    assert len(forks) == (n >= 2)
    assert_no_child_left()


def test_a_killed_worker_keeps_the_exit_code_message():
    parent = os.getpid()

    def make(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    _refused(make, "number worker exited with code -9 after sending 0 of its 3 numbers")


def test_a_short_stream_is_refused():
    parent = os.getpid()

    def make(i):
        if os.getpid() != parent and i == 4:
            os._exit(0)  # before the worker sends anything
        return i

    _refused(make, "number worker exited with code 0 after sending 0 of its 3 numbers")


def test_a_call_inside_either_half_runs_in_process():
    def inner(i):
        return i, in_two_halves(lambda j: j, 4, "digit")

    with pytest.MonkeyPatch.context() as mp:
        forks = counted_forks(mp)
        nested = in_two_halves(inner, 5, "number")
    assert forks == [os.getpid()]
    assert nested == [(i, [0, 1, 2, 3]) for i in range(5)]
    assert_no_child_left()
