"""The forked worker's error messages when it sends no exception of its own,
and calls made inside a half."""

import os
import re
import signal

import pytest

from botfuse.forking import in_two_halves
from fork_checks import assert_no_child_left, counted_forks


def _refused(produce, message):
    with pytest.MonkeyPatch.context() as mp:
        counted_forks(mp)
        with pytest.raises(RuntimeError, match=re.escape(message) + "$"):
            in_two_halves(produce, 5, "number")
    assert_no_child_left()


def test_a_killed_worker_keeps_the_exit_code_message():
    parent = os.getpid()

    def produce(ids):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return list(ids)

    _refused(produce, "number worker exited with code -9 after sending 0 of its 3 numbers")


def test_a_short_stream_is_refused():
    parent = os.getpid()

    def produce(ids):
        return list(ids) if os.getpid() == parent else list(ids)[:-1]

    _refused(produce, "number worker exited with code 0 after sending 2 of its 3 numbers")


def test_a_call_inside_either_half_runs_in_process():
    def inner(ids):
        return [(i, in_two_halves(list, 4, "digit")) for i in ids]

    with pytest.MonkeyPatch.context() as mp:
        forks = counted_forks(mp)
        nested = in_two_halves(inner, 5, "number")
    assert forks == [os.getpid()]
    assert nested == [(i, [0, 1, 2, 3]) for i in range(5)]
    assert_no_child_left()
