"""Independent items made on two CPUs by one forked worker.

``in_two_halves(make, n, what)`` returns ``[make(i) for i in range(n)]``.
Where the process may run on two CPUs it forks once: this process makes
items ``[0, n // 2)`` while the child makes the rest and sends each item
back through a pipe as its own pickle. ``extra_trees.fit`` grows its trees
this way, ``fusion_pipeline.detect`` scores its windows and
``metrics.kfold_cv`` scores its folds; ``_forked`` is the package's one call
to fork. A call made inside either half of another runs in-process, so a
forest grown inside a fold never forks a second time.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable
from dataclasses import dataclass

# True while this process, or the child forked from it, makes one half. A
# nested call, such as the fit of a forest inside a cross-validation fold,
# cannot tell from its arguments that it already shares the CPUs.
_inside_half = False


def _two_cpus() -> bool:
    """Whether this process may fork and run on at least two CPUs. The
    affinity mask, not ``os.cpu_count()``, which counts the host's CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


@dataclass(frozen=True)
class _Failure:
    """What the child sends in place of the rest of its items when it raises."""

    message: str


def in_two_halves(
    make: Callable[[int], object],
    n: int,
    what: str,
    adopt: Callable = lambda item: item,
) -> list:
    """``[make(i) for i in range(n)]``, with items ``n // 2..n`` made in a
    forked child when there are at least two items and two CPUs, and this
    call is not made inside either half of another.

    ``make(i)`` makes item i, independent of the others. The child makes its
    whole half before writing, so a full pipe never stalls its work, and this
    process reads the child's items, passing each through ``adopt``, once its
    own half is done.
    The child inherits the parent's memory copy-on-write and leaves only
    through ``os._exit``, flushing none of the parent's buffers.
    Where BLAS runs threads of its own, both processes' pools share the two
    CPUs, and a forked ``detect`` measured no faster than one in-process.

    A child that fails or a stream that ends early raises RuntimeError naming
    the ``what`` worker, with the child's exception when it could send it.
    The child is reaped on every path, and killed first if this process
    fails.
    """
    global _inside_half
    if n < 2 or _inside_half or not _two_cpus():
        return [make(i) for i in range(n)]
    _inside_half = True
    try:
        return _forked(make, n, what, adopt)
    finally:
        _inside_half = False


def _forked(make: Callable[[int], object], n: int, what: str, adopt: Callable) -> list:
    half = n // 2
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                try:
                    for item in [make(i) for i in range(half, n)]:
                        pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                    status = 0
                except BaseException as exc:
                    failure = _Failure(f"{type(exc).__name__}: {exc}")
                    pickle.dump(failure, out, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(status)
    os.close(write_fd)
    failure = None
    try:
        with open(read_fd, "rb") as stream:
            items = [make(i) for i in range(half)]
            try:
                for _ in range(half, n):
                    item = pickle.load(stream)
                    if isinstance(item, _Failure):
                        failure = item.message
                        break
                    items.append(adopt(item))
            except (EOFError, pickle.UnpicklingError):
                pass  # the child's exit status says why
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or len(items) != n:
        message = (f"{what} worker exited with code {code} after sending "
                   f"{len(items) - half} of its {n - half} {what}s")
        raise RuntimeError(message if failure is None else f"{message}: {failure}")
    return items
