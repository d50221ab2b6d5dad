"""The package's concurrency: ReadAhead, its one worker thread, and fork_map.

ReadAhead draws an iterator's items one item ahead on a one-worker
ThreadPoolExecutor: FPL's perturbations and simulate's stream an epoch
ahead, and every other chunk of a multi-chunk predict_batch call.
fork_map runs independent training runs side by side in forked
children: ablate's, grid's and validate-risk's.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import warnings
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from typing import NoReturn

__all__ = ["ReadAhead", "fork_map"]


class ReadAhead:
    """items, drawn one item ahead on a one-worker ThreadPoolExecutor.

    Building it asks for item 1.  Taking item t asks the worker for
    item t + 1, so the worker draws it while the caller uses item t.
    Only the worker advances items.  An exception the worker meets,
    StopIteration once the items run out included, is raised where the
    caller takes that item and at every take after it.  Leaving the
    with block shuts the executor down, joining its thread, whether the
    run returned or raised; an item already asked for is drawn first.
    """

    def __init__(self, items: Iterator):
        self._items = items
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ksetsel-ahead")
        self._drawn = self._pool.submit(next, items)

    def __next__(self):
        item = self._drawn.result()  # a failed draw stays in _drawn, so every later take raises it again
        self._drawn = self._pool.submit(next, self._items)
        return item

    def __enter__(self) -> "ReadAhead":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.shutdown(wait=True)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def _one_thread() -> bool:
    """Whether this process runs one OS thread, a BLAS thread pool included, on Linux.

    Only then is fork safe.  It also keeps children from competing with
    a BLAS pool: a pool of one thread per CPU spins between GEMMs, and on
    a 2-CPU host forked blobs runs under it took 2.8 times as long as
    inline ones.
    """
    try:
        return sys.platform == "linux" and len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc
        return False


# Where warnings raised again from children note what they have shown, so
# the "default" action shows each one once, as it does for a run inline.
_shown_registry: dict = {}


def fork_map(fn: Callable, items: list) -> list:
    """[fn(item) for item in items], with the items spread over forked children.

    It runs inline instead when there is one item or one usable CPU, or
    when fork is not safe: on another live thread in the process (a
    BLAS pool of more than one thread among them), or off Linux.
    Otherwise min(len(items), usable CPUs) children each run every
    so-many item in order.  They share the caller's memory copy-on-write,
    so what fn changes stays in its child, and they send back only fn's
    results, which must pickle.  Warnings are raised again here, in item
    order, and then the first item's exception in item order, with its
    class and message; a child that dies before it sends an item's
    outcome is ChildProcessError for that item.  Every child is reaped
    before this returns or raises; one still running when the caller is
    interrupted is killed.
    """
    items = list(items)
    workers = min(len(items), _usable_cpus()) if len(items) > 1 and _one_thread() else 1
    if workers < 2:
        return [fn(item) for item in items]
    children: list[tuple] = []  # (pid, the pipe read from it, its item indices), until reaped
    outcomes: dict[int, tuple] = {}  # item index -> (result, exception, warnings)
    try:
        for first in range(workers):
            indices = range(first, len(items), workers)
            read_fd, write_fd = os.pipe()
            pipe = os.fdopen(read_fd, "rb")
            # SIGINT waits until the child is on the list, so no interrupt can orphan it.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, items, indices, read_fd, write_fd, mask)
                children.append((pid, pipe, indices))
            except BaseException:
                pipe.close()
                raise
            finally:
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for child in list(children):
            pid, pipe, indices = child
            with pipe:
                while True:
                    try:
                        index, *outcome = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):  # the end, or a child that died mid-write
                        break
                    outcomes[index] = outcome
            status = os.waitpid(pid, 0)[1]
            children.remove(child)
            sent = sum(index in outcomes for index in indices)  # a child sends its items in order
            if sent < len(indices) and (sent == 0 or outcomes[indices[sent - 1]][1] is None):
                died = ChildProcessError(f"forked run {indices[sent] + 1} of {len(items)} {_ending(status)}")
                outcomes[indices[sent]] = (None, died, [])
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = []
    for index in range(len(items)):
        result, exc, shown = outcomes[index]
        for message, category, filename, lineno in shown:
            warnings.warn_explicit(message, category, filename, lineno, registry=_shown_registry)
        if exc is not None:
            raise exc
        results.append(result)
    return results


def _child(fn: Callable, items: list, indices: range, read_fd: int, write_fd: int, mask) -> NoReturn:
    """A forked child's whole life: serve its items, then leave without running the caller's code."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            for index in indices:
                with warnings.catch_warnings(record=True) as caught:
                    try:
                        result, exc = fn(items[index]), None
                    except BaseException as raised:
                        result, exc = None, raised
                shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
                pickle.dump((index, result, exc, shown), pipe)
                pipe.flush()
                if exc is not None:
                    break
        code = 0
    finally:
        os._exit(code)


def _ending(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"died by signal {signal.Signals(-code).name}" if code < 0 else f"exited with code {code} before it finished"
