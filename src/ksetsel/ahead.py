"""The package's concurrency: Helper, the one worker class, and fork_map, and where their workers run.

A Helper is one worker thread that runs the jobs its caller hands it;
a job it has not started when the caller asks for its result runs on
the caller instead, so no caller waits on a worker that has not begun.
helper() is the one way mlp reaches a second thread: it gives
train_epoch one to take half of each batch's w1 work, and predict_batch
one to score every other chunk, unless OS threads Python did not start,
a BLAS pool's among them, run beside it.  ReadAhead is a Helper with
one standing job, next(items): it draws FPL's perturbations and
simulate's stream one item, an epoch, ahead.  fork_map runs
independent training runs side by side in forked children: ablate's,
grid's and validate-risk's.  What a child writes to its in-memory file
is all its parent knows of its items.

Each worker moves once, as it starts, to a usable CPU its caller is
not on, and fork_map's child i to usable CPU i: its affinity is set to
that CPU, then given back, so it is nudged, not pinned.  Where the
kernel does not balance load between CPUs, a new thread or child
starts on its parent's CPU and seldom leaves it.  A child owns its CPU:
the workers it starts stay where they start, it gets no helper, and
its own fork_map runs inline.  With one usable CPU, or without
os.sched_setaffinity, nothing moves and helper() gives none.  Every
gate and placement reads the process's OS threads through _os_threads
and its CPUs through _usable_cpus.

one_blas_thread holds numpy's OpenBLAS at one thread for the span of a
run, so its GEMMs give the same bits whatever OPENBLAS_NUM_THREADS the
caller set: at more threads OpenBLAS may split a large GEMM between
them, which changes its bits.  It reaches the library through the
symbols numpy's scipy-openblas build exports, looked up at the first
run; where they are not found it changes nothing.  A pool the caller
started keeps its threads, so helper() and fork_map still see them.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import pickle
import queue
import signal
import sys
import threading
import time
import warnings
from collections.abc import Callable, Iterator
from typing import BinaryIO, NoReturn

__all__ = ["Helper", "ReadAhead", "fork_map", "helper", "one_blas_thread"]


class Helper:
    """One worker thread that runs the job its caller hands it, in the caller's context, unless the caller takes it back first.

    cpu is where the thread moves as it starts, or None to leave it
    where it starts.  submit(fn, *args) hands over fn(*args), run in a
    copy of the caller's contextvars, so numpy's errstate holds for the
    job as it does for the caller; result() returns its value or raises
    its exception.  One job at a time: each submit is followed by its
    result() before the next.  result() runs a job the worker has not
    started there, on the caller, and the worker skips it: no caller
    waits on a worker that has not begun, so a worker whose CPU is busy
    costs about what doing the job inline does.  One queue each way and
    no futures keep a round trip short, since train_epoch pays one per
    SGD batch: on a ThreadPoolExecutor's futures a split idx epoch took
    about 15% longer.  Leaving the with block lets a job the worker has
    started finish, joins the thread, whether the caller returned or
    raised, and waits (up to 1 s) until /proc/self/task drops it, so no
    later _os_threads counts it.  The thread is a daemon, so one never
    joined cannot keep the interpreter from exiting.
    """

    def __init__(self, cpu: int | None):
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._work, args=(cpu,), name="ksetsel-ahead", daemon=True)
        self._thread.start()

    def _work(self, cpu: int | None) -> None:
        _nudge(cpu)
        for claim, job in iter(self._jobs.get, None):
            if claim.acquire(blocking=False):  # the caller has not taken the job back
                self._done.put(_outcome(job))

    def submit(self, fn: Callable, *args) -> None:
        self._claim = threading.Lock()
        self._job = functools.partial(contextvars.copy_context().run, fn, *args)
        self._jobs.put((self._claim, self._job))

    def result(self):
        value, exc = _outcome(self._job) if self._claim.acquire(blocking=False) else self._done.get()
        if exc is not None:
            raise exc
        return value

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self._jobs.put(None)
        self._thread.join()
        deadline = time.monotonic() + 1.0  # the kernel may list a joined thread a moment longer
        while os.path.exists(f"/proc/self/task/{self._thread.native_id}") and time.monotonic() < deadline:
            time.sleep(0.0001)


def _outcome(job: Callable) -> tuple:
    """(job's value, None), or (None, the exception it raised): how a Helper's worker and a fork_map child capture a job."""
    try:
        return job(), None
    except BaseException as exc:
        return None, exc


def helper() -> Helper | None:
    """A Helper whose thread starts on a usable CPU its caller is not on; None when there is no such CPU, or a BLAS pool may use it.

    A BLAS pool of one thread per CPU already spreads each GEMM over the
    CPUs and spins between GEMMs (see fork_map), so a helper beside it
    would only compete with it: a process gets one only when _os_threads
    counts no more OS threads than Python started.
    """
    cpu = _spare_cpu()
    threads = _os_threads() if cpu is not None else None
    return Helper(cpu) if threads is not None and threads <= threading.active_count() else None


class ReadAhead(Helper):
    """items, drawn one item ahead: a Helper whose one standing job is next(items).

    Building it asks for item 1.  Taking item t asks the worker for
    item t + 1, so the worker draws it while the caller uses item t, or
    the caller does when the worker has not begun (Helper.result): items
    are drawn one at a time, in order.  An exception met drawing an item,
    StopIteration once the items run out included, is raised where the
    caller takes that item and at every take after it.  Leaving the
    with block joins the worker, whether the run returned or raised;
    an item already asked for is drawn first.
    """

    def __init__(self, items: Iterator):
        super().__init__(_spare_cpu())
        self._items = items
        self._failed: Exception | None = None
        self.submit(next, items)

    def __next__(self):
        if self._failed is not None:
            raise self._failed
        try:
            item = self.result()
        except Exception as exc:  # the draw's own failure: no draw is asked for after it
            self._failed = exc
            raise
        self.submit(next, self._items)
        return item


@functools.cache
def _blas_threads() -> tuple[Callable, Callable] | None:
    """(get, set) of numpy's OpenBLAS thread count, from its scipy-openblas symbols; None where they are not found."""
    try:
        from numpy._core import _multiarray_umath

        blas = ctypes.CDLL(_multiarray_umath.__file__)  # its symbol lookup reaches the BLAS it links
        get, set_ = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """numpy's OpenBLAS at one thread inside the with block (or the function it decorates), the caller's count restored on exit.

    The count comes back whether the block returned or raised.  Where
    _blas_threads finds no symbols, nothing is set.
    """
    calls = _blas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)


_in_child = False  # set in a fork_map child, which owns one CPU: _usable_cpus gives it none


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on, sorted; none in a fork_map child or without os.sched_setaffinity."""
    if _in_child or not hasattr(os, "sched_setaffinity"):
        return []
    return sorted(os.sched_getaffinity(0))


def _os_threads() -> int | None:
    """How many OS threads this process runs, a BLAS pool's included; None off Linux or where /proc/self/task cannot be listed."""
    try:
        return len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
    except OSError:
        return None


def _spare_cpu() -> int | None:
    """The next usable CPU above the one the calling thread runs on, wrapping round, for a new worker; None if none.

    There is none with fewer than two _usable_cpus, or where the caller's
    CPU cannot be read.
    """
    usable = _usable_cpus()
    here = _current_cpu() if len(usable) > 1 else None
    return None if here is None else next((cpu for cpu in usable if cpu > here), usable[0])


def _current_cpu() -> int | None:
    """The CPU the calling thread last ran on, field 39 of /proc/thread-self/stat; None where it cannot be read."""
    try:
        with open("/proc/thread-self/stat") as stat:
            return int(stat.read().rsplit(")", 1)[1].split()[36])  # the fields after the command name start at 3
    except (OSError, IndexError, ValueError):
        return None


def _nudge(cpu: int | None) -> None:
    """Move the calling thread to cpu, then give it back the mask it had; with cpu None it stays where it is.

    The thread is nudged, not pinned, so a kernel that balances load may move it on.
    """
    if cpu is None:
        return
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, mask)
    except OSError:  # cpu, or the mask, is no longer usable: the thread runs where the kernel puts it
        pass


# Where warnings raised again from children note what they have shown, so
# the "default" action shows each one once, as it does for a run inline.
_shown_registry: dict = {}


def fork_map(fn: Callable, items: list) -> list:
    """[fn(item) for item in items], with the items spread over forked children.

    It runs inline instead when there is one item, one usable CPU or
    none (as in a fork_map child), or when _os_threads does not count
    exactly one OS thread.  Only one thread makes fork safe, and a BLAS
    pool counts: a pool of one thread per CPU spins between GEMMs, and
    on a 2-CPU host forked blobs runs under it took 2.8 times as long as
    inline ones.  Otherwise min(len(items), usable CPUs) children each
    run every so-many item in order, child i nudged to usable CPU i.
    They share the caller's memory copy-on-write,
    so what fn changes stays in its child; each writes each item's
    outcome to its own in-memory file, read once it exits.  Warnings are
    raised again here, in item order, and then the first item's
    exception in item order, with its class and message.  An item whose
    outcome is not in the file is ChildProcessError("forked run i of n
    ..."), saying why: its outcome would not pickle there or unpickle
    here, or its child died or exited first, whatever its exit status.
    Every child is reaped before this returns or raises; one still
    running when the caller is interrupted is killed.
    """
    items = list(items)
    cpus = _usable_cpus() if len(items) > 1 and _os_threads() == 1 else []
    workers = min(len(items), len(cpus))
    if workers < 2:
        return [fn(item) for item in items]
    children: list[tuple] = []  # (pid, the in-memory file it writes to, its item indices), until reaped
    outcomes: dict[int, tuple] = {}  # item index -> (result, exception, warnings)
    try:
        for first in range(workers):
            indices = range(first, len(items), workers)
            file = os.fdopen(os.memfd_create("ksetsel-fork-map"), "w+b")
            # SIGINT waits until the child is on the list, so no interrupt can orphan it.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, items, indices, file, mask, cpus[first])
                children.append((pid, file, indices))
            except BaseException:
                file.close()
                raise
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for child in list(children):
            pid, file, indices = child
            with file:
                status = os.waitpid(pid, 0)[1]
                children.remove(child)
                file.seek(0)
                for index in indices:  # a child writes its items in order, each outcome pickled on its own
                    try:
                        record = pickle.load(file)
                    except Exception:  # the end, or a record cut short by the child's death
                        break
                    try:
                        outcomes[index] = pickle.loads(record)
                    except Exception as unread:
                        outcomes[index] = (None, _lost(index, items, f"sent an outcome that could not be unpickled: {unread!r}"), [])
                        break
            for index in indices:
                outcomes.setdefault(index, (None, _lost(index, items, _ending(status)), []))
    finally:
        for pid, file, _ in children:
            file.close()
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


def _child(fn: Callable, items: list, indices: range, file: BinaryIO, mask, cpu: int) -> NoReturn:
    """A forked child's whole life: move to cpu, write each outcome to file, then os._exit, with 0 after its last item or a failure.

    An outcome that will not pickle is written as a ChildProcessError
    that names the run and carries the pickling error, and is a failure.
    The child owns its CPU, so the workers it starts stay on it.
    """
    global _in_child
    code = 1
    try:
        _in_child = True
        _nudge(cpu)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        with file:
            for index in indices:
                with warnings.catch_warnings(record=True) as caught:
                    result, exc = _outcome(functools.partial(fn, items[index]))
                shown = [(w.message, w.category, w.filename, w.lineno) for w in caught]
                try:
                    record = pickle.dumps((result, exc, shown))
                except Exception as unsent:
                    exc = _lost(index, items, f"sent an outcome that could not be pickled: {unsent!r}")
                    record = pickle.dumps((None, exc, []))
                pickle.dump(record, file)
                file.flush()
                if exc is not None:
                    break
        code = 0
    finally:
        os._exit(code)


def _ending(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"died by signal {signal.Signals(-code).name}" if code < 0 else f"exited with code {code} before it finished"


def _lost(index: int, items: list, why: str) -> ChildProcessError:
    return ChildProcessError(f"forked run {index + 1} of {len(items)} {why}")
