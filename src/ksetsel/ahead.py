"""The package's concurrency: Helper, ReadAhead and fork_map, and where their workers run.

A Helper is one worker thread that runs the jobs its caller hands it,
or lets the caller take back a job it has not started.  helper() gives
train_epoch one, to take half of each batch's w1 work, unless a BLAS
pool of more than one thread runs beside it.
ReadAhead draws an iterator's items one item ahead on one: FPL's
perturbations and simulate's stream an epoch ahead, and every other
chunk of a multi-chunk predict_batch call.  fork_map runs independent
training runs side by side in forked children: ablate's, grid's and
validate-risk's.  What a child writes to its in-memory file is all its
parent knows of its items.

Each worker moves once, as it starts, to a usable CPU its caller is
not on, and fork_map's child i to usable CPU i: its affinity is set to
that CPU, then given back, so it is nudged, not pinned.  Where the
kernel does not balance load between CPUs, a new thread or child
starts on its parent's CPU and seldom leaves it.  A child owns its CPU:
the workers it starts stay where they start, and it gets no helper.
With one usable CPU, or without os.sched_setaffinity, nothing moves.
"""

from __future__ import annotations

import contextvars
import functools
import os
import pickle
import queue
import signal
import sys
import threading
import warnings
from collections.abc import Callable, Iterator
from typing import BinaryIO, NoReturn

__all__ = ["Helper", "ReadAhead", "fork_map", "helper"]


class Helper:
    """One worker thread that runs the job its caller hands it, in the caller's context, unless the caller takes it back first.

    cpu is where the thread moves as it starts, or None to leave it
    where it starts.  submit(fn, *args) hands over fn(*args), run in a
    copy of the caller's contextvars, so numpy's errstate holds for the
    job as it does for the caller; result() returns its value or raises
    its exception.  One job at a time: each submit is followed by its
    result() before the next.  result(take_back=True) runs a job the
    worker has not started there, on the caller, and the worker skips
    it, so a worker whose CPU is busy costs about what doing the job
    inline does.  One queue each way and no futures keep a round trip short,
    since train_epoch pays one per SGD batch: on a ThreadPoolExecutor's
    futures a split idx epoch took about 15% longer.  Leaving the with
    block lets a job the worker has started finish, then joins the
    thread, whether the caller returned or raised.  The thread is a
    daemon, so one never joined cannot keep the interpreter from exiting.
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

    def result(self, take_back: bool = False):
        taken = take_back and self._claim.acquire(blocking=False)
        value, exc = _outcome(self._job) if taken else self._done.get()
        if exc is not None:
            raise exc
        return value

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self._jobs.put(None)
        self._thread.join()


def _outcome(job: Callable) -> tuple:
    """(job's value, None), or (None, the exception it raised)."""
    try:
        return job(), None
    except BaseException as exc:
        return None, exc


def helper() -> Helper | None:
    """A Helper whose thread starts on a usable CPU its caller is not on; None when there is no such CPU, or a BLAS pool may use it.

    A BLAS pool of one thread per CPU already spreads each GEMM over the
    CPUs and spins between GEMMs (see _one_thread), so a helper beside it
    would only compete with it: a process that runs OS threads Python did
    not start gets none.
    """
    cpu = _spare_cpu()
    return None if cpu is None or _foreign_threads() else Helper(cpu)


class ReadAhead:
    """items, drawn one item ahead on a Helper's thread.

    Building it asks for item 1.  Taking item t asks the worker for
    item t + 1, so the worker draws it while the caller uses item t.
    Only the worker advances items.  An exception the worker meets,
    StopIteration once the items run out included, is raised where the
    caller takes that item and at every take after it.  Leaving the
    with block joins the worker, whether the run returned or raised;
    an item already asked for is drawn first.
    """

    def __init__(self, items: Iterator):
        self._items = items
        self._worker = Helper(_spare_cpu())
        self._worker.submit(next, items)
        self._failed: Exception | None = None

    def __next__(self):
        if self._failed is not None:
            raise self._failed
        try:
            item = self._worker.result()
        except Exception as exc:  # the draw's own failure: no draw is asked for after it
            self._failed = exc
            raise
        self._worker.submit(next, self._items)
        return item

    def __enter__(self) -> "ReadAhead":
        return self

    def __exit__(self, *exc) -> None:
        self._worker.__exit__(*exc)


_in_child = False  # set in a fork_map child, which owns one CPU: its workers stay where they start


def _spare_cpu() -> int | None:
    """The next usable CPU above the one the calling thread runs on, wrapping round, for a new worker; None if none.

    There is none with one usable CPU, in a fork_map child, without
    os.sched_setaffinity, or where the caller's CPU cannot be read.
    """
    if _in_child or not hasattr(os, "sched_setaffinity"):
        return None
    usable = sorted(os.sched_getaffinity(0))
    here = _current_cpu()
    if len(usable) < 2 or here is None:
        return None
    return next((cpu for cpu in usable if cpu > here), usable[0])


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


def _foreign_threads() -> bool:
    """Whether this process runs OS threads that Python did not start, a BLAS pool's among them; True where /proc cannot tell."""
    try:
        return len(os.listdir("/proc/self/task")) > threading.active_count()
    except OSError:
        return True


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
    workers = min(len(items), _usable_cpus()) if len(items) > 1 and _one_thread() else 1
    if workers < 2:
        return [fn(item) for item in items]
    children: list[tuple] = []  # (pid, the in-memory file it writes to, its item indices), until reaped
    outcomes: dict[int, tuple] = {}  # item index -> (result, exception, warnings)
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for first in range(workers):
            indices = range(first, len(items), workers)
            file = os.fdopen(os.memfd_create("ksetsel-fork-map"), "w+b")
            # SIGINT waits until the child is on the list, so no interrupt can orphan it.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, items, indices, file, mask, cpus[first % len(cpus)])  # wraps only if _usable_cpus() counts more
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
                    try:
                        result, exc = fn(items[index]), None
                    except BaseException as raised:
                        result, exc = None, raised
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
