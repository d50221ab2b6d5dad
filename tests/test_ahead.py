"""ReadAhead and fork_map, and the rule that no other module starts a thread or a process."""

import ast
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import ksetsel
from ksetsel import ahead
from ksetsel.ahead import ReadAhead, fork_map


class Tracked:
    """Items 1..count from a generator that records its thread and what it drew.

    Drawing item fail_at raises; drawing item gate first waits for release.
    """

    def __init__(self, count, fail_at=None, gate=None):
        self.threads, self.drawn, self.release = [], [], threading.Event()
        self.count, self.fail_at, self.gate = count, fail_at, gate

    def items(self):
        self.threads.append(threading.current_thread())
        for item in range(1, self.count + 1):
            if item == self.gate:
                assert self.release.wait(timeout=20)
            if item == self.fail_at:
                raise ValueError(f"item {item} failed")
            self.drawn.append(item)
            yield item

    def assert_joined(self, before):
        assert threading.active_count() == before
        assert self.threads and self.threads[0] is not threading.main_thread() and not self.threads[0].is_alive()


def take(ahead):
    """next(ahead), taken on a daemon thread so that a take that never returns fails the test instead of hanging it."""
    outcome = []

    def run():
        try:
            outcome.append((next(ahead), None))
        except BaseException as exc:
            outcome.append((None, exc))

    taker = threading.Thread(target=run, daemon=True)
    taker.start()
    taker.join(timeout=20)
    if taker.is_alive():
        pytest.fail("a take from ReadAhead did not return within 20 s")
    item, exc = outcome[0]
    if exc is not None:
        raise exc
    return item


def test_items_come_back_in_order_and_then_stop():
    items, before = Tracked(5), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        assert [take(ahead) for _ in range(5)] == [1, 2, 3, 4, 5]
        with pytest.raises(StopIteration):
            take(ahead)
    items.assert_joined(before)


def test_no_items_stop_at_once():
    items, before = Tracked(0), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        with pytest.raises(StopIteration):
            take(ahead)
    items.assert_joined(before)


def test_an_items_exception_reaches_the_caller_where_it_takes_that_item():
    items, before = Tracked(5, fail_at=3), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        assert [take(ahead), take(ahead)] == [1, 2]
        with pytest.raises(ValueError, match=r"^item 3 failed$"):
            take(ahead)
    items.assert_joined(before)
    assert items.drawn == [1, 2]


def test_every_take_after_a_failed_item_raises_it_again():
    items, before = Tracked(5, fail_at=2), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        assert take(ahead) == 1
        raised = []
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^item 2 failed$") as caught:
                take(ahead)
            raised.append(caught.value)
    items.assert_joined(before)
    assert items.drawn == [1] and raised[0] is raised[1]


def test_every_take_after_the_last_item_stops():
    items, before = Tracked(2), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        assert [take(ahead), take(ahead)] == [1, 2]
        for _ in range(3):
            with pytest.raises(StopIteration):
                take(ahead)
    items.assert_joined(before)


def test_leaving_early_draws_only_the_item_asked_for():
    items, before = Tracked(5), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        assert take(ahead) == 1
    items.assert_joined(before)
    assert items.drawn == [1, 2]


def test_a_caller_error_joins_after_the_item_asked_for_is_drawn():
    # Item 2 is asked for when item 1 is taken, and its draw is still waiting on the gate when the caller fails.
    items, before = Tracked(5, gate=2), threading.active_count()
    with pytest.raises(KeyError, match="caller failed"):
        with ReadAhead(items.items()) as ahead:
            assert take(ahead) == 1
            opener = threading.Timer(0.05, items.release.set)
            opener.start()
            raise KeyError("caller failed")
    opener.join()
    items.assert_joined(before)
    assert items.drawn == [1, 2]


class ItemFailed(ValueError):
    pass


REAL_USABLE_CPUS = ahead._usable_cpus


@pytest.fixture
def forked(monkeypatch):
    """fork_map forks here on any host: three usable CPUs, and the test process's BLAS pool let through."""
    monkeypatch.setattr(ahead, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(ahead, "_one_thread", lambda: True)


def logged_pids(log):
    return [int(line) for line in log.read_text().split()] if log.exists() else []


def log_pid(log):
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\n")


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # neither running nor waiting to be reaped
            os.waitpid(pid, os.WNOHANG)


def test_results_come_back_in_item_order_from_three_children(forked):
    results = fork_map(lambda item: (item * item, os.getpid()), range(7))
    assert [square for square, _ in results] == [item * item for item in range(7)]
    pids = [pid for _, pid in results]
    # each child runs every third item
    assert [len(set(pids[first::3])) for first in range(3)] == [1, 1, 1]
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert_reaped(set(pids))


@pytest.mark.parametrize("why", ["one item", "one usable CPU", "another OS thread"])
def test_runs_inline(monkeypatch, forked, why):
    if why == "one usable CPU":
        monkeypatch.setattr(ahead, "_usable_cpus", REAL_USABLE_CPUS)
        monkeypatch.setattr(ahead.os, "sched_getaffinity", lambda pid: {0})
    if why == "another OS thread":
        monkeypatch.setattr(ahead, "_one_thread", lambda: False)
    items = [5] if why == "one item" else [5, 6, 7]
    assert fork_map(lambda item: (item, os.getpid()), items) == [(item, os.getpid()) for item in items]


def test_an_inline_run_counts_no_cpus(monkeypatch):
    def counted():
        raise AssertionError("fork_map counted CPUs for a run it keeps inline")

    monkeypatch.setattr(ahead, "_usable_cpus", counted)
    monkeypatch.setattr(ahead, "_one_thread", lambda: False)
    assert fork_map(lambda item: (item, os.getpid()), [5, 6]) == [(5, os.getpid()), (6, os.getpid())]
    monkeypatch.setattr(ahead, "_one_thread", lambda: True)
    assert fork_map(lambda item: (item, os.getpid()), [5]) == [(5, os.getpid())]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_one_thread_counts_every_os_thread_a_blas_pool_included():
    code = (
        "import os, threading, time\n"
        "from ksetsel import ahead\n"
        "before = len(os.listdir('/proc/self/task'))\n"
        "release = threading.Event()\n"
        "other = threading.Thread(target=release.wait)\n"
        "print(ahead._one_thread())\n"
        "other.start()\n"
        "print(ahead._one_thread())\n"
        "release.set()\n"
        "other.join()\n"
        "deadline = time.monotonic() + 10\n"  # a joined thread leaves /proc a moment after join returns
        "while len(os.listdir('/proc/self/task')) > before and time.monotonic() < deadline:\n"
        "    time.sleep(0.001)\n"
        "print(ahead._one_thread())\n"
    )
    src = str(Path(ksetsel.__file__).resolve().parents[1])
    pools = {"1": "True False True"}
    if REAL_USABLE_CPUS() >= 2:  # OpenBLAS starts a pool of two threads only where two CPUs are usable
        pools["2"] = "False False False"
    for threads, expected in pools.items():
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == expected.split(), threads


def test_the_first_failing_item_in_item_order_is_raised(forked, tmp_path):
    # Children run items 0, 3, 6 / 1, 4, 7 / 2, 5, 8 and each stops at its failure.  Item 3 fails
    # first and in the first child, but item 1 comes first in item order.
    def run(item):
        log_pid(tmp_path / f"ran{item}")
        if item == 1:
            time.sleep(0.2)
        if item in (1, 3):
            raise ItemFailed(f"item {item} failed")
        return item

    with pytest.raises(ItemFailed, match=r"^item 1 failed$"):
        fork_map(run, range(9))
    ran = sorted(int(path.name[3:]) for path in tmp_path.iterdir())
    assert ran == [0, 1, 2, 3, 5, 8]
    assert_reaped({pid for path in tmp_path.iterdir() for pid in logged_pids(path)})


def test_warnings_are_raised_again_in_item_order_then_the_error(forked):
    def run(item):
        time.sleep(0.05 * (3 - item % 3))  # later children finish first
        warnings.warn(f"item {item} from {os.getpid()}", UserWarning)
        if item == 4:
            raise ItemFailed("item 4 failed")
        return item

    with pytest.warns(UserWarning) as caught, pytest.raises(ItemFailed, match="item 4 failed"):
        fork_map(run, range(6))
    messages = [str(w.message).split(" from ") for w in caught]
    assert [item for item, _ in messages] == [f"item {item}" for item in range(5)]
    assert os.getpid() not in {int(pid) for _, pid in messages}
    assert caught[0].filename == __file__


def test_a_default_warning_is_shown_once_like_an_inline_run(forked):
    def run(item):
        warnings.warn("the same warning", UserWarning)
        return item

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert fork_map(run, range(6)) == list(range(6))
    assert [str(w.message) for w in caught] == ["the same warning"]


def test_a_child_killed_by_a_signal_is_an_error_for_its_item(forked, tmp_path):
    def run(item):
        log_pid(tmp_path / "pids")
        if item == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        if item == 4:
            raise ItemFailed("item 4 failed")
        return item

    with pytest.raises(ChildProcessError, match=r"^forked run 3 of 6 died by signal SIGKILL$"):
        fork_map(run, range(6))
    assert_reaped(logged_pids(tmp_path / "pids"))


def test_an_interrupted_caller_kills_and_reaps_every_child(forked, tmp_path):
    log = tmp_path / "pids"

    def run(item):
        log_pid(log)
        if item == 0:
            deadline = time.monotonic() + 20
            while len(logged_pids(log)) < 3 and time.monotonic() < deadline:  # every child has started
                time.sleep(0.01)
            os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fork_map(run, range(3))
    assert time.monotonic() - start < 30
    pids = logged_pids(log)
    assert len(pids) == 3
    assert_reaped(pids)


CONCURRENCY_MODULES = {"threading", "queue", "_thread", "concurrent", "multiprocessing"}
FORK_CALLS = {"fork", "forkpty"}


def imported_roots(path):
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def names_fork(path):
    """Whether the source names os.fork or os.forkpty."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in FORK_CALLS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                return True
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in FORK_CALLS for alias in node.names):
                return True
    return False


def test_only_ahead_imports_thread_modules():
    # ... or multiprocessing, or forks
    sources = sorted(Path(ksetsel.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    concurrent = [path.name for path in sources if imported_roots(path) & CONCURRENCY_MODULES or names_fork(path)]
    assert concurrent == ["ahead.py"]
    assert names_fork(Path(ahead.__file__))
