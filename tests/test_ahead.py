"""Helper, ReadAhead and fork_map, and the rule that no other module starts a thread or a process."""

import ast
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
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


class TwoArgumentError(Exception):
    """Pickles, but unpickling calls it with its one argument and fails with a TypeError."""

    def __init__(self, a, b):
        super().__init__(a)
        self.b = b


class Unrebuildable:
    def __reduce__(self):
        return TwoArgumentError, ("a",)


@pytest.fixture
def forked(fake_host):
    """fork_map forks here on any host: three usable CPUs, and the test process's BLAS pool let through."""
    fake_host(cpus=3, threads=1)


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
def test_runs_inline(fake_host, forked, why):
    if why == "one usable CPU":
        fake_host(cpus=1)
    if why == "another OS thread":
        fake_host(threads=2)
    items = [5] if why == "one item" else [5, 6, 7]
    assert fork_map(lambda item: (item, os.getpid()), items) == [(item, os.getpid()) for item in items]


def test_an_inline_run_counts_no_cpus(monkeypatch, fake_host):
    def counted(pid):
        raise AssertionError("fork_map counted CPUs for a run it keeps inline")

    monkeypatch.setattr(ahead.os, "sched_getaffinity", counted)
    fake_host(threads=2)
    assert fork_map(lambda item: (item, os.getpid()), [5, 6]) == [(5, os.getpid()), (6, os.getpid())]
    fake_host(threads=1)
    assert fork_map(lambda item: (item, os.getpid()), [5]) == [(5, os.getpid())]


def test_a_fork_map_in_a_child_runs_inline_there(forked):
    # the child owns its CPU, so it forks no grandchildren
    runs = fork_map(lambda item: (os.getpid(), fork_map(lambda inner: os.getpid(), [0, 1, 2])), [0, 1])
    assert len({child for child, _ in runs} | {os.getpid()}) == 3
    assert [inner for _, inner in runs] == [[child] * 3 for child, _ in runs]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_os_threads_counts_every_os_thread_a_blas_pool_included():
    code = (
        "import os, threading, time\n"
        "from ksetsel import ahead\n"
        "before = len(os.listdir('/proc/self/task'))\n"
        "release = threading.Event()\n"
        "other = threading.Thread(target=release.wait)\n"
        "print(ahead._os_threads() == 1)\n"
        "other.start()\n"
        "print(ahead._os_threads() == 1)\n"
        "release.set()\n"
        "other.join()\n"
        "deadline = time.monotonic() + 10\n"  # a joined thread leaves /proc a moment after join returns
        "while len(os.listdir('/proc/self/task')) > before and time.monotonic() < deadline:\n"
        "    time.sleep(0.001)\n"
        "print(ahead._os_threads() == 1)\n"
    )
    src = str(Path(ksetsel.__file__).resolve().parents[1])
    pools = {"1": "True False True"}
    if len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS starts a pool of two threads only where two CPUs are usable
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


@pytest.mark.parametrize("run", ["forked", "inline"])
def test_a_system_exit_reaches_the_caller_with_its_class_and_code_in_item_order(fake_host, forked, run):
    # Children run items 0, 3 / 1, 4 / 2: items 2 and 3 exit in different children, and item 2 comes first in item order.
    if run == "inline":
        fake_host(cpus=1)

    def run_item(item):
        if item >= 2:
            sys.exit(item)
        return item

    with pytest.raises(SystemExit) as caught:
        fork_map(run_item, range(5))
    assert type(caught.value) is SystemExit and caught.value.code == 2


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


def test_a_child_that_exits_0_before_its_last_item_is_an_error_for_that_item(forked):
    def run(item):
        if item == 1:
            os._exit(0)
        return item

    with pytest.raises(ChildProcessError, match=r"^forked run 2 of 4 exited with code 0 before it finished$"):
        fork_map(run, range(4))


def test_an_exception_that_will_not_unpickle_is_an_error_for_its_item_once_every_child_is_done(forked, tmp_path):
    # Inline, item 0 raises TwoArgumentError("bad", "worse"); its pickle cannot be rebuilt here.
    def run(item):
        if item == 0:
            raise TwoArgumentError("bad", "worse")
        time.sleep(0.2)
        (tmp_path / f"item {item} done").touch()
        return item

    with pytest.raises(ChildProcessError, match=r"^forked run 1 of 4 "):
        fork_map(run, range(4))
    assert sorted(path.name for path in tmp_path.iterdir()) == ["item 1 done", "item 2 done"]


def test_a_result_that_will_not_unpickle_is_an_error_that_carries_why(forked):
    def run(item):
        return Unrebuildable() if item == 1 else item

    why = r"TypeError\(.*missing 1 required positional argument: 'b'.*\)"
    with pytest.raises(ChildProcessError, match=rf"^forked run 2 of 5 sent an outcome that could not be unpickled: {why}$"):
        fork_map(run, range(5))


def test_an_outcome_that_will_not_pickle_is_an_error_that_carries_why(forked):
    def run(item):
        return (lambda: item) if item == 2 else item

    with pytest.raises(ChildProcessError, match=r"^forked run 3 of 4 sent an outcome that could not be pickled: \w+\(.*<lambda>"):
        fork_map(run, range(4))


def test_a_record_cut_short_by_its_childs_death_says_how_the_child_ended(forked, monkeypatch):
    dump = pickle.dump

    def cut_short(record, file):
        if b"cut here" in record:
            file.write(pickle.dumps(record)[:20])
            file.flush()
            os.kill(os.getpid(), signal.SIGKILL)
        dump(record, file)

    monkeypatch.setattr(ahead.pickle, "dump", cut_short)
    with pytest.raises(ChildProcessError, match=r"^forked run 2 of 4 died by signal SIGKILL$"):
        fork_map(lambda item: "cut here" if item == 1 else item, range(4))


def test_a_child_goes_on_to_its_next_item_after_a_large_result(forked, tmp_path):
    # Items 1 and 4 share a child.  Item 1's result is larger than a pipe's buffer, and item 0,
    # in the first child, waits for item 4 to start: no child may wait for this process to read.
    marker = tmp_path / "item 4 started"

    def run(item):
        if item == 0:
            deadline = time.monotonic() + 10
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return marker.exists()
        if item == 4:
            marker.touch()
        return b"x" * 200_000 if item == 1 else item

    assert fork_map(run, range(5)) == [True, b"x" * 200_000, 2, 3, 4]


def test_a_result_over_a_mebibyte_comes_back_unchanged(forked):
    def run(item):
        return random.Random(item).randbytes(1_200_000)

    assert fork_map(run, range(4)) == [run(item) for item in range(4)]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_no_descriptor_stays_open_after_a_run_returns_raises_or_loses_a_child(forked):
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    def run(item):
        if item == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        if item == 2:
            raise ItemFailed("item 2 failed")
        return item

    before = open_fds()
    assert fork_map(lambda item: item, range(4)) == list(range(4))
    with pytest.raises(ItemFailed, match=r"^item 2 failed$"):
        fork_map(run, [0, 2, 3])
    with pytest.raises(ChildProcessError, match=r"^forked run 2 of 3 died by signal SIGKILL$"):
        fork_map(run, range(3))
    assert open_fds() <= before


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


TWO_CPUS = pytest.mark.skipif(
    sys.platform != "linux" or not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="places threads on Linux with two or more usable CPUs",
)


@pytest.fixture
def moves(monkeypatch):
    """Every affinity change from here on, as (the mask set, the CPU the thread ran on right after), and the caller's CPU reads.

    A thread restricted to one CPU runs on it once sched_setaffinity
    returns, so each one-CPU entry says where its thread was sent.  The
    reads are the caller's own, the CPUs _spare_cpu chose a worker's
    from, so nothing compares CPUs read at different moments.
    """
    made, read = [], []
    set_mask, current_cpu = os.sched_setaffinity, ahead._current_cpu

    def spy(pid, mask):
        set_mask(pid, mask)
        made.append((set(mask), current_cpu()))

    def caller_cpu():
        cpu = current_cpu()
        if threading.current_thread() is threading.main_thread():
            read.append(cpu)
        return cpu

    monkeypatch.setattr(ahead.os, "sched_setaffinity", spy)
    monkeypatch.setattr(ahead, "_current_cpu", caller_cpu)
    return made, read


def assert_sent_once(made, caller, usable):
    """One move to a single usable CPU other than caller's, where the thread then ran, and then the whole mask back."""
    (target, ran), (restored, _) = made
    assert len(target) == 1 and target == {ran} and ran in usable and ran != caller
    assert restored == usable


@TWO_CPUS
def test_a_read_ahead_worker_starts_on_a_cpu_other_than_its_callers(moves):
    made, read = moves
    usable = os.sched_getaffinity(0)
    with ReadAhead(os.sched_getaffinity(0) for _ in range(1)) as worker:
        worker_mask = next(worker)
    assert_sent_once(made, read[-1], usable)
    assert worker_mask == usable  # nudged, not pinned


@TWO_CPUS
def test_a_helper_starts_on_a_cpu_other_than_its_callers(fake_host, moves):
    fake_host(threads=1)  # let the test process's BLAS pool through
    made, read = moves
    usable = os.sched_getaffinity(0)
    with ahead.helper() as pool:
        pool.submit(os.sched_getaffinity, 0)
        worker_mask = pool.result()
    assert_sent_once(made, read[-1], usable)
    assert worker_mask == usable


@TWO_CPUS
def test_fork_map_children_run_on_distinct_cpus_and_place_no_worker(fake_host, moves):
    fake_host(threads=1)  # let the test process's BLAS pool through
    made, _ = moves
    usable = sorted(os.sched_getaffinity(0))
    placed = fork_map(lambda item: (list(made), ahead.helper()), [0, 1])
    assert made == []  # the parent stays where it is
    for cpu, (child_made, pool) in zip(usable, placed):
        assert child_made == [({cpu}, cpu), (set(usable), child_made[1][1])]  # child i is sent to usable CPU i
        assert pool is None  # a child owns its CPU: its workers stay where they start


@TWO_CPUS
@pytest.mark.parametrize("threads, helped", [(1, True), (2, False)])
def test_a_process_with_a_blas_pool_gets_no_helper(threads, helped):
    code = "from ksetsel import ahead\npool = ahead.helper()\nprint(pool is not None)\npool and pool.__exit__()"
    src = str(Path(ksetsel.__file__).parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads), "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == [str(helped)]


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_a_joined_helpers_thread_is_not_listed_once_its_with_block_ends(monkeypatch):
    # The kernel may list a thread in /proc/self/task a moment after join returns; here it does for three reads.
    lingering, listdir, exists = [3], os.listdir, os.path.exists
    pool = ahead.Helper(None)
    tid = str(pool._thread.native_id)
    task = f"/proc/self/task/{tid}"

    def listed():
        if exists(task):
            return True
        if pool._thread.is_alive() or not lingering[0]:
            return False
        lingering[0] -= 1
        return True

    def tasks(path):
        ids = listdir(path)
        return ids + [tid] if path == "/proc/self/task" and tid not in ids and listed() else ids

    monkeypatch.setattr(ahead.os, "listdir", tasks)
    monkeypatch.setattr(ahead.os.path, "exists", lambda path: listed() if path == task else exists(path))
    with pool:
        pool.submit(int, "1")
        assert pool.result() == 1
    assert tid not in os.listdir("/proc/self/task")  # so no later _os_threads counts it


@TWO_CPUS
def test_a_helper_is_given_every_time_right_after_one_is_joined():
    code = (
        "from ksetsel import ahead\n"
        "refused = 0\n"
        "for _ in range(2000):\n"
        "    pool = ahead.helper()\n"
        "    refused += pool is None\n"
        "    if pool is not None:\n"
        "        with pool:\n"
        "            pool.submit(int, '1')\n"
        "            pool.result()\n"
        "print(refused)\n"
    )
    src = str(Path(ksetsel.__file__).parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["0"]


@pytest.mark.skipif(sys.platform != "linux", reason="reads the CPU mask")
@pytest.mark.parametrize("why", ["one usable CPU", "no sched_setaffinity", "in a fork_map child", "unreadable CPU"])
def test_no_spare_cpu_places_nothing(monkeypatch, fake_host, why):
    moved = []
    if why == "no sched_setaffinity":
        monkeypatch.delattr(ahead.os, "sched_setaffinity", raising=False)
    else:
        monkeypatch.setattr(ahead.os, "sched_setaffinity", lambda pid, mask: moved.append(mask), raising=False)
    fake_host(threads=1)  # so the test process's BLAS pool is not why there is no helper
    if why == "one usable CPU":
        monkeypatch.setattr(ahead.os, "sched_getaffinity", lambda pid: {0})
    elif why == "unreadable CPU":
        monkeypatch.setattr(ahead, "_current_cpu", lambda: None)

    def places_nothing(item=None):
        before = len(moved)  # a child's own move to its CPU comes first
        assert ahead._spare_cpu() is None and ahead.helper() is None
        with ReadAhead(iter(range(3))) as worker:
            assert next(worker) == 0
        return moved[before:]

    if why == "in a fork_map child":
        fake_host(cpus=2)
        assert fork_map(places_nothing, [0, 1]) == [[], []]
    else:
        assert places_nothing() == []


class TestTakeBack:
    """result() runs a job the worker has not started on the caller, and waits for one it has."""

    def test_a_job_the_worker_has_not_started_runs_on_the_caller_and_the_worker_skips_it(self, monkeypatch):
        go, ran = threading.Event(), []
        monkeypatch.setattr(ahead, "_nudge", lambda cpu: go.wait(timeout=20))  # the worker has not started yet
        pool = ahead.Helper(None)
        with pool:
            pool.submit(lambda: ran.append(threading.current_thread()) or 7)
            assert pool.result() == 7
            go.set()
        assert ran == [threading.main_thread()]

    def test_a_job_the_worker_has_started_is_waited_for(self):
        started, go = threading.Event(), threading.Event()

        def job():
            started.set()
            assert go.wait(timeout=20)
            return threading.current_thread()

        with ahead.Helper(None) as pool:
            pool.submit(job)
            assert started.wait(timeout=20)
            go.set()
            assert pool.result() is pool._thread

    def test_a_taken_back_job_raises_its_own_exception_here(self, monkeypatch):
        go = threading.Event()
        monkeypatch.setattr(ahead, "_nudge", lambda cpu: go.wait(timeout=20))
        with ahead.Helper(None) as pool:
            pool.submit(int, "x")
            with pytest.raises(ValueError, match="invalid literal"):
                pool.result()
            go.set()


@pytest.mark.parametrize("taken_back", [False, True])
def test_a_helper_jobs_system_exit_reaches_the_caller_with_its_class_and_code(monkeypatch, taken_back):
    go, ran_on = threading.Event(), []
    if taken_back:
        monkeypatch.setattr(ahead, "_nudge", lambda cpu: go.wait(timeout=20))  # the worker has not started yet
    else:
        go.set()

    def exits(code):
        ran_on.append(threading.current_thread())
        sys.exit(code)

    with ahead.Helper(None) as pool:
        pool.submit(exits, 4)
        if not taken_back:
            deadline = time.monotonic() + 20
            while not ran_on and time.monotonic() < deadline:  # the worker has begun the job
                time.sleep(0.001)
        with pytest.raises(SystemExit) as caught:
            pool.result()
        go.set()
    assert type(caught.value) is SystemExit and caught.value.code == 4
    assert ran_on == [threading.main_thread() if taken_back else pool._thread]


def test_a_helper_job_runs_under_the_callers_errstate():
    with np.errstate(over="ignore"), ahead.Helper(None) as pool:
        pool.submit(np.multiply, np.array([1e308]), 10.0)
        assert pool.result()[0] == np.inf  # a RuntimeWarning would raise


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


HOST_READS = {"sched_getaffinity", "active_count"}


def reads_host(path):
    """Whether the source names os.sched_getaffinity or threading.active_count, or holds the path /proc/self/task."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in HOST_READS:
            return True
        if isinstance(node, ast.ImportFrom) and any(alias.name in HOST_READS for alias in node.names):
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "/proc/self/task" in node.value:
            return True
    return False


def test_only_ahead_reads_the_processs_threads_and_cpus():
    sources = sorted(Path(ksetsel.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    assert [path.name for path in sources if reads_host(path)] == ["ahead.py"]


NO_BLAS_SYMBOLS = pytest.mark.skipif(ahead._blas_threads() is None, reason="numpy's BLAS exports no thread-count symbols")


@NO_BLAS_SYMBOLS
def test_a_run_holds_blas_at_one_thread_and_gives_the_callers_count_back_whether_it_returned_or_raised(tmp_path):
    # in a child process: a count of 2 starts a BLAS thread this process would then count in _os_threads
    code = (
        "import sys\n"
        "from ksetsel import ahead, cli, training\n"
        "get, set_ = ahead._blas_threads()\n"
        "set_(2)\n"
        "real, seen = training.train_epoch, []\n"
        "def spied(*args):\n"
        "    seen.append(get())\n"
        "    return real(*args)\n"
        "def broken(*args):\n"
        "    seen.append(get())\n"
        "    raise RuntimeError('mid-run')\n"
        "training.train_epoch = spied\n"
        "print(cli.main(['train', '--config', sys.argv[1]]), get())\n"
        "training.train_epoch = broken\n"
        "try:\n"
        "    cli.main(['train', '--config', sys.argv[1]])\n"
        "except RuntimeError as exc:\n"
        "    print(exc, get())\n"
        "print(*seen)\n"
    )
    config = tmp_path / "run.cfg"
    config.write_text(f"out = {tmp_path / 'm.csv'}\nn = 60\ndim = 4\nhidden = 8\nepochs = 2\nk_frac = 0.5\n")
    src = str(Path(ksetsel.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, str(config)], env=env, capture_output=True, text=True, check=True)
    # after the run's own report: its exit code, the raise, and the count each epoch saw (two, then the one that raised)
    assert out.stdout.splitlines()[-3:] == ["0 2", "mid-run 2", "1 1 1"]


@NO_BLAS_SYMBOLS
def test_a_run_without_the_blas_symbols_sets_nothing_and_writes_the_same_bytes(tmp_path, monkeypatch):
    from ksetsel.cli import main

    get, set_ = ahead._blas_threads()
    sets = []
    found = (get, lambda count: sets.append(count) or set_(count))
    config = "n = 60\ndim = 4\nhidden = 8\nepochs = 3\nk_frac = 0.5\nseeds = 0, 1\n"
    written = []
    with ahead.one_blas_thread():  # both runs at the pinned count, so only the lookup differs between them
        for run, calls in (("found", found), ("not-found", None)):
            monkeypatch.setattr(ahead, "_blas_threads", lambda: calls)
            (tmp_path / run).mkdir()
            (tmp_path / run / "run.cfg").write_text(config + f"out = {tmp_path / run / 'm.csv'}\n")
            assert main(["train", "--config", str(tmp_path / run / "run.cfg")]) == 0
            written.append([line.rsplit(",", 1)[0] for line in (tmp_path / run / "m.csv").read_text().splitlines()])
    assert sets == [1, 1]  # the found run's pin and restore; the other run set nothing
    assert written[0] == written[1]
