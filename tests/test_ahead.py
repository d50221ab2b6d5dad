"""ReadAhead, the package's one worker thread, and the rule that no other module starts a thread."""

import ast
import threading
from pathlib import Path

import pytest

import ksetsel
from ksetsel.ahead import ReadAhead


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


def test_items_come_back_in_order_and_then_stop():
    items, before = Tracked(5), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        assert [next(ahead) for _ in range(5)] == [1, 2, 3, 4, 5]
        with pytest.raises(StopIteration):
            next(ahead)
    items.assert_joined(before)


def test_no_items_stop_at_once():
    items, before = Tracked(0), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        with pytest.raises(StopIteration):
            next(ahead)
    items.assert_joined(before)


def test_an_items_exception_reaches_the_caller_where_it_takes_that_item():
    items, before = Tracked(5, fail_at=3), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        assert [next(ahead), next(ahead)] == [1, 2]
        with pytest.raises(ValueError, match=r"^item 3 failed$"):
            next(ahead)
    items.assert_joined(before)
    assert items.drawn == [1, 2]


def test_leaving_early_draws_only_the_item_asked_for():
    items, before = Tracked(5), threading.active_count()
    with ReadAhead(items.items()) as ahead:
        assert next(ahead) == 1
    items.assert_joined(before)
    assert items.drawn == [1, 2]


def test_a_caller_error_joins_after_the_item_asked_for_is_drawn():
    # Item 2 is asked for when item 1 is taken, and its draw is still waiting on the gate when the caller fails.
    items, before = Tracked(5, gate=2), threading.active_count()
    with pytest.raises(KeyError, match="caller failed"):
        with ReadAhead(items.items()) as ahead:
            assert next(ahead) == 1
            opener = threading.Timer(0.05, items.release.set)
            opener.start()
            raise KeyError("caller failed")
    opener.join()
    items.assert_joined(before)
    assert items.drawn == [1, 2]


THREAD_MODULES = {"threading", "queue", "_thread", "concurrent"}


def imported_roots(path):
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_ahead_imports_thread_modules():
    sources = sorted(Path(ksetsel.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    threaded = [path.name for path in sources if imported_roots(path) & THREAD_MODULES]
    assert threaded == ["ahead.py"]
