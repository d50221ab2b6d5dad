"""ReadAhead, the package's one worker thread: FPL's perturbations and
simulate's stream are drawn through it an epoch ahead, and predict_batch
scores every other chunk of a multi-chunk call through it.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterator

__all__ = ["ReadAhead"]


class ReadAhead:
    """items, drawn one item ahead on a single worker thread.

    Building it asks for item 1.  Taking item t asks the worker for
    item t + 1, so the worker draws it while the caller uses item t.
    Only the worker advances items.  An exception the worker meets,
    StopIteration once the items run out included, is raised where the
    caller takes that item.  Leaving the with block joins the worker,
    whether the run returned or raised; an item already asked for is
    drawn first.
    """

    def __init__(self, items: Iterator):
        self._items = items
        self._asks: queue.SimpleQueue[bool] = queue.SimpleQueue()  # True: draw the next item; False: stop
        self._drawn: queue.SimpleQueue[tuple] = queue.SimpleQueue()  # (item, None) or (None, its exception)
        self._worker = threading.Thread(target=self._work, name="ksetsel-ahead")
        self._worker.start()
        self._asks.put(True)

    def _work(self) -> None:
        while self._asks.get():
            try:
                self._drawn.put((next(self._items), None))
            except BaseException as exc:  # raised again on the caller's thread, in __next__
                self._drawn.put((None, exc))
                return

    def __next__(self):
        item, exc = self._drawn.get()
        if exc is not None:
            raise exc
        self._asks.put(True)
        return item

    def __enter__(self) -> "ReadAhead":
        return self

    def __exit__(self, *exc) -> None:
        self._asks.put(False)
        self._worker.join()
