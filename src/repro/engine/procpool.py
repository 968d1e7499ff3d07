"""The shared morsel worker pool.

The morsel engine fans span-shaped work out to workers.
:func:`get_thread_pool` returns one process-wide :class:`SpanThreadPool`
per worker count, reused across fragments, queries and engines (no
per-fragment pool churn).  It dispatches round-robin so lane
attribution is deterministic.  Workers are plain threads: they read the
catalog's column arrays in place (mmap-backed or not), see the ambient
tracer, fault injector and query context directly, and hand their
partials back by reference.
"""

from __future__ import annotations

import atexit
import queue
import threading
from collections.abc import Callable, Iterable
from typing import Any

__all__ = ["SpanThreadPool", "get_thread_pool"]


class SpanThreadPool:
    """Persistent named worker threads with static round-robin dispatch.

    ``ThreadPoolExecutor.map`` lets whichever worker wakes first drain
    the whole span queue — on a busy single-core host one thread
    routinely ends up running *every* morsel, which makes lane
    attribution (worker fan-out in traces, the doctor's per-lane
    utilization) nondeterministic.  Per-worker queues give threads a
    static round-robin contract: worker ``i`` always runs items
    ``i, i + n, ...`` and records them in its own ``morsel-worker_i``
    lane.  Spans are equal-sized by
    construction, so static assignment balances.
    """

    def __init__(self, n_workers: int) -> None:
        self.n_workers = n_workers
        self._queues = [queue.SimpleQueue() for _ in range(n_workers)]
        for wid, inbox in enumerate(self._queues):
            threading.Thread(
                target=self._worker_loop,
                args=(inbox,),
                name=f"morsel-worker_{wid}",
                daemon=True,
            ).start()

    @staticmethod
    def _worker_loop(inbox: queue.SimpleQueue) -> None:
        while True:
            task = inbox.get()
            if task is None:
                return
            fn, arg, slot, results, errors, done = task
            try:
                results[slot] = fn(arg)
            except BaseException as exc:  # repatriated to the caller
                errors[slot] = exc
            finally:
                # Unbind before the caller wakes: this frame would
                # otherwise pin the last item's closure and argument
                # (a fragment's whole input) until the next item.
                del task, fn, arg, results, errors
                done.release()

    def map(self, fn: Callable[[Any], Any],
            items: Iterable[Any]) -> list:
        """``fn`` over ``items`` in item order, round-robin per worker.

        Every item completes before the first error (in item order) is
        re-raised, so fault counters are charged on every span
        regardless of where a budget runs out.
        """
        items = list(items)
        results: list[Any] = [None] * len(items)
        errors: list[BaseException | None] = [None] * len(items)
        done = threading.Semaphore(0)
        for slot, arg in enumerate(items):
            self._queues[slot % self.n_workers].put(
                (fn, arg, slot, results, errors, done)
            )
        for _ in items:
            done.acquire()
        for exc in errors:
            if exc is not None:
                raise exc
        return results

    def shutdown(self) -> None:
        for inbox in self._queues:
            inbox.put(None)


_THREAD_POOLS: dict[int, SpanThreadPool] = {}


def get_thread_pool(n_workers: int) -> SpanThreadPool:
    """The persistent shared thread pool for ``n_workers`` threads.

    Thread names stay ``morsel-worker_N`` so existing tracer lanes and
    the doctor's lane attribution are unchanged.
    """
    pool = _THREAD_POOLS.get(n_workers)
    if pool is None:
        pool = SpanThreadPool(n_workers)
        _THREAD_POOLS[n_workers] = pool
    return pool


def _close_all_pools() -> None:
    for pool in _THREAD_POOLS.values():
        pool.shutdown()
    _THREAD_POOLS.clear()


atexit.register(_close_all_pools)
