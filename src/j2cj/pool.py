"""One ordered map over a list of items, in this process or in worker processes.

``ordered_map(start, args, items, jobs)`` yields ``start(*args)(item)`` for each item,
in item order. One job runs in this process and imports no pool module: a worker,
which builds its state again, would only slow a run with nothing to run beside it.
More jobs run in ``min(jobs, items)`` workers; each calls ``start`` once, and if that
fails, each of its tasks raises the error. An exception ends the map once the running
tasks finish; its ``finished`` holds the outcomes, in item order, of the later items
that finished (an item's exception is its outcome). A dead worker is a
``ChildProcessError``. Ctrl-C reaches a worker only while it runs items.
"""

import signal
from collections import deque

# Items per task, at most: each task is a round trip through the parent, which shares the
# cores with the workers. Smaller maps get smaller tasks, so that the workers finish together.
_TASK_ITEMS = 8

# In a worker process: the function that ``start`` built, or the error it raised.
_run = None


def _start_worker(start, args: tuple) -> None:
    global _run
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        _run = start(*args)
    except Exception as exc:
        _run = exc


def _run_task(items: list) -> list:
    """The outcomes of a task's items, in order, until one raises: its exception ends the list."""
    if isinstance(_run, Exception):
        raise _run
    outcomes = []
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        for item in items:
            outcomes.append(_run(item))
    except BaseException as exc:  # handed back with the outcomes before it
        outcomes.append(exc)
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    return outcomes


def ordered_map(start, args: tuple, items: list, jobs: int):
    if jobs == 1:
        yield from map(start(*args), items)
        return
    if not items:
        return
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    workers = min(jobs, len(items))
    size = max(1, min(_TASK_ITEMS, len(items) // (_TASK_ITEMS * workers)))
    pool = ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(start, args))
    # The tasks, and the current task's outcomes, not yet handed on: no other is held here.
    futures, rest = deque(), deque()
    try:
        futures += (pool.submit(_run_task, items[i:i + size]) for i in range(0, len(items), size))
        while futures:
            rest = deque(futures[0].result())  # popped once in hand: an interrupt in the wait keeps it
            futures.popleft()
            while rest:
                if isinstance(rest[0], BaseException):
                    raise rest.popleft()
                yield rest.popleft()
    except BaseException as exc:
        pool.shutdown(cancel_futures=True)
        finished = [o for f in futures if not f.cancelled() and not f.exception() for o in f.result()]
        if isinstance(exc, BrokenProcessPool):
            exc = ChildProcessError(str(exc))
        exc.finished = [*rest, *finished]
        raise exc
    finally:
        pool.shutdown()
