"""The ordered map that runs a command's items in this process or in worker processes."""

import gc
import os
import signal
import time
import weakref
from functools import partial
from pathlib import Path

import pytest

from j2cj.pool import ordered_map


def _scale(factor: int):
    return partial(_times, factor)


def _times(factor: int, item: int) -> int:
    return factor * item


class _Box:
    """An outcome that a weak reference can watch."""

    def __init__(self, item: int):
        self.item = item


def _boxes():
    return _Box


def _no_state():
    raise ValueError("state could not be built")


def _failing_at(bad: int, done_dir: str):
    return partial(_fail_after_later_items, bad, Path(done_dir))


def _fail_after_later_items(bad: int, done_dir: Path, item: int) -> int:
    """Item ``bad`` raises once item ``bad + 3``, which another task holds, has finished."""
    if item == bad:
        deadline = time.monotonic() + 30
        while not (done_dir / str(bad + 3)).exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        raise KeyError(item)
    (done_dir / str(item)).touch()
    return 10 * item


def _interrupting(parent: int):
    return partial(_interrupt_parent, parent)


def _interrupt_parent(parent: int, item: int) -> int:
    """Item 0 sends SIGINT to the parent once it has had time to submit every task
    and wait on item 0's."""
    if item == 0:
        time.sleep(0.5)
        os.kill(parent, signal.SIGINT)
        time.sleep(0.2)
    return 10 * item


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_outcomes_come_in_item_order(jobs):
    """At two jobs, 41 items make tasks of two items and a last one of one."""
    items = list(range(41))
    assert list(ordered_map(_scale, (3,), items, jobs)) == [3 * i for i in items]


def test_an_outcome_handed_on_is_held_by_the_consumer_alone():
    """At two jobs, 41 items make tasks of two items: once the consumer holds
    the first outcome of the second task, the first task's are garbage."""
    outcomes = ordered_map(_boxes, (), list(range(41)), 2)
    first_task = [weakref.ref(next(outcomes)) for _ in range(2)]
    third = next(outcomes)
    gc.collect()
    assert [ref() for ref in first_task] == [None, None]
    assert [third.item] + [box.item for box in outcomes] == list(range(2, 41))


def test_no_items_start_no_worker():
    assert list(ordered_map(_no_state, (), [], 2)) == []


def test_an_item_that_raises_carries_the_later_finished_outcomes(tmp_path):
    """Tasks hold two items each here: item 4 ends the task [4, 5], and its
    exception carries the outcomes of items 6 and 7, and of any finished after them."""
    outcomes = []
    with pytest.raises(KeyError) as info:
        for outcome in ordered_map(_failing_at, (4, str(tmp_path)), list(range(41)), 2):
            outcomes.append(outcome)
    assert outcomes == [0, 10, 20, 30]
    finished = info.value.finished
    assert finished[:2] == [60, 70]
    assert finished == [10 * i for i in range(6, 6 + len(finished))]


def test_an_interrupt_in_the_wait_for_a_task_carries_that_tasks_outcomes():
    """Tasks hold two items each here: the parent is interrupted while it waits on
    the first task, whose outcomes are then the first that ``finished`` holds."""
    with pytest.raises(KeyboardInterrupt) as info:
        next(ordered_map(_interrupting, (os.getpid(),), list(range(41)), 2))
    finished = info.value.finished
    assert finished[:2] == [0, 10]
    assert finished == [10 * i for i in range(len(finished))]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_start_that_raises_gives_the_same_error_at_any_jobs(jobs):
    with pytest.raises(ValueError, match="^state could not be built$"):
        list(ordered_map(_no_state, (), list(range(5)), jobs))


def test_one_job_imports_no_pool_module(run_isolated):
    code = (
        "import operator\nfrom functools import partial\nfrom j2cj.pool import ordered_map\n"
        "assert list(ordered_map(partial, (operator.mul, 2), [1, 2], 1)) == [2, 4]\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys()))\n"
    )
    result = run_isolated(code)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
