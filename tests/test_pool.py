"""The ordered map that runs a command's items in this process or in worker processes."""

import time
from functools import partial
from pathlib import Path

import pytest

from j2cj.pool import ordered_map


def _scale(factor: int):
    return partial(_times, factor)


def _times(factor: int, item: int) -> int:
    return factor * item


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


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_outcomes_come_in_item_order(jobs):
    """At two jobs, 41 items make tasks of two items and a last one of one."""
    items = list(range(41))
    assert list(ordered_map(_scale, (3,), items, jobs)) == [3 * i for i in items]


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
