import threading

import pytest

from beamsquint import workers
from beamsquint.workers import map_blocks, usable_cores, worker_count


@pytest.mark.parametrize("raw, tasks, expected", [
    (None, 10, 1),
    ("", 10, 1),
    ("x", 10, 1),
    ("2.5", 10, 1),
    ("0", 10, 1),
    ("-3", 10, 1),
    ("3", 10, 3),
    ("3", 2, 2),
    ("3", 0, 1),
    ("100000", 10, 4),
    ("100000", 3, 3),
])
def test_worker_count_clamps_to_cores_and_tasks(monkeypatch, raw, tasks, expected):
    # Resolves the count without starting a thread.
    monkeypatch.setattr(workers, "usable_cores", lambda: 4)
    if raw is None:
        monkeypatch.delenv("BEAMSQUINT_THREADS", raising=False)
    else:
        monkeypatch.setenv("BEAMSQUINT_THREADS", raw)
    before = threading.active_count()
    assert worker_count(tasks) == expected
    assert threading.active_count() == before


def test_usable_cores_is_positive():
    assert usable_cores() >= 1


@pytest.mark.parametrize("n_workers", [1, 3])
def test_map_blocks_keeps_order_and_raises(monkeypatch, n_workers):
    monkeypatch.setattr(workers, "usable_cores", lambda: 3)
    monkeypatch.setenv("BEAMSQUINT_THREADS", str(n_workers))
    squares = [x * x for x in range(7)]
    assert map_blocks(lambda s: squares[s], 7, 1) == [[x] for x in squares]
    assert map_blocks(lambda s: squares[s], 7, 3) == [[0, 1, 4], [9, 16, 25], [36]]
    assert map_blocks(lambda s: squares[s], 0, 3) == []

    def fail(s):
        if s.start == 5:
            raise ValueError(s)
        return s

    with pytest.raises(ValueError):
        map_blocks(fail, 7, 1)
