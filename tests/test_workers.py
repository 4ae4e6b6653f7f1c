import threading

import pytest

from beamsquint import workers
from beamsquint.workers import ordered_map, usable_cores, worker_count


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
def test_ordered_map_keeps_order_and_raises(monkeypatch, n_workers):
    monkeypatch.setattr(workers, "usable_cores", lambda: 3)
    monkeypatch.setenv("BEAMSQUINT_THREADS", str(n_workers))
    assert ordered_map(lambda x: x * x, range(7)) == [0, 1, 4, 9, 16, 25, 36]

    def fail(x):
        if x == 5:
            raise ValueError(x)
        return x

    with pytest.raises(ValueError):
        ordered_map(fail, range(7))
