"""The one thread-count rule of the package.

Independent sweep points and the angle blocks of a large capacity
evaluation run on short-lived thread pools.  numpy releases the GIL inside
its ufuncs, so threads help only where each task is mostly numpy work.
The ``BEAMSQUINT_THREADS`` environment variable caps the threads; it is
read here and nowhere else.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks.

    ``BEAMSQUINT_THREADS`` clamped to [1, usable cores] and to ``tasks``;
    unset, unparsable, zero or negative values mean 1.
    """
    try:
        wanted = int(os.environ.get("BEAMSQUINT_THREADS", ""))
    except ValueError:
        wanted = 1
    return max(1, min(wanted, usable_cores(), tasks))


def ordered_map(fn: Callable, items: Sequence) -> list:
    """``[fn(x) for x in items]``, on :func:`worker_count` threads; the
    order of the results is the order of ``items`` and the first exception
    raised by ``fn`` propagates."""
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
