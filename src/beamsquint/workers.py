"""The one thread-count rule of the package.

The angle blocks of a large capacity evaluation run on a short-lived thread
pool.  numpy releases the GIL inside its ufuncs, so threads help only where
each task is mostly numpy work; sweep points, which are Python root-solver
steps around small capacity calls, run on the calling thread.  The
``BEAMSQUINT_THREADS`` environment variable caps the threads; it is read
here and nowhere else.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable


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


def map_blocks(fn: Callable[[slice], object], n: int, size: int) -> list:
    """``fn`` applied to each slice ``[i, i + size)`` that tiles
    ``range(n)``, on :func:`worker_count` threads; the results are in block
    order and the first exception raised by ``fn`` propagates."""
    blocks = [slice(i, i + size) for i in range(0, n, size)]
    workers = worker_count(len(blocks))
    if workers == 1:
        return [fn(s) for s in blocks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, blocks))
