"""The package's one worker pool, shared by the grid slabs and the pointwise parts.

``GridStructure`` builds its closed-form fields in x1-slabs and
``curvature.ricci_directional`` splits a large batch into parts; both hand
their tasks to :func:`run`.  The pool has one thread per CPU the process may
use (``os.sched_getaffinity``) and is created on first use; with one CPU or
one task the tasks run inline.  A task writes its own rows of a preallocated
output and computes every element as the whole-array code would, so the
results do not depend on the worker count.  There is no thread setting:
pin the process with ``taskset`` to run on one CPU.  A task never submits
to the pool itself.
"""

from __future__ import annotations

import contextvars
import os
from functools import lru_cache


@lru_cache(maxsize=None)
def _pool(pid: int):
    """One worker per CPU this process may run on, or None with one CPU.

    Keyed by process id, so that a forked child starts its own workers.
    ``concurrent.futures`` (and the ``logging`` it loads) is imported here,
    so that the pointwise-scalar routes, which never reach the pool, do not
    pay for it at import.
    """
    from concurrent.futures import ThreadPoolExecutor

    n = len(os.sched_getaffinity(0))
    return ThreadPoolExecutor(n, thread_name_prefix="finslerflow-worker") if n > 1 else None


def run(task, parts: list) -> None:
    """Run ``task(part)`` for every part, on the worker pool when it has one.

    Each task runs in a copy of the caller's context, so a caller's
    ``np.errstate`` holds in the workers.  Every task finishes before this
    returns or raises; the first part's exception, in part order, is raised.
    """
    pool = _pool(os.getpid()) if len(parts) > 1 else None
    if pool is None:
        for part in parts:
            task(part)
        return
    futures = [pool.submit(contextvars.copy_context().run, task, part) for part in parts]
    errors = [f.exception() for f in futures]  # waits for each task
    for exc in errors:
        if exc is not None:
            raise exc
