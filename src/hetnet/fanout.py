"""Independent jobs spread over the usable CPUs in forked processes.

fan_out runs job 0 in its caller and the others at the same time in
forked workers, which inherit every loaded module as it stands.  The
split has one level: process_count, the number of jobs to make, is the
CPU count of the affinity mask, but 1 (and fan_out runs in-process)
inside a fan-out, in its caller or its workers, beside other Python
threads, or without fork.
"""
from __future__ import annotations

import os
import threading

__all__ = ["fan_out", "process_count"]

_inside = False  # set while a fan-out runs, so its workers inherit it


def _process_count() -> int:
    """The CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def process_count() -> int:
    """Jobs a fan-out started here runs at once."""
    if _inside or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return _process_count()


def fan_out(fn, jobs: list) -> list:
    """[fn(*job) for job in jobs]; the pool is closed, and its workers
    joined, before this returns or raises."""
    global _inside
    if len(jobs) == 1 or process_count() == 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    _inside = True
    try:
        with ProcessPoolExecutor(len(jobs) - 1,
                                 mp_context=get_context("fork")) as pool:
            futures = [pool.submit(fn, *job) for job in jobs[1:]]
            return [fn(*jobs[0])] + [future.result() for future in futures]
    finally:
        _inside = False
