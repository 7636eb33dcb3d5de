# sgblint: module=repro.obs.fixture_resource_good
"""SGB010 true negatives: with-blocks, finally releases, and ownership
transfer by escape."""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs import memory_tracking
from repro.obs.profile import SamplingProfiler


def measure(samples):
    with memory_tracking():
        return sum(samples)


def measure_if(samples, memory):
    with memory_tracking() if memory else None:
        return sum(samples)


def run_tasks(tasks):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return [pool.submit(str, t) for t in tasks]


def sample(fn):
    prof = SamplingProfiler()
    try:
        fn()
    finally:
        prof.stop()


def make_pool():
    pool = ThreadPoolExecutor(max_workers=2)
    return pool  # escapes: release is the caller's job


class Holder:
    def __init__(self):
        self._guard = threading.Lock()
        self._value = 0

    def bump(self):
        self._guard.acquire()
        try:
            self._value += 1
        finally:
            self._guard.release()
