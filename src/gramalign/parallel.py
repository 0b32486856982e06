"""Map a function over independent items on every CPU of this process, BLAS pinned to one thread.

numpy has no thread control of its own, so the OpenBLAS library numpy
loaded is driven through ctypes. Two Python threads that each run GEMMs on
a multi-threaded OpenBLAS oversubscribe the cores and run slower than one
after the other; with OpenBLAS at one thread, each worker's GEMMs run on
its own core.
"""

import ctypes
import glob
import os
import threading
from pathlib import Path

import numpy as np

# (getter, setter) under OpenBLAS's own names and under the scipy-openblas wheel's
_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


def blas_thread_controls():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None where none is found.

    The library is looked for among those bundled with the numpy wheel, which
    numpy has loaded by the time it is imported.
    """
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                get, set_ = getattr(handle, get_name), getattr(handle, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def pinned_map(fn, items):
    """``[fn(x) for x in items]``, the items shared among this process's CPUs.

    The calling thread and min(CPUs, items) - 1 worker threads pull items
    from one shared index, and the results come back in item order. For the
    call, the OpenBLAS numpy loaded runs at one thread; that setting is
    process-wide, so BLAS calls from any other thread run single-threaded
    meanwhile. Its thread count is restored before the call returns or raises.
    The first exception ``fn`` raises stops further items from being taken
    and is re-raised once every thread has stopped; no thread outlives the
    call. With one CPU, or no OpenBLAS found, this is a plain loop on the
    calling thread. ``fn`` must give the same result whichever thread runs it
    and whenever it runs.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(items)) - 1
    controls = blas_thread_controls() if workers > 0 else None
    if controls is None:
        return [fn(x) for x in items]
    get_threads, set_threads = controls
    results, errors = [None] * len(items), []
    claim, lock, stop = iter(range(len(items))), threading.Lock(), threading.Event()

    def drain():
        while not stop.is_set():
            with lock:
                i = next(claim, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as e:  # re-raised on the calling thread below
                errors.append(e)
                stop.set()

    saved = get_threads()
    set_threads(1)
    threads = []
    try:
        for _ in range(workers):
            thread = threading.Thread(target=drain)
            thread.start()
            threads.append(thread)
        drain()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
        set_threads(saved)
    if errors:
        raise errors[0]
    return results
