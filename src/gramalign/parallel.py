"""Map a function over independent items on every CPU of this process, BLAS pinned to one thread.

numpy has no thread control of its own, so the OpenBLAS library numpy
loaded is driven through ctypes. Two Python threads that each run GEMMs on
a multi-threaded OpenBLAS oversubscribe the cores and run slower than one
after the other; with OpenBLAS at one thread, each worker's GEMMs run on
its own core. ``one_blas_thread`` holds that setting for a block of code,
and ``pinned_map`` holds it for its call. ``serial_map`` is the same map as
a plain loop on the calling thread, for a caller that picks one of the two.
``blas_config`` names that library's build.
``keep_freed_memory`` sets glibc's malloc, through ctypes too, to keep the
arrays a process frees for its later allocations, in one arena for every
thread.
"""

import ctypes
import functools
import glob
import os
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (thread getter, thread setter, config) under OpenBLAS's own names and under the
# scipy-openblas wheel's
_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads", "openblas_get_config"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_config64_"),
)


@functools.cache
def _openblas():
    """((get, set) of its thread count, config string) of the OpenBLAS numpy loaded, or None.

    The library is looked for among those bundled with the numpy wheel, which
    numpy has loaded by the time it is imported. It cannot change while the
    process runs, so it is looked up once: the glob and ``ctypes.CDLL`` took
    87 µs a call.
    """
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for names in _SYMBOLS:
            if all(hasattr(handle, name) for name in names):
                get, set_, config = (getattr(handle, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                return (get, set_), config().decode()
    return None


def blas_thread_controls():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None where none is found."""
    found = _openblas()
    return found[0] if found else None


def blas_config():
    """The config string of the OpenBLAS numpy loaded, or "unknown" where none is found."""
    found = _openblas()
    return found[1] if found else "unknown"


# mallopt parameters (glibc's malloc.h) and the values keep_freed_memory gives them
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
MALLOC_SETTINGS = (
    (_M_MMAP_THRESHOLD, 32 << 20),  # blocks up to 32 MiB, glibc's documented maximum, from the heap
    (_M_TRIM_THRESHOLD, 256 << 20),  # up to 256 MiB free at the heap's top stays mapped
    (_M_ARENA_MAX, 1),  # every thread allocates from the one arena
)


def keep_freed_memory():
    """Set glibc's malloc to MALLOC_SETTINGS for the rest of the process; elsewhere do nothing.

    By default glibc returns a freed array of a few MiB to the kernel, so the
    next array of its size faults in freshly zeroed pages: a paper-width B=512
    training step took about 30 000 minor faults. And each worker thread gets
    its own arena, so an array a worker made and the calling thread freed can
    serve only that worker's later allocations. With these settings a step
    re-uses the pages the previous step freed, whichever thread made them.
    The settings are process-wide and are not undone.
    """
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):  # another C library, such as musl
        return
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in MALLOC_SETTINGS:
        mallopt(param, value)


@contextmanager
def one_blas_thread():
    """The OpenBLAS numpy loaded at one thread inside the block; its thread count restored after.

    The setting is process-wide, so BLAS calls from every thread run
    single-threaded meanwhile. Where no OpenBLAS is found this does nothing.
    """
    controls = blas_thread_controls()
    if controls is None:
        yield
        return
    get_threads, set_threads = controls
    saved = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(saved)


def pinned_map(fn, items):
    """``[fn(x) for x in items]``, the items shared among this process's CPUs.

    The calling thread and min(CPUs, items) - 1 worker threads pull items
    from one shared index, and the results come back in item order. For the
    call, the OpenBLAS numpy loaded runs at one thread (``one_blas_thread``),
    so BLAS calls from any other thread run single-threaded meanwhile. Its
    thread count is restored before the call returns or raises.
    The first exception ``fn`` raises stops further items from being taken
    and is re-raised once every thread has stopped; no thread outlives the
    call. With one CPU, or no OpenBLAS found, this is a plain loop on the
    calling thread. ``fn`` must give the same result whichever thread runs it
    and whenever it runs.
    """
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(items)) - 1
    if workers < 1 or blas_thread_controls() is None:
        return [fn(x) for x in items]
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

    threads = []
    with one_blas_thread():
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
    if errors:
        raise errors[0]
    return results


def serial_map(fn, items):
    """``[fn(x) for x in items]``, on the calling thread alone: ``pinned_map`` as a loop."""
    return [fn(x) for x in items]
