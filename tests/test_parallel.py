"""Tests for ``pinned_map``, which trains DTI folds and runs projector tasks, and ``serial_map``."""

import sys
import threading
import time

import pytest

from gramalign import parallel
from gramalign.parallel import blas_thread_controls, one_blas_thread, pinned_map, serial_map

CONTROLS = blas_thread_controls()
needs_openblas = pytest.mark.skipif(CONTROLS is None, reason="no OpenBLAS found beside numpy")


@pytest.fixture
def cpus(monkeypatch):
    """Report ``n`` CPUs to the map, so it starts n - 1 workers whatever the machine has."""

    def report(n):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(n)))

    return report


@pytest.fixture
def blas_at_two():
    """OpenBLAS at two threads for the test, and at its old count after it."""
    get, set_ = CONTROLS
    saved = get()
    set_(2)
    yield get
    set_(saved)


@needs_openblas
def test_every_item_once_results_in_item_order(cpus, blas_at_two):
    """More workers than cores and a short switch interval: no item is lost or run twice."""
    cpus(8)
    calls, seen = [], []

    def square(x):
        calls.append(x)
        seen.append((threading.get_ident(), blas_at_two()))
        time.sleep(0.001 * (x % 3))
        return x * x

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = pinned_map(square, range(64))
    finally:
        sys.setswitchinterval(interval)
    assert out == [x * x for x in range(64)]
    assert sorted(calls) == list(range(64))
    assert len({ident for ident, _ in seen}) > 1
    assert {threads for _, threads in seen} == {1}  # BLAS pinned while the items ran
    assert blas_at_two() == 2
    assert threading.active_count() == before


@needs_openblas
def test_first_exception_raised_after_every_thread_stops(cpus, blas_at_two):
    cpus(4)
    started, finished = [], []

    def work(x):
        started.append(x)
        if x == 5:
            raise ValueError("item 5")
        time.sleep(0.05)
        if x == 6:
            raise KeyError("item 6, which fails after item 5")
        finished.append(x)
        return x

    before = threading.active_count()
    with pytest.raises(ValueError, match="item 5"):
        pinned_map(work, range(100))
    assert sorted(finished) == sorted(set(started) - {5, 6})  # every started item ran to its end
    assert len(started) < 100  # no item was taken after the failure
    assert blas_at_two() == 2
    assert threading.active_count() == before


@needs_openblas
def test_blas_thread_count_restored(cpus, blas_at_two):
    cpus(2)
    assert pinned_map(lambda x: blas_at_two(), range(4)) == [1, 1, 1, 1]
    assert blas_at_two() == 2

    def fail(x):
        raise RuntimeError(x)

    with pytest.raises(RuntimeError):
        pinned_map(fail, range(4))
    assert blas_at_two() == 2


@pytest.mark.parametrize("why", ["one-cpu", "no-openblas", "serial-map"])
def test_plain_loop_starts_no_thread(monkeypatch, cpus, why):
    cpus(1 if why == "one-cpu" else 4)
    if why == "no-openblas":
        monkeypatch.setattr(parallel, "blas_thread_controls", lambda: None)
    run = serial_map if why == "serial-map" else pinned_map

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(parallel.threading, "Thread", no_thread)
    main = threading.get_ident()
    out = run(lambda x: (x, threading.get_ident()), range(5))
    assert out == [(x, main) for x in range(5)]
    with pytest.raises(ZeroDivisionError):
        run(lambda x: 1 / x, [1, 0, 2])


def test_empty_items():
    assert pinned_map(lambda x: x, []) == []



@pytest.mark.parametrize("count", [3, None], ids=["cpu-count", "cpu-count-unknown"])
def test_without_sched_getaffinity_cpu_count_stands_in(monkeypatch, count):
    """Python has no os.sched_getaffinity on macOS or Windows; the map reads os.cpu_count()."""
    monkeypatch.delattr(parallel.os, "sched_getaffinity")
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: count)
    assert pinned_map(lambda x: x * x, range(20)) == [x * x for x in range(20)]


def test_blas_controls_looked_up_once(monkeypatch):
    """The library cannot change while the process runs, so a second call globs nothing."""
    first = blas_thread_controls()

    def no_glob(*args, **kwargs):
        raise AssertionError("numpy.libs was searched again")

    monkeypatch.setattr(parallel.glob, "glob", no_glob)
    assert blas_thread_controls() is first


@needs_openblas
def test_blas_config_names_the_library_the_controls_drive():
    assert parallel.blas_config().startswith("OpenBLAS ")


def test_blas_config_without_openblas_is_unknown(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    assert parallel.blas_config() == "unknown" and parallel.blas_thread_controls() is None


@needs_openblas
def test_one_blas_thread_pins_and_restores(blas_at_two):
    with one_blas_thread():
        assert blas_at_two() == 1
    assert blas_at_two() == 2
    with pytest.raises(RuntimeError):
        with one_blas_thread():
            raise RuntimeError("inside")
    assert blas_at_two() == 2


def test_one_blas_thread_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(parallel, "blas_thread_controls", lambda: None)
    with one_blas_thread():
        pass


class FakeLibc:
    """A C library that records its mallopt calls; ``glibc`` decides whether it says it is one."""

    def __init__(self, glibc):
        self.calls = []
        self.mallopt = lambda param, value: self.calls.append((param, value))
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.36"


@pytest.mark.parametrize("platform, glibc, set_", [
    ("linux", True, True),
    ("linux", False, False),  # musl
    ("darwin", True, False),
    ("win32", True, False),
])
def test_keep_freed_memory_sets_glibc_malloc_only(monkeypatch, platform, glibc, set_):
    libc = FakeLibc(glibc)
    monkeypatch.setattr(parallel.sys, "platform", platform)
    monkeypatch.setattr(parallel.ctypes, "CDLL", lambda name: libc)
    parallel.keep_freed_memory()
    assert libc.calls == (list(parallel.MALLOC_SETTINGS) if set_ else [])
    assert dict(parallel.MALLOC_SETTINGS) == {-3: 32 << 20, -1: 256 << 20, -8: 1}
