"""split_map: the same values and bits at any CPU count, with child errors
and large payloads carried back to the parent."""

import os
import signal

import numpy as np
import pytest

from gaussvariants import _split, arith, charsums, kernels

CPU_COUNTS = (1, 2, 3)


@pytest.fixture(autouse=True)
def time_bound():
    """A split that deadlocks fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError("split_map did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_gauss_series_bits_do_not_depend_on_cpu_count(monkeypatch):
    bits = []
    for count in CPU_COUNTS:
        set_cpus(monkeypatch, count)
        rows = charsums.gauss_sum_g_series((1, 2, 3, 4, 9), (0.5, 1.5), 300)
        # past 4c = 10^4, where the dots are taken in pieces
        long_row = charsums.gauss_sum_g_series((1,), (0.5,), 2510)
        bits.append([rows.view(np.uint64).tolist(), long_row.view(np.uint64).tolist()])
    assert bits[0] == bits[1] == bits[2]


def test_cesaro_contour_bits_do_not_depend_on_cpu_count(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK", 1 << 14)
    quad = kernels.Quadrature(0.5, 4000.0, 40_000)  # three chunks
    bits = []
    for count in CPU_COUNTS:
        set_cpus(monkeypatch, count)
        rows = kernels.cesaro_contours((1.5, 2.0, 10.0), (1, 2, 3), quad)
        bits.append([[value.hex() for value in row] for row in rows])
    assert bits[0] == bits[1] == bits[2]


@pytest.mark.parametrize("count", CPU_COUNTS)
def test_trapezoid_adds_chunk_totals_in_chunk_order(monkeypatch, count):
    set_cpus(monkeypatch, count)
    monkeypatch.setattr(kernels, "_CHUNK", 1 << 14)
    quad = kernels.Quadrature(0.5, 4000.0, 40_000)  # three chunks

    def integrand(t):
        # + - * / only: each value has the same bits in a block as in a whole array
        vals = np.empty(len(t), dtype=complex)
        vals.real = 1.0 / (1.0 + t * t)
        vals.imag = t / (3.0 + t * t)
        return vals

    got = kernels._vertical_trapezoid(lambda s: [integrand(s.imag)], quad)[0]
    t = np.linspace(-quad.T, quad.T, quad.steps + 1)
    vals = integrand(t)
    vals[[0, -1]] *= 0.5
    total = 0j
    for start in range(0, len(vals), 1 << 14):
        total = total + np.sum(vals[start : start + (1 << 14)])
    assert got == total * (t[1] - t[0]) / (2 * np.pi)


@pytest.mark.parametrize("steps", [20_000, (1 << 20) - 1])
def test_contour_of_one_chunk_does_not_fork(monkeypatch, steps):
    set_cpus(monkeypatch, 2)

    def no_fork():
        raise AssertionError("a contour of at most one chunk forked")

    monkeypatch.setattr(os, "fork", no_fork)
    quad = kernels.Quadrature(30.0, 200.0, steps)
    row = kernels.cesaro_contours((0.5,), (1, 2, 3), quad)[0]
    assert all(abs(value) < 1e-6 for value in row)  # Y < 1: the kernel is 0


@pytest.mark.parametrize("count", CPU_COUNTS)
def test_items_keep_their_order_across_workers(monkeypatch, count):
    set_cpus(monkeypatch, count)
    parent = os.getpid()
    out = _split.split_map(lambda x: (x * x, os.getpid()), range(7))
    assert [value for value, _ in out] == [x * x for x in range(7)]
    # worker w computes items w, w + count, ...; worker 0 is this process
    assert [pid == parent for _, pid in out] == [x % count == 0 for x in range(7)]


def test_payload_past_a_pipe_buffer(monkeypatch):
    set_cpus(monkeypatch, 2)
    out = _split.split_map(lambda x: np.full(1 << 15, x, dtype=np.float64), range(4))
    assert [row.tolist() == [x] * (1 << 15) for x, row in enumerate(out)] == [True] * 4


@pytest.mark.parametrize("error", [ValueError, arith.TableCoverageError])  # gv exits 2 and 3
def test_child_exception_keeps_its_type(monkeypatch, error):
    set_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            raise error(f"bad item {x}")
        return x

    with pytest.raises(error, match="bad item 1") as raised:
        _split.split_map(fn, range(4))
    assert type(raised.value) is error


def test_unpicklable_child_result_is_an_error(monkeypatch):
    set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="sent no results"):
        _split.split_map(lambda x: lambda: x, range(2))


def test_parent_exception_reaps_the_children(monkeypatch):
    set_cpus(monkeypatch, 3)
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent:
            raise KeyError(x)
        return np.zeros(1 << 15)  # a child blocks on its pipe until the parent closes it

    with pytest.raises(KeyError):
        _split.split_map(fn, range(6))


def test_without_fork_runs_in_process(monkeypatch):
    set_cpus(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    out = _split.split_map(lambda x: (x + 1, os.getpid()), range(5))
    assert out == [(x + 1, parent) for x in range(5)]
