"""Machine-speed calibration, so that timings from a drifting machine compare.

The CPU speed of a small shared machine drifts: on a shared 2-vCPU
Xeon VM (2.0 GHz), one cycle_extreme_report call varied by 30%
(interquartile range over a minute) with the machine otherwise idle.
A calibration sample timed next to it tracks that drift: a fixed mix
of the work cyclebound does, Python calls, small-object allocation,
``math`` functions and NumPy operations on tiny arrays (scipy's
integrator steps are the latter).  A plain float loop tracked it much
worse: over a minute, 10 s medians of the bound-set time divided by it
were up to 20% off their median, against 2% with this mix.  So
every timed span is paired with calibration samples, ``SAMPLES`` right
before it and ``SAMPLES`` right after, and its wall time is rescaled to
the machine speed at which one sample takes ``REFERENCE_S``:

    normalized = wall * REFERENCE_S / interquartile mean(samples around it)

The interquartile mean (the mean of the middle half) keeps one disturbed
sample from rescaling a long span, and unlike the median it does not
flip between the two values that samples take when the host takes time
slices away (see :func:`parallel_samples`).

A change to cyclebound moves the wall time but not the calibration sample,
so it moves the normalized time by the same factor.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
from contextlib import contextmanager
from time import perf_counter

REFERENCE_S = 0.0025  # one calibration sample at the reference speed
SAMPLES = 3  # calibration samples on each side of a timed span
PARALLEL_SAMPLES = 16  # per process, on each side of a span on several CPUs
PYTHON_ROUNDS = 720  # rounds of Python calls, allocation and math per sample
NUMPY_ROUNDS = 180  # rounds of tiny-array NumPy operations per sample
IMPORT_CALIBRATION_ITERATIONS = 40_000  # float loop of the set-up probe


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _terms(p: _Point, k: int) -> tuple:
    y = p.x * k + 1.0
    e = math.exp(-y)
    return y * e, math.sqrt(y) + math.log(y), max(e, 0.0)


def calibration_sample() -> float:
    """Seconds one fixed mix of Python and tiny-array NumPy work takes right now."""
    import numpy as np  # here, so that the set-up probe's import of cyclebound loads it

    t0 = perf_counter()
    coefficients = {"x": 0.05, "y": 2.0}
    total = 0.0
    for k in range(PYTHON_ROUNDS):
        terms = _terms(_Point(coefficients["x"], coefficients["y"]), k % 17)
        total += terms[0] + terms[1]
    y, stages = np.array([0.3, -1.2]), np.zeros((3, 2))
    for _ in range(NUMPY_ROUNDS):
        stages[0] = y * 0.5
        step = y + 0.1 * np.dot(stages[:1].T, np.array([0.2]))
        total += float(np.max(np.abs(step) / (1e-6 + np.abs(y) * 1e-3)))
    return perf_counter() - t0


def import_calibration_sample() -> float:
    """Seconds one fixed pure-Python float loop takes right now.

    The set-up probe's calibration: it needs no import, so it can run
    right before ``import cyclebound`` as well as after it, and import
    time tracked it better than it tracked the mix above (over 30 fresh
    interpreters, normalizing by the mix widened the spread of the import
    time from 0.13 to 0.22; by this loop, to 0.14).
    """
    t0 = perf_counter()
    total = 0.0
    for i in range(IMPORT_CALIBRATION_ITERATIONS):
        total += i * 0.5
    return perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor from wall seconds to reference seconds, given the samples around them."""
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    return REFERENCE_S / statistics.fmean(ordered[quarter:len(ordered) - quarter])


def _samples_after(barrier, queue) -> None:
    barrier.wait()
    queue.put([calibration_sample() for _ in range(PARALLEL_SAMPLES)])


def parallel_samples(workers: int) -> list[float]:
    """``PARALLEL_SAMPLES`` calibration samples in each of ``workers``
    processes at once.

    A span that keeps several CPUs busy (the jobs=2 sweep) is slowed by
    what slows any of them: with two busy processes, samples often come
    out one 4 ms time slice longer than with one.  The processes wait at
    a barrier so that none samples while another is still starting up.
    """
    # fork: spawn and forkserver start multiprocessing's resource tracker,
    # a helper process that would outlive the benchmark
    ctx = multiprocessing.get_context("fork")
    barrier, queue = ctx.Barrier(workers), ctx.Queue()
    procs = [ctx.Process(target=_samples_after, args=(barrier, queue)) for _ in range(workers)]
    for proc in procs:
        proc.start()
    try:
        samples = [t for _ in procs for t in queue.get(timeout=60)]
    finally:
        for proc in procs:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.terminate()
                proc.join()
    return samples


def stop_child_processes() -> None:
    """Wait for every process multiprocessing started in this process,
    and stop its helpers (the resource tracker and the fork server,
    which a spawn or forkserver pool of the code under test starts and
    which otherwise run until this process has exited)."""
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


class OpTimer:
    """Normalized times of unit operations, plus the seconds spent calibrating."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.calibration_s = 0.0

    def _calibrate(self) -> list[float]:
        samples = [calibration_sample() for _ in range(SAMPLES)]
        self.calibration_s += sum(samples)
        return samples

    def each(self, fn, items) -> list:
        """``fn`` over ``items``, each call a timed unit operation, all of
        them between one calibration before and one after."""
        before = self._calibrate()
        results, walls = [], []
        for item in items:
            t0 = perf_counter()
            results.append(fn(item))
            walls.append(perf_counter() - t0)
        factor = scale(before + self._calibrate())
        self.times.extend(w * factor for w in walls)
        return results

    def once(self, fn, workers: int = 1):
        """(result, normalized seconds) of one call of ``fn``, which keeps
        ``workers`` CPUs busy."""
        calibrate = self._calibrate if workers == 1 else lambda: parallel_samples(workers)
        before = calibrate()
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        return result, wall * scale(before + calibrate())

    @contextmanager
    def hooked(self, module, attr: str):
        """Time every call of ``module.attr`` as one unit operation."""
        original = getattr(module, attr)

        def call(*args, **kwargs):
            result, seconds = self.once(lambda: original(*args, **kwargs))
            self.times.append(seconds)
            return result

        setattr(module, attr, call)
        try:
            yield
        finally:
            setattr(module, attr, original)
