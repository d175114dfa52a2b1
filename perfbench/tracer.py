"""In-process tracing of cyclebound's layers, hooked from outside the package.

Every hook replaces a module attribute that a caller looks up at call
time (``simulator.cycle_bounds``, not ``bounds.cycle_bounds``, because
``simulator.cycle_extreme_report`` resolves the name in its own module),
so the package source stays untouched.  Spans (hook, start, end, depth)
are appended to one flat in-memory array in the order they close;
parents are recovered from that order when the spans are read, and the
spans are written out once, when the benchmark ends.  Tracing is
single-threaded: only ``jobs=1`` work may run while a :class:`Tracer`
is installed.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# region4 names as harness imports them (proof_spotchecks resolves these)
REGION4_IN_HARNESS = (
    "growth_ratio_quadratic",
    "handoff_cap_bound",
    "handoff_cap_envelope",
    "alpha_factors",
    "alpha2_peak",
)

_CALIBRATION_CALLS = 50_000


def _noop() -> None:
    return None


class Tracer:
    """Span store plus the hooks that fill it.

    A traced call costs ``overhead_in`` seconds inside its own span and
    ``overhead_out`` seconds outside it (charged to the parent); both are
    measured on a no-op when the tracer is created and subtracted from
    the times :meth:`layer_times` reports.
    """

    def __init__(self) -> None:
        self.hooks: list[tuple[str, str]] = []  # hook id -> (span name, hooked attribute)
        self.records = array("d")  # (hook id, start, end, depth) per span, in closing order
        self._depth = [0]
        # one (accepted steps, raw events, net events) triple per
        # instrumented loop, i.e. integrate(keep_samples=True)
        self.loops: list[tuple[int, int, int]] = []
        self.steps = 0
        self.origin = perf_counter()
        self.overhead_in, self.overhead_out = self._calibrate()

    def _calibrate(self) -> tuple[float, float]:
        traced = self.span(_noop, "calibration", "calibration")
        t0 = perf_counter()
        for _ in range(_CALIBRATION_CALLS):
            _noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(_CALIBRATION_CALLS):
            traced()
        wall = perf_counter() - t0
        r = self.records
        inside = sum(r[i + 2] - r[i + 1] for i in range(0, len(r), 4)) / _CALIBRATION_CALLS
        del self.records[:]
        self.hooks.clear()
        per_call_extra = (wall - bare) / _CALIBRATION_CALLS
        overhead_in = max(inside - bare / _CALIBRATION_CALLS, 0.0)
        return overhead_in, max(per_call_extra - overhead_in, 0.0)

    def _hook_id(self, name: str, key: str) -> float:
        self.hooks.append((name, key))
        return float(len(self.hooks) - 1)

    def span(self, fn, name: str, key: str):
        hook = self._hook_id(name, key)
        depth = self._depth
        record = self.records.extend

        def traced(*args, **kwargs):
            depth[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[0] -= 1
                record((hook, t0, t1, depth[0]))

        return traced

    def _integrate(self, fn, net_events):
        tour = self._hook_id("simulator.integrate.tour", "simulator.integrate")
        loop = self._hook_id("simulator.integrate.loop", "simulator.integrate")
        depth = self._depth
        record = self.records.extend

        def traced(*args, **kwargs):
            keep = kwargs.get("keep_samples", True)
            steps_before = self.steps
            depth[0] += 1
            t0 = perf_counter()
            try:
                traj = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[0] -= 1
                record((loop if keep else tour, t0, t1, depth[0]))
            if keep:
                events = traj.events
                self.loops.append((self.steps - steps_before, len(events), len(net_events(events))))
            return traj

        return traced

    def _counting_solver(self, solver_cls):
        tracer = self

        class CountingSolver(solver_cls):
            def step(self):
                tracer.steps += 1
                return super().step()

        return CountingSolver

    @contextmanager
    def installed(self, bounds, harness, lvroot, region4, simulator):
        """Hook every traced attribute for the duration of the block."""
        hooks = [
            (harness, "run_sweep", "harness.run_sweep"),
            (harness, "proof_spotchecks", "harness.proof_spotchecks"),
            (harness, "cycle_extreme_report", "simulator.cycle_extreme_report"),
            (simulator, "cycle_bounds", "bounds.cycle_bounds"),
            (simulator, "limit_cycle", "simulator.limit_cycle"),
            (bounds, "cycle_bounds", "bounds.cycle_bounds"),
            (bounds, "canard_estimates", "bounds.canard_estimates"),
            (bounds, "z", "lvroot.z"),
            (region4, "z", "lvroot.z"),
            (lvroot, "z_exact", "lvroot.z_exact"),
            (lvroot, "lv_small_root_ln", "lvroot.lv_small_root_ln"),
        ] + [(harness, name, f"region4.{name}") for name in REGION4_IN_HARNESS]
        replacements = [
            (module, attr, self.span(getattr(module, attr), name, f"{module.__name__}.{attr}"))
            for module, attr, name in hooks
        ]
        replacements += [
            (simulator, "integrate", self._integrate(simulator.integrate, simulator.net_events)),
            (simulator, "RK45", self._counting_solver(simulator.RK45)),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
        try:
            for module, attr, replacement in replacements:
                setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, original in originals:
                setattr(module, attr, original)

    def _parents(self) -> list[int]:
        """Parent span index of each span (-1 for a root), from closing order:
        when a span at depth d closes, the spans at depth d + 1 that closed
        since the previous depth-d close are its children."""
        r = self.records
        parents = [-1] * (len(r) // 4)
        pending: dict[int, list[int]] = {}
        for i in range(len(parents)):
            depth = int(r[4 * i + 3])
            for child in pending.pop(depth + 1, ()):
                parents[child] = i
            pending.setdefault(depth, []).append(i)
        return parents

    def counts(self) -> Counter:
        """Calls per hooked attribute, e.g. ``cyclebound.bounds.z``."""
        r = self.records
        return Counter(self.hooks[int(r[i])][1] for i in range(0, len(r), 4))

    def layer_times(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.  Both are net of the calibrated tracing overhead: each
        span loses its own ``overhead_in`` plus both overheads of every
        descendant, and a parent's self time loses ``overhead_out`` per
        direct child.
        """
        r = self.records
        parents = self._parents()
        n = len(parents)
        per_call = self.overhead_in + self.overhead_out
        descendants = [0] * n
        child_time = [0.0] * n
        children = [0] * n
        raw = [r[4 * i + 2] - r[4 * i + 1] for i in range(n)]
        for i in range(n):  # children close before their parent
            parent = parents[i]
            if parent >= 0:
                descendants[parent] += 1 + descendants[i]
                child_time[parent] += raw[i]
                children[parent] += 1
        table: dict[str, dict] = {}
        for i in range(n):
            name = self.hooks[int(r[4 * i])][0]
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += raw[i] - self.overhead_in - descendants[i] * per_call
            row["self_s"] += (
                raw[i] - child_time[i] - self.overhead_in - children[i] * self.overhead_out
            )
        return table

    def write_spans(self, path: Path) -> None:
        """Write every span as gzip'd CSV: index, name, start, end, parent index."""
        r = self.records
        parents = self._parents()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,name,start_s,end_s,parent\n")
            for i, parent in enumerate(parents):
                out.write(
                    f"{i},{self.hooks[int(r[4 * i])][0]},{r[4 * i + 1] - self.origin:.9f},"
                    f"{r[4 * i + 2] - self.origin:.9f},{parent}\n"
                )

    def loop_stats(self) -> dict[str, float]:
        steps = [s for s, _, _ in self.loops]
        return {
            "loops": len(self.loops),
            "steps_median": float(statistics.median(steps)) if steps else 0.0,
            "steps_max": float(max(steps, default=0)),
            "raw": float(sum(r for _, r, _ in self.loops)),
            "net": float(sum(n for _, _, n in self.loops)),
        }
