"""Layer timing: wrap each layer's public entry points from outside.

:class:`LayerTiming` replaces methods of the program's classes with
counting (and, for plain functions, timing) wrappers while it is
entered, and puts every original back on exit.  Nothing under ``src/``
knows about it.  A layer's ``*.self_s`` is host time inside its wrapped
calls minus the time of wrapped calls nested inside them, so the
``sim.run`` and ``sweep.execute_cell`` self times also hold every
unwrapped line their callees run.

Generator functions (simulator processes such as ``Agent.handle``) are
counted, never timed: their host time is spread over many resumptions
that run inside ``Simulator.run``.  Where a metric needs a process's
result, the wrapper delegates with ``yield from``, which forwards
``send``/``throw``/``close`` unchanged, and copies the original's name
so the generator objects are named as before.

The metric names are the ``per_layer`` names of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LayerTiming", "EventCounter", "percentile"]

Metric = Tuple[float, str]


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any, Any]] = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        if name not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {name!r} of its own")
        original = vars(owner)[name]
        setattr(owner, name, value)
        self._undo.append((owner, name, original, value))

    def original(self, owner: Any, name: str) -> Any:
        return vars(owner)[name]

    def restore(self) -> None:
        while self._undo:
            owner, name, original, wrapper = self._undo.pop()
            if vars(owner).get(name) is not wrapper:
                raise RuntimeError(
                    f"{owner.__name__}.{name} was replaced again while "
                    f"layer timing was active"
                )
            setattr(owner, name, original)


def _subclasses_defining(base: type, name: str) -> Iterator[type]:
    seen = set()
    stack = [base]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
                if name in vars(sub):
                    yield sub


class EventCounter:
    """Counts simulator callbacks executed, per cell and in total.

    Every :class:`~repro.sim.engine.Simulator` built while entered gets
    one probe, the C-level ``__next__`` of an :func:`itertools.count`,
    which the engine calls after each executed callback.
    """

    def __init__(self) -> None:
        self._counters: List[Iterator[int]] = []
        self._patches = _Patches()

    def __enter__(self) -> "EventCounter":
        import itertools

        from repro.sim.engine import Simulator

        original = self._patches.original(Simulator, "__init__")
        counters = self._counters

        @functools.wraps(original)
        def __init__(sim: Simulator, *args: Any, **kwargs: Any) -> None:
            original(sim, *args, **kwargs)
            counter = itertools.count()
            counters.append(counter)
            sim.add_probe(counter.__next__)

        self._patches.replace(Simulator, "__init__", __init__)
        return self

    def take(self) -> int:
        """Callbacks executed since the last call (reads each probe once:
        a simulator must be finished before its cell is taken)."""
        total = sum(next(counter) for counter in self._counters)
        self._counters.clear()
        return total

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()
        self._counters.clear()


class LayerTiming:
    """Per-layer call counts, self times and outcomes for one pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.scheduled: Counter = Counter()
        self._stack: List[float] = []
        self._patches = _Patches()
        # Per-pass outcome samples.
        self.cpu_work_ns = 0
        self.cpu_wait_ns: List[int] = []
        self._cpu_pending: List[Tuple[int, Any]] = []
        self.migrated_pages = 0
        self.plug_ns: List[int] = []
        self.unplug_ns: List[int] = []
        self.unplug_partial = 0
        self.invocations = 0
        self.invocation_failures = 0
        self.cold_starts = 0
        self.rejections = 0
        self._routers: List[Any] = []
        self.spans = 0
        self.export_bytes = 0
        self.cell_s: List[float] = []

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def _timed(self, key: str, fn: Callable[..., Any],
               on_result: Optional[Callable[[Any], None]] = None
               ) -> Callable[..., Any]:
        """Count and time a plain function."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count calls (of a generator function: processes created)."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _process(self, key: str, fn: Callable[..., Any],
                 on_result: Callable[[Any], None]) -> Callable[..., Any]:
        """Count a process generator and hand its return value on."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            result = yield from fn(*args, **kwargs)
            on_result(result)
            return result

        return wrapper

    def _wrap(self, owner: Any, name: str,
              factory: Callable[[Callable[..., Any]], Callable[..., Any]]
              ) -> None:
        """Replace ``owner.name`` with ``factory(original)``."""
        self._patches.replace(
            owner, name, factory(self._patches.original(owner, name))
        )

    # ------------------------------------------------------------------
    # Outcome recorders
    # ------------------------------------------------------------------
    def _schedule_at(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        scheduled = self.scheduled
        kinds: Dict[Optional[str], str] = {}

        @functools.wraps(fn)
        def schedule_at(sim: Any, time_ns: int, callback: Any, *args: Any) -> Any:
            module = getattr(callback, "__module__", None)
            kind = kinds.get(module)
            if kind is None:
                kind = kinds[module] = {
                    "repro.sim.cpu": "cpu_slice",
                    "repro.sim.engine": "process",
                }.get(module or "", "other")
            scheduled[kind] += 1
            return fn(sim, time_ns, callback, *args)

        return schedule_at

    def _cpu_submit(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        pending = self._cpu_pending
        timed = self._timed("cpu.submit", fn)

        @functools.wraps(fn)
        def submit(core: Any, work_ns: int, *args: Any, **kwargs: Any) -> Any:
            done = timed(core, work_ns, *args, **kwargs)
            pending.append((work_ns, done))
            return done

        return submit

    def _on_migrated(self, outcome: Any) -> None:
        self.migrated_pages += outcome.migrated_pages

    def _on_plug(self, result: Any) -> None:
        self.plug_ns.append(result.latency_ns)

    def _on_unplug(self, result: Any) -> None:
        self.unplug_ns.append(result.latency_ns)
        if not result.fully_unplugged:
            self.unplug_partial += 1

    def _on_invocation(self, record: Any) -> None:
        self.invocations += 1
        if not record.ok:
            self.invocation_failures += 1
        if record.cold:
            self.cold_starts += 1

    def _router_init(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        routers = self._routers

        @functools.wraps(fn)
        def __init__(router: Any, *args: Any, **kwargs: Any) -> None:
            fn(router, *args, **kwargs)
            routers.append(router)

        return __init__

    def _on_export(self, summary: Any) -> None:
        self.spans += summary.spans
        self.export_bytes += os.path.getsize(summary.path)

    def _execute_cell(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self._timed("sweep.execute_cell", fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def execute_cell(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return timed(*args, **kwargs)
            finally:
                self.cell_s.append(clock() - start)
                self._end_cell()

        return execute_cell

    def _end_cell(self) -> None:
        """Fold samples that need the finished cell's state."""
        for work_ns, done in self._cpu_pending:
            self.cpu_work_ns += work_ns
            work = done.value
            if work is not None and work.completed_at is not None:
                self.cpu_wait_ns.append(
                    work.completed_at - work.submitted_at - work_ns
                )
        self._cpu_pending.clear()
        self.rejections += sum(len(r.rejections) for r in self._routers)
        self._routers.clear()

    # ------------------------------------------------------------------
    # Install / remove
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTiming":
        import repro.experiments.__main__  # noqa: F401  (load every class)
        from repro.cluster.provision import Fleet
        from repro.cluster.routing import RoutingPolicy, TraceRouter
        from repro.core.manager import HotMemManager
        from repro.faas.agent import Agent
        from repro.faas.lifecycle import EvictionPolicy
        from repro.mm.manager import GuestMemoryManager
        from repro.mm.placement import PlacementPolicy
        from repro.obs import export
        from repro.sim.cpu import CpuCore
        from repro.sim.engine import Simulator
        from repro.sweep import runner
        from repro.virtio.device import VirtioMemDevice

        wrap = self._wrap

        def timed(key: str, on_result: Optional[Callable[[Any], None]] = None):
            return lambda fn: self._timed(key, fn, on_result)

        def counted(key: str):
            return lambda fn: self._counted(key, fn)

        def process(key: str, on_result: Callable[[Any], None]):
            return lambda fn: self._process(key, fn, on_result)

        try:
            wrap(Simulator, "schedule_at", self._schedule_at)
            wrap(Simulator, "run", timed("sim.run"))
            wrap(CpuCore, "submit", self._cpu_submit)
            for name in ("alloc_pages", "free_pages", "free_all",
                         "offline_and_remove"):
                wrap(GuestMemoryManager, name, timed(f"mm.{name}"))
            wrap(GuestMemoryManager, "migrate_block_out",
                 timed("mm.migrate_block_out", self._on_migrated))
            for cls in _subclasses_defining(PlacementPolicy, "plan"):
                wrap(cls, "plan", timed("mm.plan"))
            wrap(VirtioMemDevice, "plug", process("virtio.plug", self._on_plug))
            wrap(VirtioMemDevice, "unplug",
                 process("virtio.unplug", self._on_unplug))
            wrap(HotMemManager, "try_attach", timed("core.try_attach"))
            wrap(HotMemManager, "attach", counted("core.attach"))
            wrap(Agent, "handle", process("faas.handle", self._on_invocation))
            wrap(Agent, "recycle_pass", counted("faas.recycle_pass"))
            for cls in _subclasses_defining(EvictionPolicy, "rank"):
                wrap(cls, "rank", timed("faas.lifecycle.rank"))
            for cls in _subclasses_defining(RoutingPolicy, "select"):
                wrap(cls, "select", timed("cluster.route"))
            wrap(Fleet, "admit", timed("cluster.admit"))
            wrap(TraceRouter, "__init__", self._router_init)
            wrap(export, "context_rows", timed("obs.context_rows"))
            wrap(export, "write_rows", timed("obs.write_rows", self._on_export))
            wrap(runner, "execute_cell", self._execute_cell)
        except BaseException:
            self._patches.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Metric]:
        """This pass's per-layer metrics (name -> (value, unit))."""
        calls, self_s = self.calls, self.self_s
        submits = calls["cpu.submit"]
        unplugs = calls["virtio.unplug"]
        out: Dict[str, Metric] = {
            "sim.scheduled": (sum(self.scheduled.values()), "count"),
            "sim.scheduled.cpu_slice": (self.scheduled["cpu_slice"], "count"),
            "sim.scheduled.process": (self.scheduled["process"], "count"),
            "sim.scheduled.other": (self.scheduled["other"], "count"),
            "sim.run.self_s": (self_s["sim.run"], "s"),
            "cpu.submits": (submits, "count"),
            "cpu.slices_per_submit": (
                self.scheduled["cpu_slice"] / submits if submits else 0.0,
                "ratio",
            ),
            "cpu.work_ms": (self.cpu_work_ns / 1e6, "ms"),
            "cpu.wait_ms_p50": (percentile(self.cpu_wait_ns, 50) / 1e6, "ms"),
            "cpu.wait_ms_p99": (percentile(self.cpu_wait_ns, 99) / 1e6, "ms"),
            "cpu.submit.self_s": (self_s["cpu.submit"], "s"),
        }
        for name in ("alloc_pages", "free_pages", "free_all",
                     "migrate_block_out", "offline_and_remove", "plan"):
            out[f"mm.{name}.calls"] = (calls[f"mm.{name}"], "count")
            out[f"mm.{name}.self_s"] = (self_s[f"mm.{name}"], "s")
        out["mm.migrated_pages"] = (self.migrated_pages, "count")
        out.update({
            "virtio.plug.requests": (calls["virtio.plug"], "count"),
            "virtio.unplug.requests": (unplugs, "count"),
            "virtio.plug.sim_ms_p50": (percentile(self.plug_ns, 50) / 1e6, "ms"),
            "virtio.plug.sim_ms_p99": (percentile(self.plug_ns, 99) / 1e6, "ms"),
            "virtio.unplug.sim_ms_p50": (
                percentile(self.unplug_ns, 50) / 1e6, "ms"),
            "virtio.unplug.sim_ms_p99": (
                percentile(self.unplug_ns, 99) / 1e6, "ms"),
            "virtio.unplug.partial": (
                self.unplug_partial / unplugs if unplugs else 0.0, "ratio"),
            "core.try_attach.calls": (calls["core.try_attach"], "count"),
            "core.try_attach.self_s": (self_s["core.try_attach"], "s"),
            "core.attach.calls": (calls["core.attach"], "count"),
            "faas.invocations": (self.invocations, "count"),
            "faas.failures": (self.invocation_failures, "count"),
            "faas.cold_starts": (self.cold_starts, "count"),
            "faas.recycle_pass.calls": (calls["faas.recycle_pass"], "count"),
            "faas.lifecycle.rank.calls": (calls["faas.lifecycle.rank"], "count"),
            "faas.lifecycle.rank.self_s": (self_s["faas.lifecycle.rank"], "s"),
            "cluster.route.calls": (calls["cluster.route"], "count"),
            "cluster.route.self_s": (self_s["cluster.route"], "s"),
            "cluster.admit.calls": (calls["cluster.admit"], "count"),
            "cluster.admit.self_s": (self_s["cluster.admit"], "s"),
            "cluster.rejections": (self.rejections, "count"),
            "obs.spans": (self.spans, "count"),
            "obs.export_bytes": (self.export_bytes, "bytes"),
            "obs.context_rows.self_s": (self_s["obs.context_rows"], "s"),
            "obs.write_rows.self_s": (self_s["obs.write_rows"], "s"),
            "sweep.cells": (len(self.cell_s), "count"),
            "sweep.cell_s_p50": (percentile(self.cell_s, 50), "s"),
            "sweep.cell_s_max": (max(self.cell_s, default=0.0), "s"),
            "sweep.execute_cell.self_s": (self_s["sweep.execute_cell"], "s"),
        })
        return out

