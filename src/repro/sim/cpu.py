"""Round-robin CPU core model.

A :class:`CpuCore` is the simulator's stand-in for one vCPU (or one pinned
host core).  Work is submitted as a number of CPU-nanoseconds plus a label;
the core time-slices all runnable work with a fixed quantum, so when the
virtio-mem driver migrates pages on the same vCPU that runs a function
instance, both slow down — this is the mechanism behind the interference
spikes of Figure 10 in the paper.

Per-label accounting mirrors the paper's use of the ``cpuacct`` cgroup
controller (Section 5.4): the evaluation isolates the vCPU that serves
virtio-mem interrupts and reports exactly the CPU time that the unplug
path consumed on it (Figure 7).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator, _ScheduledCall
from repro.units import MS

__all__ = ["CpuCore", "CpuWork"]

#: Default scheduling quantum (2 ms, in the ballpark of CFS slices).
DEFAULT_QUANTUM_NS = 2 * MS


class CpuWork:
    """A unit of work queued on a core.

    Attributes
    ----------
    label:
        Accounting label (e.g. ``"virtio-mem"`` or ``"fn:cnn"``).
    remaining:
        CPU-nanoseconds still to execute.
    done:
        Event triggered (with this object) when the work completes.
    """

    __slots__ = ("label", "remaining", "done", "submitted_at", "completed_at")

    def __init__(self, label: str, work_ns: int, done: Event, submitted_at: int):
        self.label = label
        self.remaining = int(work_ns)
        self.done = done
        self.submitted_at = submitted_at
        self.completed_at: Optional[int] = None


class CpuCore:
    """A single core scheduled round-robin with a fixed quantum.

    The scheduler is non-preemptive within a slice: a newly submitted task
    waits at most one quantum before it first runs.  This is a faithful
    enough model of CFS for the per-second latency granularity the paper
    reports, while staying exactly deterministic.

    A task dispatched onto an empty run queue with at least two quanta
    left is a *solo run*: its slice-end call is inline-advanced by the
    simulator one quantum at a time (``stride``) up to its last quantum
    boundary, so the uncontended slice ends in between cost no callback.
    The finished quanta are credited arithmetically, by accounting reads
    and by a ``submit`` that ends the solo run.  Timing, accounting and
    event order are exactly those of one slice-end callback per quantum.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu",
        quantum_ns: int = DEFAULT_QUANTUM_NS,
    ):
        if quantum_ns <= 0:
            raise SimulationError("quantum must be positive")
        self.sim = sim
        self.name = name
        self.quantum_ns = quantum_ns
        self._run_queue: Deque[CpuWork] = deque()
        self._current: Optional[CpuWork] = None
        self._busy_ns = 0
        self._busy_by_label: Dict[str, int] = {}
        #: The current task's inline-advanced slice end while it runs
        #: solo, and the time the solo run started.
        self._solo: Optional[_ScheduledCall] = None
        self._solo_start = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, work_ns: int, label: str = "") -> Event:
        """Queue ``work_ns`` nanoseconds of CPU work; returns its done event.

        Zero-length work completes immediately (at the current time).
        """
        if work_ns < 0:
            raise SimulationError(f"negative work: {work_ns}")
        done = self.sim.event()
        if work_ns == 0:
            done.trigger(None)
            return done
        work = CpuWork(label, work_ns, done, self.sim.now)
        self._run_queue.append(work)
        if self._current is None:
            self._dispatch()
        elif self._solo is not None:
            self._end_solo(self._solo)
        return work.done

    def run(self, work_ns: int, label: str = ""):
        """Generator helper: ``yield from core.run(...)`` inside a process."""
        done = self.submit(work_ns, label)
        yield done

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self._current is not None or not self._run_queue:
            return
        work = self._run_queue.popleft()
        self._current = work
        quantum = self.quantum_ns
        if self._run_queue or work.remaining < 2 * quantum:
            slice_ns = min(quantum, work.remaining)
            self.sim.schedule(slice_ns, self._on_slice_end, work, slice_ns)
            return
        # Solo run: one call, keyed like the per-slice chain's first
        # slice end, that ends at the last quantum boundary of the work
        # and charges every quantum up to it.
        run_ns = work.remaining - work.remaining % quantum
        now = self.sim.now
        call = self.sim.schedule(quantum, self._on_slice_end, work, run_ns)
        call.stride = quantum
        call.stride_end = now + run_ns
        self._solo = call
        self._solo_start = now

    def _solo_done_ns(self) -> int:
        """CPU-ns of the solo run's quanta that ended before its pending
        slice end (0 when not running solo)."""
        call = self._solo
        if call is None:
            return 0
        return call.time - self._solo_start - self.quantum_ns

    def _end_solo(self, call: _ScheduledCall) -> None:
        """Turn the solo run's pending ``call`` back into an ordinary slice
        end at its current key, crediting the quanta finished before it."""
        work = call.args[0]
        done_ns = self._solo_done_ns()
        self._solo = None
        call.stride = 0
        call.args = (work, self.quantum_ns)
        if done_ns:
            self._busy_ns += done_ns
            self._busy_by_label[work.label] = (
                self._busy_by_label.get(work.label, 0) + done_ns
            )
            work.remaining -= done_ns

    def _on_slice_end(self, work: CpuWork, slice_ns: int) -> None:
        self._solo = None
        self._busy_ns += slice_ns
        self._busy_by_label[work.label] = (
            self._busy_by_label.get(work.label, 0) + slice_ns
        )
        work.remaining -= slice_ns
        self._current = None
        if work.remaining > 0:
            self._run_queue.append(work)
        else:
            work.completed_at = self.sim.now
            work.done.trigger(work)
        self._dispatch()

    # ------------------------------------------------------------------
    # Introspection / accounting
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether a slice is currently executing."""
        return self._current is not None

    @property
    def queue_depth(self) -> int:
        """Number of tasks waiting (excluding the one on-core)."""
        return len(self._run_queue)

    @property
    def busy_ns(self) -> int:
        """Total CPU-nanoseconds executed on this core (completed slices)."""
        return self._busy_ns + self._solo_done_ns()

    def busy_ns_for(self, label: str) -> int:
        """CPU-nanoseconds charged to an exact accounting label."""
        return self.accounting().get(label, 0)

    def busy_ns_for_prefix(self, prefix: str) -> int:
        """CPU-nanoseconds charged to all labels starting with ``prefix``."""
        return sum(
            ns for label, ns in self.accounting().items() if label.startswith(prefix)
        )

    def accounting(self) -> Dict[str, int]:
        """A copy of the per-label CPU-time table (label → ns)."""
        table = dict(self._busy_by_label)
        done_ns = self._solo_done_ns()
        if done_ns:
            label = self._current.label  # type: ignore[union-attr]
            table[label] = table.get(label, 0) + done_ns
        return table

    def utilization(self, since_ns: int = 0) -> float:
        """Fraction of wall time this core was busy since ``since_ns``."""
        elapsed = self.sim.now - since_ns
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_ns / elapsed)

    def __repr__(self) -> str:
        state = "busy" if self.busy else "idle"
        return f"<CpuCore {self.name} {state} queue={self.queue_depth}>"
