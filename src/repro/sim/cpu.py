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
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator, _ScheduledCall
from repro.units import MS

__all__ = ["CpuCore", "CpuWork"]

#: Default scheduling quantum (2 ms, in the ballpark of CFS slices).
DEFAULT_QUANTUM_NS = 2 * MS

#: An open-ended spin's ``remaining``, in periods: large enough never to
#: run out, and a multiple of the period, so the dispatch arithmetic
#: needs no special case.
_SPIN_PERIODS = 1 << 40


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
    period:
        For an open-ended spin (:meth:`CpuCore.spin`), its period until
        :meth:`CpuCore.end_spin`; 0 for ordinary work.
    """

    __slots__ = (
        "label", "remaining", "done", "submitted_at", "completed_at", "period",
    )

    def __init__(self, label: str, work_ns: int, done: Event, submitted_at: int):
        self.label = label
        self.remaining = int(work_ns)
        self.done = done
        self.submitted_at = submitted_at
        self.completed_at: Optional[int] = None
        self.period = 0


class CpuCore:
    """A single core scheduled round-robin with a fixed quantum.

    The scheduler is non-preemptive within a slice: a newly submitted task
    waits at most one quantum before it first runs.  This is a faithful
    enough model of CFS for the per-second latency granularity the paper
    reports, while staying exactly deterministic.

    Between a dispatch and the first *irregular* boundary (a task
    completing, or a task starting its short last slice), every slice
    end of the rotation (the current task plus the run queue, n >= 1)
    would only charge a full quantum, move the task to the tail and run
    the next one.  Such a stretch is a *steady run*: its slice-end call
    is inline-advanced by the simulator one quantum at a time
    (``stride``) up to that boundary, so the regular slice ends in
    between cost no callback.  The passed quanta are credited
    arithmetically, by accounting reads, and by the ``submit``,
    ``spin``, ``end_spin`` or final callback that ends the run.  Timing,
    accounting and event order are exactly those of one slice-end
    callback per quantum.  A :meth:`spin` is one task that never
    completes until :meth:`end_spin`, so a busy loop does not end a
    steady run once per period.
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
        #: The inline-advanced slice end of the steady run in progress,
        #: and the time the run started.  During a steady run
        #: ``_current`` and ``_run_queue`` hold the rotation as it was
        #: dispatched; ``_settle_steady`` applies the passed boundaries.
        self._steady: Optional[_ScheduledCall] = None
        self._steady_start = 0

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
        return self._enqueue(CpuWork(label, work_ns, done, self.sim.now)).done

    def spin(self, period_ns: int, label: str = "") -> CpuWork:
        """Queue an open-ended busy loop charged to ``label``.

        The spin runs in the rotation like work that never completes:
        exactly as if a ``period_ns`` task re-submitted itself from its
        done event, forever.  :meth:`end_spin` lets it finish the period
        in progress; its ``done`` event fires then.  ``period_ns`` must
        be a positive multiple of the quantum.
        """
        if period_ns <= 0 or period_ns % self.quantum_ns:
            raise SimulationError(
                f"spin period {period_ns} is not a positive multiple of "
                f"the {self.quantum_ns} ns quantum"
            )
        work = CpuWork(label, period_ns * _SPIN_PERIODS, self.sim.event(),
                       self.sim.now)
        work.period = period_ns
        return self._enqueue(work)

    def end_spin(self, work: CpuWork) -> None:
        """Let a :meth:`spin` complete at the end of its current period.

        A period boundary at exactly the current time counts as passed
        when its slice end has already run (the re-submitting loop would
        then have started one more period).  Ending a spin twice is a
        no-op.
        """
        period = work.period
        if not period:
            return
        work.period = 0
        if self._steady is not None:
            self._break_steady()
        # What is left of the current period: ``period - consumed %
        # period``, as ``remaining`` started at a multiple of the period.
        work.remaining = (work.remaining - 1) % period + 1

    def _enqueue(self, work: CpuWork) -> CpuWork:
        # The rotation must reach its current state before the newcomer
        # joins its tail: appending first would count it in the settled
        # boundaries.
        if self._steady is not None:
            self._break_steady()
        self._run_queue.append(work)
        if self._current is None:
            self._dispatch()
        return work

    def _break_steady(self) -> None:
        """Settle the steady run in progress and turn its pending entry
        into an ordinary slice end of the now-current task, at its exact
        key, so the next dispatch sees the rotation as it is now."""
        call = self._steady
        self._settle_steady()
        call.stride = 0
        call.callback = self._on_slice_end
        call.args = (self._current, self.quantum_ns)

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
        queue = self._run_queue
        work = queue.popleft()
        self._current = work
        quantum = self.quantum_ns
        # Rotation positions: 0 is ``work``, 1..n-1 the queue in order;
        # position i runs the slices ending at boundaries i + 1 + j * n.
        # ``stop`` is the first irregular boundary: where a task with f
        # full quanta completes (remainder 0) or starts its short last
        # slice (remainder > 0).  Position i's candidate is at least i.
        n = len(queue) + 1
        full, rest = divmod(work.remaining, quantum)
        stop = full * n if rest else (full - 1) * n + 1
        for position, task in enumerate(queue, 1):
            if position >= stop:
                break
            full, rest = divmod(task.remaining, quantum)
            candidate = (
                full * n + position if rest else (full - 1) * n + position + 1
            )
            if candidate < stop:
                stop = candidate
        if stop < 2:
            slice_ns = min(quantum, work.remaining)
            self.sim.schedule(slice_ns, self._on_slice_end, work, slice_ns)
            return
        # Steady run: one call, keyed like the per-slice chain's first
        # slice end, advanced in the heap up to boundary ``stop``.
        now = self.sim.now
        call = self.sim.schedule(quantum, self._on_steady_end)
        call.stride = quantum
        call.stride_end = now + stop * quantum
        self._steady = call
        self._steady_start = now

    def _steady_passed(self) -> int:
        """Boundaries the steady run passed before its pending slice end
        (0 when no steady run is in progress)."""
        call = self._steady
        if call is None:
            return 0
        return (call.time - self._steady_start) // self.quantum_ns - 1

    def _steady_turns(self, passed: int) -> List[Tuple[CpuWork, int]]:
        """``(task, CPU-ns)`` for each rotation position that ran within
        the first ``passed`` boundaries, in rotation order (the order of
        their first charge): position i had ``ceil((passed - i) / n)``
        full quanta."""
        if passed <= 0:
            return []
        quantum = self.quantum_ns
        n = len(self._run_queue) + 1
        turns = [(self._current, (passed + n - 1) // n * quantum)]
        for position, task in enumerate(self._run_queue, 1):
            if position >= passed:
                break
            turns.append((task, (passed - position + n - 1) // n * quantum))
        return turns

    def _settle_steady(self) -> None:
        """End the steady run: charge the boundaries passed before its
        pending slice end and rotate so the task running that slice is
        current and the queue follows it in ring order."""
        passed = self._steady_passed()
        self._steady = None
        if passed <= 0:
            return
        busy_by_label = self._busy_by_label
        for task, ns in self._steady_turns(passed):
            busy_by_label[task.label] = busy_by_label.get(task.label, 0) + ns
            task.remaining -= ns
        self._busy_ns += passed * self.quantum_ns
        queue = self._run_queue
        shift = passed % (len(queue) + 1)
        if shift:
            queue.appendleft(self._current)
            queue.rotate(-shift)
            self._current = queue.popleft()

    def _on_steady_end(self) -> None:
        self._settle_steady()
        self._on_slice_end(self._current, self.quantum_ns)

    def _on_slice_end(self, work: CpuWork, slice_ns: int) -> None:
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
        return self._busy_ns + self._steady_passed() * self.quantum_ns

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
        for task, ns in self._steady_turns(self._steady_passed()):
            table[task.label] = table.get(task.label, 0) + ns
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
