"""Differential tests: ``CpuCore.spin`` against the re-submit loop it
replaces.

A spin is one open-ended task: it must be indistinguishable from a
``period_ns`` task that re-submits itself from its done event until it
is told to stop, and then completes with the period in progress
(:class:`ResubmitSpin`, the memhog loop of the Figure 5 runs).  Both run
the same generated scenario, 1-5 tasks per core mixing spins and
ordinary work, with stops and reads on millisecond times.  Every
completion (its time, tag and every core's accounting at that moment),
every read, and the time each stopped spin's exit charge finishes must
match exactly.

Stops land mid-period, on period boundaries and inside steady runs.  An
op with a ``lead`` is relayed from ``lead`` ms earlier, so a stop on a
boundary runs before the slice end there (upfront, or relayed from
before the slice end was scheduled) or after it; only in the second
case has the loop already started another period.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import SimulationError
from repro.sim.cpu import CpuCore
from repro.sim.engine import Simulator
from repro.units import MS

QUANTUM = 2 * MS
LABELS = ("memhog:a", "memhog:b", "virtio-mem")
EXIT_NS = 1 * MS + 1


class ResubmitSpin:
    """Reference spin: a ``period_ns`` task re-submitted from its done
    event until :meth:`stop`; ``done`` fires with the last period."""

    def __init__(self, core, period_ns: int, label: str):
        self.core = core
        self.period_ns = period_ns
        self.label = label
        self.done = core.sim.event()
        self.stopped = False
        self._next_period()

    def _next_period(self) -> None:
        done = self.core.submit(self.period_ns, self.label)
        done.add_callback(self._on_period)

    def _on_period(self, _work) -> None:
        if self.stopped:
            self.done.trigger(None)
        else:
            self._next_period()

    def stop(self) -> None:
        self.stopped = True


class Spin:
    """The same interface over ``CpuCore.spin``/``end_spin``."""

    def __init__(self, core, period_ns: int, label: str):
        self.core = core
        self.work = core.spin(period_ns, label)
        self.done = self.work.done

    def stop(self) -> None:
        self.core.end_spin(self.work)


class Harness:
    """One simulator, ``n_cores`` cores, spins of one class, a log."""

    def __init__(self, spin_cls, n_cores: int):
        self.sim = Simulator()
        self.spin_cls = spin_cls
        self.cores = [CpuCore(self.sim, f"c{i}", QUANTUM) for i in range(n_cores)]
        self.spins: list = []
        self.log: list = []
        self.callbacks = 0
        self.sim.add_probe(self._count)

    def _count(self) -> None:
        self.callbacks += 1

    def snapshot(self) -> tuple:
        return tuple(
            (core.busy_ns, tuple(core.accounting().items()), core.busy,
             core.queue_depth)
            for core in self.cores
        )

    def _note(self, kind: str, tag: str) -> None:
        self.log.append((kind, self.sim.now, tag, self.snapshot()))

    def batch(self, tag: str, core: int, tasks: list) -> None:
        """Start ``(period_quanta, work_ns, label)`` tasks on one core at
        once: a spin when ``period_quanta`` is set, else ordinary work."""
        for index, (period_quanta, work_ns, label) in enumerate(tasks):
            task_tag = f"{tag}.{index}"
            if period_quanta:
                self.spin(task_tag, core, period_quanta * QUANTUM, label)
            else:
                done = self.cores[core].submit(work_ns, label)
                done.add_callback(lambda _v, t=task_tag: self._note("done", t))

    def spin(self, tag: str, core: int, period_ns: int, label: str) -> None:
        spin = self.spin_cls(self.cores[core], period_ns, label)
        self.spins.append(spin)
        spin.done.add_callback(lambda _v: self._exit(tag, core, label))

    def _exit(self, tag: str, core: int, label: str) -> None:
        # What a memhog does when its loop ends: an exit charge.
        self._note("exit", tag)
        done = self.cores[core].submit(EXIT_NS, label)
        done.add_callback(lambda _v: self._note("exited", tag))

    def stop(self, tag: str, index: int) -> None:
        if index < len(self.spins):
            self.spins[index].stop()
        self._note("stop", tag)

    def stop_all(self) -> None:
        for spin in self.spins:
            spin.stop()

    def install(self, ops: list) -> None:
        for index, (kind, at_ms, lead, args) in enumerate(ops):
            fn = {"batch": self.batch, "stop": self.stop}.get(kind)
            fn_args = (f"{kind}{index}",) + args
            if fn is None:
                fn, fn_args = self._note, ("read", f"read{index}")
            at = at_ms * MS
            if lead is None:
                self.sim.schedule_at(at, fn, *fn_args)
            else:
                self.sim.schedule_at(
                    max(0, at - lead * MS), self.sim.schedule_at, at, fn, *fn_args
                )


label = st.sampled_from(LABELS)
lead = st.one_of(st.none(), st.integers(0, 3))
ordinary_work = st.builds(
    lambda quanta, extra: quanta * QUANTUM + extra,
    st.integers(0, 6), st.sampled_from([0, 1, QUANTUM // 2, QUANTUM - 1]),
).filter(bool)
task = st.one_of(
    st.tuples(st.sampled_from([1, 2, 5]), st.just(0), label),
    st.tuples(st.just(0), ordinary_work, label),
)


@st.composite
def scenarios(draw):
    n_cores = draw(st.integers(1, 2))
    core = st.integers(0, n_cores - 1)
    batch = st.tuples(
        st.just("batch"), st.integers(0, 12), lead,
        st.tuples(core, st.lists(task, min_size=1, max_size=5)),
    )
    stop = st.tuples(st.just("stop"), st.integers(1, 60), lead,
                     st.tuples(st.integers(0, 6)))
    read = st.tuples(st.just("read"), st.integers(0, 60), lead, st.just(()))
    ops = draw(st.lists(st.one_of(batch, batch, stop, stop, read),
                        min_size=1, max_size=10))
    return n_cores, ops


def run_both(scenario, until_ms: int = 80):
    n_cores, ops = scenario
    harnesses = []
    for spin_cls in (ResubmitSpin, Spin):
        harness = Harness(spin_cls, n_cores)
        harness.install(ops)
        harness.sim.schedule_at(until_ms * MS, harness.stop_all)
        harness.sim.run()
        harnesses.append(harness)
    return harnesses


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_spin_matches_resubmit_loop(scenario):
    ref, spin = run_both(scenario)
    assert spin.sim.now == ref.sim.now
    assert spin.log == ref.log
    assert spin.snapshot() == ref.snapshot()
    # Ending a spin may turn a steady run's pending entry into an
    # ordinary slice end: at most one more callback per stop (the final
    # stop_all stops each spin once more).
    stops = sum(1 for kind, *_ in scenario[1] if kind == "stop")
    assert spin.callbacks <= ref.callbacks + stops + len(spin.spins)


def exits(harness) -> list:
    return [(kind, time // MS, tag) for kind, time, tag, _ in harness.log
            if kind in ("exit", "exited")]


@pytest.mark.parametrize(
    "tasks, stop_ms, lead, exit_ms",
    [
        # Alone, the spin's periods end at 10, 20, ... ms.
        (1, 5, None, 10),    # mid-period: the period in progress finishes
        (1, 10, None, 10),   # on a period boundary, before its slice end
        (1, 10, 3, 10),      # relayed from before that slice end existed
        (1, 10, 0, 20),      # on the boundary, after its slice end: the
        (1, 10, 1, 20),      # loop has already started another period
        (1, 14, None, 20),
        # With two 12 ms tasks, its 5th quantum ends at 26 ms and its
        # 10th at 44 ms (the others complete at 34 and 36 ms).
        (3, 11, None, 26),
        (3, 26, None, 26),
        (3, 26, 3, 26),
        (3, 26, 0, 44),
        (3, 26, 1, 44),
        (3, 30, None, 44),
    ],
)
def test_stop_on_and_between_period_boundaries(tasks, stop_ms, lead, exit_ms):
    """One 10 ms spin, alone or first in a rotation with two 12 ms
    tasks, is stopped once and then again: it exits at the end of the
    period in progress, exactly like the loop."""
    ops = [
        ("batch", 0, None, (0, [(5, 0, "memhog:a")]
                            + [(0, 6 * QUANTUM, "fn")] * (tasks - 1))),
        ("stop", stop_ms, lead, (0,)),
        ("stop", stop_ms + 3, None, (0,)),
    ]
    ref, spin = run_both((1, ops), until_ms=400)
    assert spin.log == ref.log
    assert exits(spin)[0] == ("exit", exit_ms, "batch0.0")


def test_end_spin_twice_is_a_no_op():
    sim = Simulator()
    core = CpuCore(sim, quantum_ns=QUANTUM)
    work = core.spin(5 * QUANTUM, "memhog:a")
    sim.run(until=13 * MS)
    core.end_spin(work)
    remaining = work.remaining
    core.end_spin(work)
    assert work.remaining == remaining
    sim.run()
    assert work.done.triggered and work.completed_at == 20 * MS
    assert core.accounting() == {"memhog:a": 20 * MS}


@pytest.mark.parametrize("period_ns", [0, -QUANTUM, QUANTUM // 2, 3 * MS])
def test_spin_period_must_be_a_multiple_of_the_quantum(period_ns):
    core = CpuCore(Simulator(), quantum_ns=QUANTUM)
    with pytest.raises(SimulationError):
        core.spin(period_ns, "memhog:a")
