"""Differential tests: steady-run ``CpuCore`` against a per-slice reference.

Between a dispatch and the first boundary where a task completes or
starts a short last slice, ``CpuCore`` lets the simulator advance the
rotation's slice end inside its heap, one quantum per boundary, without
running a callback (a *steady run*), and credits the skipped quanta
arithmetically.  An uncontended task is the one-task rotation.
:class:`PerSliceCore` below is the plain round-robin core it must be
indistinguishable from: one slice-end callback per quantum.  Both run
the same generated scenario on their own simulator; every done-event
firing (time, tag, and every core's accounting at that moment) and
every scheduled accounting read must match exactly.

Submits and reads are millisecond-aligned, and all cores share one
quantum, so several cores run in lockstep on the same quantum grid and
many events land exactly on boundaries.  Same-timestamp order there is
decided by the heap's sequence numbers, which is what a steady run must
preserve.  The contended scenarios put 3-5 tasks on a core at once,
with work sizes whose remainder is 0, 1 ns, half a quantum or a quantum
less 1 ns, and tasks that re-submit themselves from their done event
(the memhog pattern of the Figure 5 runs).
"""

from collections import deque
from typing import Deque, Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cpu import CpuCore, CpuWork
from repro.sim.engine import Simulator
from repro.units import MS

QUANTUM = 2 * MS
LABELS = ("fn:a", "fn:b", "virtio-mem")


class PerSliceCore:
    """Reference round-robin core: one slice-end callback per quantum."""

    def __init__(self, sim: Simulator, name: str = "cpu",
                 quantum_ns: int = QUANTUM):
        self.sim = sim
        self.name = name
        self.quantum_ns = quantum_ns
        self._run_queue: Deque[CpuWork] = deque()
        self._current: Optional[CpuWork] = None
        self._busy_ns = 0
        self._busy_by_label: Dict[str, int] = {}

    def submit(self, work_ns: int, label: str = ""):
        done = self.sim.event()
        if work_ns == 0:
            done.trigger(None)
            return done
        self._run_queue.append(CpuWork(label, work_ns, done, self.sim.now))
        if self._current is None:
            self._dispatch()
        return done

    def _dispatch(self) -> None:
        if self._current is not None or not self._run_queue:
            return
        work = self._run_queue.popleft()
        self._current = work
        slice_ns = min(self.quantum_ns, work.remaining)
        self.sim.schedule(slice_ns, self._on_slice_end, work, slice_ns)

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

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def queue_depth(self) -> int:
        return len(self._run_queue)

    @property
    def busy_ns(self) -> int:
        return self._busy_ns

    def busy_ns_for(self, label: str) -> int:
        return self._busy_by_label.get(label, 0)

    def busy_ns_for_prefix(self, prefix: str) -> int:
        return sum(ns for label, ns in self._busy_by_label.items()
                   if label.startswith(prefix))

    def accounting(self) -> Dict[str, int]:
        return dict(self._busy_by_label)

    def utilization(self, since_ns: int = 0) -> float:
        elapsed = self.sim.now - since_ns
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_ns / elapsed)


class Harness:
    """One simulator, ``n_cores`` cores of one class, and an event log."""

    def __init__(self, core_cls, n_cores: int):
        self.sim = Simulator()
        self.cores = [core_cls(self.sim, f"c{i}", QUANTUM) for i in range(n_cores)]
        self.log: list = []
        self.callbacks = 0
        self.sim.add_probe(self._count)

    def _count(self) -> None:
        self.callbacks += 1

    def snapshot(self) -> tuple:
        return tuple(
            (
                core.busy_ns,
                tuple(core.accounting().items()),
                tuple(core.busy_ns_for(label) for label in LABELS),
                core.busy_ns_for_prefix("fn:"),
                core.utilization(),
                core.utilization(since_ns=1 * MS),
                core.busy,
                core.queue_depth,
            )
            for core in self.cores
        )

    def submit(self, tag: str, core: int, work_ns: int, label: str,
               then: tuple = ()) -> None:
        """Submit, and on completion submit ``then[0]`` (a ``(core,
        work_ns, label)`` triple) with the rest of ``then`` to follow."""
        done = self.cores[core].submit(work_ns, label)
        done.add_callback(lambda _value: self._on_done(tag, then))

    def batch(self, tag: str, core: int, tasks: list) -> None:
        """Submit ``(work_ns, label, repeats)`` tasks to one core at once;
        each re-submits itself ``repeats`` times from its done event."""
        for index, (work, label, repeats) in enumerate(tasks):
            self.submit(f"{tag}.{index}", core, work, label,
                        ((core, work, label),) * repeats)

    def _on_done(self, tag: str, then: tuple) -> None:
        self.log.append(("done", self.sim.now, tag, self.snapshot()))
        if then:
            self.submit(tag + "+", *then[0], then[1:])

    def read(self, tag: str) -> None:
        self.log.append(("read", self.sim.now, tag, self.snapshot()))

    def install(self, ops: list) -> None:
        """Schedule every op at its time; an op with a ``lead`` is
        scheduled by a relay ``lead`` ms earlier, so it runs after the
        calls already queued for its timestamp (slice ends included)."""
        for index, (kind, at_ms, lead, args) in enumerate(ops):
            tag = f"{kind}{index}"
            if kind == "submit":
                fn, fn_args = self.submit, (tag,) + args
            elif kind == "batch":
                fn, fn_args = self.batch, (tag,) + args
            else:
                fn, fn_args = self.read, (tag,)
            at = at_ms * MS
            if lead is None:
                self.sim.schedule_at(at, fn, *fn_args)
            else:
                self.sim.schedule_at(
                    max(0, at - lead * MS), self.sim.schedule_at, at, fn, *fn_args
                )


work_ns = st.builds(
    lambda ms, extra: ms * MS + extra,
    st.integers(1, 16),
    st.sampled_from([0, 0, 0, 1, MS // 2]),
)
label = st.sampled_from(LABELS)
lead = st.one_of(st.none(), st.integers(0, 3))


@st.composite
def scenarios(draw):
    n_cores = draw(st.integers(2, 3))
    core = st.integers(0, n_cores - 1)
    follow = st.one_of(st.just(()), st.tuples(st.tuples(core, work_ns, label)))
    submit = st.tuples(
        st.just("submit"), st.integers(0, 30), lead,
        st.tuples(core, work_ns, label, follow),
    )
    read = st.tuples(st.just("read"), st.integers(0, 40), lead, st.just(()))
    ops = draw(st.lists(st.one_of(submit, submit, read), min_size=1, max_size=14))
    return n_cores, ops


remainder = st.sampled_from([0, 1, QUANTUM // 2, QUANTUM - 1])
contended_work = st.builds(
    lambda quanta, extra: quanta * QUANTUM + extra, st.integers(0, 6), remainder
).filter(bool)


@st.composite
def contended_scenarios(draw):
    """3-5 tasks per batch on one core, some re-submitting on completion,
    plus single submits and reads that may land mid-rotation on a
    boundary, before or after its slice end (``lead``)."""
    n_cores = draw(st.integers(2, 3))
    core = st.integers(0, n_cores - 1)
    task = st.tuples(contended_work, label, st.integers(0, 3))
    batch = st.tuples(
        st.just("batch"), st.integers(0, 12), lead,
        st.tuples(core, st.lists(task, min_size=3, max_size=5)),
    )
    submit = st.tuples(
        st.just("submit"), st.integers(0, 40), lead,
        st.tuples(core, contended_work, label, st.just(())),
    )
    read = st.tuples(st.just("read"), st.integers(0, 60), lead, st.just(()))
    ops = draw(st.lists(st.one_of(batch, batch, submit, read),
                        min_size=1, max_size=8))
    return n_cores, ops


def build(core_cls, scenario) -> Harness:
    n_cores, ops = scenario
    harness = Harness(core_cls, n_cores)
    harness.install(ops)
    return harness


def check_run(scenario) -> None:
    ref, steady = build(PerSliceCore, scenario), build(CpuCore, scenario)
    assert steady.sim.run() == ref.sim.run()
    assert steady.log == ref.log
    assert steady.snapshot() == ref.snapshot()
    assert steady.callbacks <= ref.callbacks


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_run_matches_per_slice_reference(scenario):
    check_run(scenario)


@settings(max_examples=150, deadline=None)
@given(scenario=contended_scenarios())
def test_contended_run_matches_per_slice_reference(scenario):
    check_run(scenario)


stops = st.lists(
    st.tuples(
        st.integers(1, 40),                # stop at this millisecond ...
        st.booleans(),                     # ... or one ns before it
        st.one_of(st.none(), st.tuples(st.integers(0, 1), work_ns, label)),
    ),
    max_size=6,
)


def check_run_until_then_submit(scenario, stops) -> None:
    ref, steady = build(PerSliceCore, scenario), build(CpuCore, scenario)
    stops = sorted(stops, key=lambda stop: (stop[0], not stop[1]))
    for index, (stop_ms, early, direct) in enumerate(stops):
        until = stop_ms * MS - early
        for harness in (ref, steady):
            harness.sim.run(until=until)
            harness.read(f"stop{index}")
            if direct is not None:
                harness.submit(f"direct{index}", *direct)
        assert steady.log == ref.log
    ref.sim.run()
    steady.sim.run()
    assert steady.log == ref.log
    assert steady.snapshot() == ref.snapshot()


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios(), stops=stops)
def test_run_until_then_submit_matches_reference(scenario, stops):
    check_run_until_then_submit(scenario, stops)


@settings(max_examples=150, deadline=None)
@given(scenario=contended_scenarios(), stops=stops)
def test_contended_run_until_then_submit_matches_reference(scenario, stops):
    check_run_until_then_submit(scenario, stops)


def check_step_driven_run(scenario) -> None:
    """Each ``step()`` of the steady-run core executes one callback;
    whenever one logs something, the reference stepped to the same log
    entry has the same accounting."""
    ref, steady = build(PerSliceCore, scenario), build(CpuCore, scenario)
    while steady.sim.step():
        if len(steady.log) > len(ref.log):
            while len(ref.log) < len(steady.log):
                assert ref.sim.step()
            assert steady.sim.now == ref.sim.now
            assert steady.snapshot() == ref.snapshot()
    while ref.sim.step():
        pass
    assert steady.log == ref.log
    assert steady.snapshot() == ref.snapshot()


@settings(max_examples=100, deadline=None)
@given(scenario=scenarios())
def test_step_driven_run_matches_reference(scenario):
    check_step_driven_run(scenario)


@settings(max_examples=100, deadline=None)
@given(scenario=contended_scenarios())
def test_contended_step_driven_run_matches_reference(scenario):
    check_step_driven_run(scenario)


def lockstep_split(core_cls, lead: Optional[int]) -> Harness:
    """Two cores run solo in lockstep on one grid; at the 6 ms boundary
    core 0 gets a short task, splitting its run.  Both long tasks then
    end at 22 ms, and their order there follows the sequence numbers the
    split kept (a split taking a fresh one would put core 1 first)."""
    harness = Harness(core_cls, 2)
    harness.install([
        ("submit", 0, None, (0, 20 * MS, "fn:a")),
        ("submit", 0, None, (1, 22 * MS, "fn:b")),
        ("submit", 6, lead, (0, 2 * MS, "virtio-mem")),
        ("read", 6, lead, ()),
        ("read", 22, None, ()),
    ])
    harness.sim.run()
    return harness


def test_lockstep_split_keeps_same_timestamp_order():
    # The short task lands before core 0's 6 ms slice end (upfront, or
    # relayed from 4 ms) and runs next, or after it (relayed at 6 ms)
    # and waits one quantum.
    for lead, short_done_ms in ((None, 8), (2, 8), (0, 10)):
        ref, steady = lockstep_split(PerSliceCore, lead), lockstep_split(CpuCore, lead)
        assert steady.log == ref.log
        fired = [(time // MS, tag) for kind, time, tag, _ in steady.log if kind == "done"]
        assert fired == [(short_done_ms, "submit2"), (22, "submit0"), (22, "submit1")]
        assert steady.callbacks < ref.callbacks


def test_lone_task_skips_its_slice_end_callbacks():
    sim = Simulator()
    core = CpuCore(sim, quantum_ns=QUANTUM)
    executed = []
    sim.add_probe(lambda: executed.append(sim.now))
    done = core.submit(21 * MS, "fn:a")
    sim.run(until=9 * MS)
    assert core.busy_ns == core.busy_ns_for("fn:a") == 8 * MS
    assert core.accounting() == {"fn:a": 8 * MS}
    sim.run()
    assert done.value.completed_at == 21 * MS
    # The run ends at the last boundary (20 ms); the 1 ms tail is an
    # ordinary slice.
    assert executed == [20 * MS, 21 * MS]
    assert core.busy_ns == 21 * MS


def memhogs(core_cls) -> Harness:
    """Three 10 ms tasks on one core, each re-submitting itself five
    times on completion; a 5 ms task joins mid-rotation, between
    boundaries, and reads land on and between boundaries."""
    harness = Harness(core_cls, 1)
    harness.install([
        ("batch", 0, None, (0, [(10 * MS, label, 5) for label in LABELS])),
        ("read", 17, None, ()),
        ("read", 26, 1, ()),
        ("read", 26, None, ()),
        ("submit", 41, None, (0, 5 * MS, "fn:b")),
        ("read", 41, None, ()),
    ])
    harness.sim.run()
    return harness


def test_memhog_rotation_skips_its_slice_end_callbacks():
    ref, steady = memhogs(PerSliceCore), memhogs(CpuCore)
    assert steady.log == ref.log
    done = [entry for entry in steady.log if entry[0] == "done"]
    assert len(done) == 19 and done[-1][1] == 185 * MS
    # A rotation of three fresh 5-quantum tasks runs its first 13
    # boundaries as one steady run; only the completions, the joining
    # task's last slices and the scheduled ops execute callbacks.
    assert 3 * steady.callbacks <= ref.callbacks
