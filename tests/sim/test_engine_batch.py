"""Differential tests: the engine's batched strided advance against
head-by-head moves.

When the heap head is a movable strided entry,
:meth:`Simulator._advance_batch` moves every strided entry of its stride
ahead of the next key that would run a callback at once.
:class:`PerMoveSimulator` below keeps the plain loop it replaces: one
move of the head at a time, to its first boundary at or after the next
pending time.  Both run the same generated heap.  Each executed callback
logs its time, its tag and the order of every live pending entry, so any
difference in where an entry landed or in the order of its fresh
``seq`` shows up at the next callback, not only when the entry runs.
"""

import heapq
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

STRIDE = 4


class PerMoveSimulator(Simulator):
    """Reference engine: every strided move is a single head move."""

    def run(self, until: Optional[int] = None) -> int:
        queue = self._queue
        while queue:
            time, _, call = queue[0]
            if call.cancelled:
                heapq.heappop(queue)
                continue
            if until is not None and time > until:
                break
            if call.stride and time < call.stride_end:
                self._move_head(time, call, until)
                continue
            heapq.heappop(queue)
            self._now = time
            call.callback(*call.args)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _move_head(self, time: int, call, until: Optional[int]) -> None:
        queue = self._queue
        end = call.stride_end
        if len(queue) > 2:
            limit = min(queue[1][0], queue[2][0])
        elif len(queue) == 2:
            limit = queue[1][0]
        else:
            limit = end
        if until is not None and until < limit:
            limit = until + 1
        stride = call.stride
        target = time + stride
        if limit > target:
            target += (limit - target + stride - 1) // stride * stride
        if target > end:
            target = end
        call.time = target
        heapq.heapreplace(queue, (target, self._seq, call))
        self._seq += 1


class Harness:
    """One simulator of a given class running a generated scenario.

    ``strided`` entries are ``(start, boundaries, stride)``: keyed at
    ``start`` with ``stride_end = start + boundaries * stride``.
    ``barriers`` are ``(time, cancelled, clears, spawn)``: an unstrided
    call that, when it runs, clears the stride of the strided entries
    whose indices are in ``clears`` (they then run at their current key,
    as a CPU core does on a submit) and, if ``spawn`` is given, starts a
    new strided entry ``spawn = (offset, boundaries)`` from now.
    """

    def __init__(self, sim_cls, strided, barriers):
        self.sim = sim_cls()
        self.log: list = []
        self.tags: dict = {}
        self.strided = []
        for index, (start, boundaries, stride) in enumerate(strided):
            self.strided.append(self._strided(f"s{index}", start, boundaries, stride))
        for index, (time, cancelled, clears, spawn) in enumerate(barriers):
            call = self.sim.schedule_at(time, self._barrier, f"b{index}", clears, spawn)
            self.tags[id(call)] = f"b{index}"
            if cancelled:
                call.cancel()

    def _strided(self, tag: str, start: int, boundaries: int, stride: int):
        call = self.sim.schedule_at(start, self._fire, tag)
        call.stride = stride
        call.stride_end = start + boundaries * stride
        self.tags[id(call)] = tag
        return call

    def pending(self) -> list:
        """Live pending entries as ``(time, tag)`` in heap order."""
        return [
            (time, self.tags[id(call)])
            for time, _, call in sorted(self.sim._queue, key=lambda e: e[:2])
            if not call.cancelled
        ]

    def _fire(self, tag: str) -> None:
        self.log.append((self.sim.now, tag, self.pending()))

    def _barrier(self, tag: str, clears, spawn) -> None:
        self._fire(tag)
        for index in clears:
            if index < len(self.strided):
                self.strided[index].stride = 0
        if spawn is not None:
            offset, boundaries = spawn
            self.strided.append(self._strided(
                f"{tag}.s", self.sim.now + offset, boundaries, STRIDE))


strided = st.tuples(
    st.integers(0, 40),
    st.integers(0, 12),
    st.sampled_from([STRIDE] * 9 + [STRIDE * 2]),
)
barrier = st.tuples(
    st.one_of(st.integers(0, 80), st.integers(0, 20).map(lambda k: k * STRIDE)),
    st.booleans(),
    st.lists(st.integers(0, 7), max_size=2),
    st.one_of(st.none(), st.tuples(st.integers(0, 2 * STRIDE), st.integers(0, 8))),
)
scenarios = st.tuples(
    st.lists(strided, min_size=1, max_size=8),
    st.lists(barrier, max_size=6),
)
untils = st.lists(st.integers(0, 100), max_size=4).map(sorted)


def build(sim_cls, scenario) -> Harness:
    return Harness(sim_cls, *scenario)


@settings(max_examples=400, deadline=None)
@given(scenario=scenarios, untils=untils)
def test_batched_run_matches_per_move_reference(scenario, untils):
    ref, batched = build(PerMoveSimulator, scenario), build(Simulator, scenario)
    for until in untils:
        assert batched.sim.run(until=until) == ref.sim.run(until=until)
        assert batched.log == ref.log
        assert batched.pending() == ref.pending()
    assert batched.sim.run() == ref.sim.run()
    assert batched.log == ref.log


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios)
def test_stepping_matches_per_move_reference(scenario):
    ref, stepped = build(PerMoveSimulator, scenario), build(Simulator, scenario)
    ref.sim.run()
    while stepped.sim.step():
        pass
    assert stepped.log == ref.log


def test_staggered_same_phase_starts_keep_leapfrog_order():
    """A starts on boundary t and B one stride later, on the same phase.
    A's first move lands on B's boundary with a fresh ``seq``, so B is
    ahead from then on: B must end first at their common stride end,
    and ahead of A at a barrier that clears both strides."""
    for sim_cls in (PerMoveSimulator, Simulator):
        ends = build(sim_cls, ([(0, 10, STRIDE), (STRIDE, 9, STRIDE)], []))
        ends.sim.run()
        assert [(time, tag) for time, tag, _ in ends.log] == [
            (40, "s1"), (40, "s0"),
        ]
        cleared = build(sim_cls, (
            [(0, 20, STRIDE), (STRIDE, 19, STRIDE)],
            [(41, False, [0, 1], None)],
        ))
        cleared.sim.run()
        assert [(time, tag) for time, tag, _ in cleared.log] == [
            (41, "b0"), (44, "s1"), (44, "s0"),
        ]


def test_lockstep_entries_move_at_most_twice_per_gap():
    """Eight lockstep entries crossing a long gap: head by head they
    leapfrog one boundary per move; batched, each moves at most twice."""
    sim = Simulator()
    moves = []
    calls = []
    for _ in range(8):
        call = sim.schedule_at(0, lambda: None)
        call.stride = STRIDE
        call.stride_end = 1000 * STRIDE
        calls.append(call)
    sim.schedule_at(500 * STRIDE + 1, lambda: moves.append(sim._seq))
    sim.run(until=500 * STRIDE + 1)
    assert moves and moves[0] <= 8 + 1 + 2 * 8
    assert [call.time for call in calls] == [501 * STRIDE] * 8
