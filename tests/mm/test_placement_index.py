"""Differential tests: index-fed placement against the full-zone scan.

:class:`repro.mm.zone.Zone` keeps an allocatable index (non-isolated
blocks with free pages, ascending by block index) and hands it to the
placement policy with its free count; :class:`ScatterPlacement` jumps
whole rounds arithmetically.  The reference policies below keep the
planner they replace: rebuild the usable list from every block of the
zone on each call, sum and copy its free pages, and walk one chunk per
loop turn.

A generated sequence of operations drives a guest memory manager: hot-add
and offline (with migration, so ``exclude`` reaches the zone both for
isolated and non-isolated sources), allocations with and without
``exclude``, partial and full releases, isolation and quarantine.  Every
``Zone.allocate`` is checked against its reference as it happens (the
same block → pages map in the same dict order, or both out of memory),
and after every step the scatter cursors, the seeded random streams, the
zone counters and the allocatable indexes must agree.
"""

import random
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import check_now
from repro.errors import OfflineFailed, OutOfMemory
from repro.mm.block import BlockState, MemoryBlock
from repro.mm.manager import GuestMemoryManager
from repro.mm.owner import PageOwner
from repro.mm.placement import RandomPlacement, ScatterPlacement, SequentialPlacement
from repro.mm.zone import Zone
from repro.units import GIB


# ----------------------------------------------------------------------
# Reference planners: the full-zone scan, one chunk per loop turn
# ----------------------------------------------------------------------
def usable_blocks(
    blocks: List[MemoryBlock], exclude: Optional[Set[MemoryBlock]]
) -> List[MemoryBlock]:
    excluded = exclude or set()
    return [
        b for b in blocks if b.free_pages > 0 and not b.isolated and b not in excluded
    ]


class RefSequential:
    def plan(self, blocks, pages, exclude=None):
        plan: Dict[MemoryBlock, int] = {}
        remaining = pages
        for block in usable_blocks(blocks, exclude):
            if remaining == 0:
                break
            take = min(block.free_pages, remaining)
            plan[block] = take
            remaining -= take
        if remaining > 0:
            return None
        return plan


class RefScatter:
    def __init__(self, chunk_pages: int):
        self.chunk_pages = chunk_pages
        self._cursor = 0

    def plan(self, blocks, pages, exclude=None):
        usable = usable_blocks(blocks, exclude)
        if not usable:
            return None
        if sum(b.free_pages for b in usable) < pages:
            return None
        plan: Dict[MemoryBlock, int] = {}
        remaining_free = {b: b.free_pages for b in usable}
        remaining = pages
        index = self._cursor % len(usable)
        while remaining > 0:
            block = usable[index]
            free = remaining_free[block]
            if free > 0:
                take = min(self.chunk_pages, free, remaining)
                plan[block] = plan.get(block, 0) + take
                remaining_free[block] = free - take
                remaining -= take
            index = (index + 1) % len(usable)
        self._cursor = index
        return plan


class RefRandom:
    def __init__(self, rng: random.Random, chunk_pages: int):
        self.rng = rng
        self.chunk_pages = chunk_pages

    def plan(self, blocks, pages, exclude=None):
        usable = usable_blocks(blocks, exclude)
        if sum(b.free_pages for b in usable) < pages:
            return None
        plan: Dict[MemoryBlock, int] = {}
        remaining_free = {b: b.free_pages for b in usable}
        candidates = list(usable)
        remaining = pages
        while remaining > 0:
            block = self.rng.choice(candidates)
            free = remaining_free[block]
            take = min(self.chunk_pages, free, remaining)
            if take > 0:
                plan[block] = plan.get(block, 0) + take
                remaining_free[block] = free - take
                remaining -= take
            if remaining_free[block] == 0:
                candidates.remove(block)
        return plan


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
OWNERS = 3


class Harness:
    """A small guest whose generic zones plan with ``policy``/``chunk``,
    each zone paired with a reference planner of the same state."""

    def __init__(self, policy: str, chunk: int, seed: int):
        self.manager = GuestMemoryManager(
            boot_memory_bytes=1 * GIB, hotplug_region_bytes=1 * GIB
        )
        manager = self.manager
        rng, ref_rng = random.Random(seed), random.Random(seed)
        self.refs: Dict[Zone, object] = {}
        for zone in manager.normal_zones + manager.movable_zones:
            if policy == "scatter":
                zone.placement = ScatterPlacement(chunk_pages=chunk)
                ref = RefScatter(chunk)
            elif policy == "sequential":
                zone.placement = SequentialPlacement()
                ref = RefSequential()
            else:
                zone.placement = RandomPlacement(rng=rng, chunk_pages=chunk)
                ref = RefRandom(ref_rng, chunk)
            self.refs[zone] = ref
            self._check_allocations(zone, ref)
        self.chunk = chunk
        self.owners = [PageOwner(f"owner-{i}") for i in range(OWNERS)]
        self.plans = 0
        self.whole_round_plans = 0
        self.filtered_plans = 0  # exclude names a non-isolated zone member

    def _check_allocations(self, zone: Zone, ref) -> None:
        allocate = zone.allocate

        def checked(owner, pages, exclude=None):
            chunk = getattr(ref, "chunk_pages", None)
            usable = usable_blocks(zone.blocks, exclude)
            if chunk is not None and pages > sum(min(chunk, b.free_pages) for b in usable):
                self.whole_round_plans += 1
            if any(b.zone is zone and not b.isolated for b in exclude or ()):
                self.filtered_plans += 1
            expected = ref.plan(zone.blocks, pages, exclude)
            try:
                got = allocate(owner, pages, exclude)
            except OutOfMemory:
                got = None
            if expected is None:
                assert got is None, "index-fed plan succeeded, reference ran out"
                raise OutOfMemory(f"zone {zone.name}: reference plan ran out")
            assert got is not None, "index-fed plan ran out, reference did not"
            assert list(got.items()) == list(expected.items())
            self.plans += 1
            return got

        zone.allocate = checked

    # -- operations ----------------------------------------------------
    @property
    def movable(self) -> Zone:
        return self.manager.zone_movable

    def online(self, a: int, b: int) -> None:
        absent = [
            i
            for i in self.manager.hotplug_block_indices()
            if self.manager.blocks[i].state is BlockState.ABSENT
        ]
        if not absent:
            return
        try:
            self.manager.online_block(absent[a % len(absent)], self.movable)
        except OutOfMemory:  # ZONE_NORMAL cannot hold the block's memmap
            pass

    def _exclude(self, selector: int) -> Optional[Set[MemoryBlock]]:
        """No exclude, or a subset of online blocks (any zone, isolated
        or not) picked by the bits of ``selector``."""
        if selector % 3 == 0:
            return None
        online = [b for b in self.manager.blocks if b.state is BlockState.ONLINE]
        picked = {b for i, b in enumerate(online) if (selector >> (i % 30 + 2)) & 1}
        return picked or {online[selector % len(online)]}

    def _size(self, kind: int, k: int, zone: Zone, exclude) -> int:
        chunk = self.chunk
        rem = (0, 1, chunk - 1)[k % 3]
        usable = usable_blocks(zone.blocks, exclude)
        free = sum(b.free_pages for b in usable)
        if kind == 0:  # usually ends inside round 0
            return 1 + k % (3 * chunk)
        if kind == 1:  # several whole rounds plus a remainder
            return max(1, (1 + k % 6) * chunk * len(usable) + rem)
        if kind == 2:  # nearly all free pages: blocks run dry mid-round
            return max(1, free - rem - (k // 3 % 3) * chunk)
        return free + 1 + k % 5  # out of memory

    def allocate(self, a: int, b: int) -> None:
        zone = self.movable if a % 4 else self.manager.zone_normal
        exclude = self._exclude(b)
        pages = self._size(a // 4 % 4, b, zone, exclude)
        owner = self.owners[a % OWNERS]
        try:
            zone.allocate(owner, pages, exclude)
        except OutOfMemory:
            pass

    def alloc_pages(self, a: int, b: int) -> None:
        pages = 1 + b % (4 * self.chunk)
        try:
            self.manager.alloc_pages(self.owners[a % OWNERS], pages)
        except OutOfMemory:
            pass

    def release(self, a: int, b: int) -> None:
        owner = self.owners[a % OWNERS]
        held = sorted(owner.block_pages, key=lambda blk: blk.index)
        if not held:
            return
        block = held[b % len(held)]
        pages = owner.block_pages[block]
        if a // OWNERS % 2:
            pages = 1 + b % pages  # partial
        block.zone.release(owner, block, pages)

    def free_all(self, a: int, b: int) -> None:
        self.manager.free_all(self.owners[a % OWNERS])

    def _movable_block(self, a: int) -> Optional[MemoryBlock]:
        blocks = self.movable.blocks
        return blocks[a % len(blocks)] if blocks else None

    def isolate(self, a: int, b: int) -> None:
        block = self._movable_block(a)
        if block is None or self.manager.is_quarantined(block):
            return
        if block.isolated:
            self.manager.unisolate_block(block)
        else:
            self.manager.isolate_block(block)

    def quarantine(self, a: int, b: int) -> None:
        block = self._movable_block(a)
        if block is None:
            return
        if self.manager.is_quarantined(block):
            self.manager.release_quarantine(block)
        else:
            self.manager.quarantine_block(block, "test")

    def offline(self, a: int, b: int) -> None:
        block = self._movable_block(a)
        if block is None or self.manager.is_quarantined(block):
            return
        if b % 2 and not block.isolated:
            self.manager.isolate_block(block)
        try:
            self.manager.offline_and_remove(block, migrate=True)
        except OfflineFailed:
            pass

    # -- agreement after every step --------------------------------------
    def check(self) -> None:
        for zone, ref in self.refs.items():
            policy = zone.placement
            if isinstance(ref, RefScatter):
                assert policy._cursor == ref._cursor
            if isinstance(ref, RefRandom):
                assert policy.rng.getstate() == ref.rng.getstate()
            assert zone.allocatable_blocks == usable_blocks(zone.blocks, None)
            assert zone.free_pages == sum(
                b.free_pages for b in zone.blocks if not b.isolated
            )
        check_now(self.manager)


OPERATIONS = (
    "online",
    "allocate",
    "allocate",
    "allocate",
    "alloc_pages",
    "release",
    "release",
    "free_all",
    "isolate",
    "quarantine",
    "offline",
)

steps = st.lists(
    st.tuples(
        st.sampled_from(OPERATIONS),
        st.integers(0, 1 << 20),
        st.integers(0, 1 << 32),
    ),
    min_size=1,
    max_size=40,
)


def run(policy: str, chunk: int, seed: int, ops) -> Harness:
    harness = Harness(policy, chunk, seed)
    for _ in range(4):  # start with some hotplugged memory
        harness.online(0, 0)
    harness.check()
    for name, a, b in ops:
        getattr(harness, name)(a, b)
        harness.check()
    return harness


def blocks_with(frees: List[int]) -> List[MemoryBlock]:
    blocks = []
    for index, free in enumerate(frees):
        block = MemoryBlock(index)
        block.state = BlockState.ONLINE
        block.free_pages = free
        blocks.append(block)
    return blocks


@st.composite
def scatter_cases(draw):
    """Free counts, chunk, cursor and a request that may outlast round 0."""
    chunk = draw(st.integers(1, 12))
    frees = draw(st.lists(st.integers(1, 6 * chunk + 3), min_size=1, max_size=12))
    total = sum(frees)
    rem = draw(st.sampled_from([0, 1, chunk - 1]))
    pages = draw(
        st.one_of(
            st.integers(1, total),
            st.integers(1, 6).map(lambda k: k * chunk * len(frees) + rem),
            st.integers(0, 2).map(lambda k: total - rem - k * chunk),
        )
    )
    cursor = draw(st.integers(0, 40))
    return chunk, frees, max(1, min(pages, total + 1)), cursor


@settings(max_examples=400, deadline=None)
@given(scatter_cases(), st.integers(1, 3))
def test_scatter_plans_match_reference(case, plans):
    """The whole-round jump against the chunk-per-turn walk, over uneven
    free counts (blocks run dry mid-round), for a few plans in a row."""
    chunk, frees, pages, cursor = case
    blocks = blocks_with(frees)
    policy, ref = ScatterPlacement(chunk_pages=chunk), RefScatter(chunk)
    policy._cursor = ref._cursor = cursor
    for _ in range(plans):
        usable = usable_blocks(blocks, None)
        expected = ref.plan(blocks, pages, None)
        got = policy.plan(usable, sum(b.free_pages for b in usable), pages)
        if expected is None:
            assert got is None
        else:
            assert list(got.items()) == list(expected.items())
        assert policy._cursor == ref._cursor
        for block, count in (got or {}).items():
            block.free_pages -= count
        pages = max(1, pages // 3)


@pytest.mark.parametrize("policy", ["scatter", "sequential", "random"])
@settings(max_examples=60, deadline=None)
@given(
    chunk=st.sampled_from([100, 256, 4096]),
    seed=st.integers(0, 2**16),
    ops=steps,
)
def test_index_fed_plans_match_full_scan(policy, chunk, seed, ops):
    run(policy, chunk, seed, ops)


def test_scripted_steps_reach_whole_rounds_and_filtered_excludes():
    """One fixed sequence through the harness reaches what the generated
    ones are meant to: whole-round plans and a non-isolated exclude."""
    ops = [
        ("allocate", 6, 3),  # owner 0, movable: four whole rounds
        ("release", 3, 5),  # owner 0, partial: uneven free counts
        ("offline", 1, 0),  # block 9 migrates out without isolation
        ("allocate", 10, 1 << 10),  # owner 1: all but 513 free, block 8 excluded
        ("allocate", 2, 4),  # owner 2, movable: 5 pages inside round 0
    ]
    harness = run("scatter", 256, 0, ops)
    assert harness.manager.blocks[9].state is BlockState.ABSENT
    assert harness.whole_round_plans >= 2
    assert harness.filtered_plans >= 2
    assert harness.plans >= 5
