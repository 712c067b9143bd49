"""Unit tests for placement policies.

A policy plans over a zone's allocatable list (blocks with free pages,
neither isolated nor excluded, in index order) plus its free count.
Skipping full, isolated and excluded blocks is the zone's job, so those
cases allocate through :meth:`Zone.allocate`.
"""

import random

import pytest

from repro.mm.block import BlockState, MemoryBlock
from repro.mm.owner import PageOwner
from repro.mm.placement import (
    RandomPlacement,
    ScatterPlacement,
    SequentialPlacement,
    make_placement,
)
from repro.mm.zone import Zone, ZoneType
from repro.units import PAGES_PER_BLOCK


def make_blocks(count, free=PAGES_PER_BLOCK):
    blocks = []
    for i in range(count):
        block = MemoryBlock(i)
        block.state = BlockState.ONLINE
        block.free_pages = free
        blocks.append(block)
    return blocks


def plan(policy, blocks, pages):
    """Plan over ``blocks`` as the zone's allocatable list."""
    return policy.plan(blocks, sum(b.free_pages for b in blocks), pages)


def zone_of(blocks, policy):
    zone = Zone("Movable", ZoneType.MOVABLE, policy)
    for block in blocks:
        zone.add_block(block)
    return zone


class TestSequential:
    def test_fills_lowest_block_first(self):
        blocks = make_blocks(3)
        result = plan(SequentialPlacement(), blocks, PAGES_PER_BLOCK + 10)
        assert result == {blocks[0]: PAGES_PER_BLOCK, blocks[1]: 10}

    def test_exact_fit(self):
        blocks = make_blocks(2)
        result = plan(SequentialPlacement(), blocks, PAGES_PER_BLOCK)
        assert result == {blocks[0]: PAGES_PER_BLOCK}

    def test_insufficient_returns_none(self):
        blocks = make_blocks(1)
        assert plan(SequentialPlacement(), blocks, PAGES_PER_BLOCK + 1) is None

    def test_skips_full_blocks(self):
        blocks = make_blocks(2)
        blocks[0].free_pages = 0
        zone = zone_of(blocks, SequentialPlacement())
        result = zone.allocate(PageOwner("t"), 10)
        assert result == {blocks[1]: 10}

    def test_respects_exclude(self):
        blocks = make_blocks(2)
        zone = zone_of(blocks, SequentialPlacement())
        result = zone.allocate(PageOwner("t"), 10, exclude={blocks[0]})
        assert result == {blocks[1]: 10}

    def test_skips_isolated_blocks(self):
        blocks = make_blocks(2)
        zone = zone_of(blocks, SequentialPlacement())
        zone.isolate_block(blocks[0])
        result = zone.allocate(PageOwner("t"), 10)
        assert result == {blocks[1]: 10}


class TestScatter:
    def test_spreads_over_all_blocks(self):
        blocks = make_blocks(4)
        result = plan(ScatterPlacement(chunk_pages=256), blocks, 4 * 256)
        assert len(result) == 4
        assert all(count == 256 for count in result.values())

    def test_cursor_rotates_between_allocations(self):
        blocks = make_blocks(4)
        policy = ScatterPlacement(chunk_pages=256)
        first = plan(policy, blocks, 256)
        second = plan(policy, blocks, 256)
        assert list(first) != list(second)

    def test_total_matches_request(self):
        blocks = make_blocks(5)
        result = plan(ScatterPlacement(), blocks, 12345)
        assert sum(result.values()) == 12345

    def test_never_exceeds_block_free(self):
        blocks = make_blocks(3, free=100)
        result = plan(ScatterPlacement(chunk_pages=256), blocks, 300)
        assert all(result[b] <= 100 for b in result)

    def test_insufficient_returns_none(self):
        blocks = make_blocks(2, free=10)
        assert plan(ScatterPlacement(), blocks, 21) is None

    def test_no_usable_blocks_returns_none(self):
        zone = zone_of(make_blocks(2, free=0), ScatterPlacement())
        assert zone.allocatable_blocks == []
        assert ScatterPlacement().plan(zone.allocatable_blocks, 0, 1) is None

    def test_interleaving_two_owners(self):
        """Two successive allocations both touch most blocks — the
        behaviour that penalizes vanilla unplug (Figure 2)."""
        blocks = make_blocks(8)
        policy = ScatterPlacement(chunk_pages=256)
        plan_a = plan(policy, blocks, 8 * 1024)
        for block, pages in plan_a.items():
            block.free_pages -= pages
        plan_b = plan(policy, blocks, 8 * 1024)
        shared = set(plan_a) & set(plan_b)
        assert len(shared) >= 4

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ValueError):
            ScatterPlacement(chunk_pages=0)


class TestRandom:
    def test_deterministic_for_seeded_rng(self):
        blocks_a = make_blocks(4)
        blocks_b = make_blocks(4)
        plan_a = plan(RandomPlacement(rng=random.Random(7)), blocks_a, 5000)
        plan_b = plan(RandomPlacement(rng=random.Random(7)), blocks_b, 5000)
        assert {b.index: v for b, v in plan_a.items()} == {
            b.index: v for b, v in plan_b.items()
        }

    def test_total_matches_request(self):
        blocks = make_blocks(4)
        result = plan(RandomPlacement(rng=random.Random(1)), blocks, 7777)
        assert sum(result.values()) == 7777

    def test_insufficient_returns_none(self):
        blocks = make_blocks(1, free=5)
        assert plan(RandomPlacement(rng=random.Random(1)), blocks, 6) is None


class TestFactory:
    @pytest.mark.parametrize("name", ["scatter", "sequential", "random"])
    def test_known_names(self, name):
        assert make_placement(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_placement("bogus")
