"""Physical page placement policies.

The key indirect cause of slow vanilla unplug (Section 2.2) is *where* the
allocator places pages: Linux serves page faults from mixed per-zone free
lists, scattering each process's footprint across many memory blocks and
interleaving it with other processes.  We model that with pluggable
placement policies:

* :class:`ScatterPlacement` (default) — chunked round-robin over all blocks
  with free pages, starting from a rotating cursor.  Successive allocations
  by different processes interleave across blocks, reproducing Figure 2.
* :class:`SequentialPlacement` — first-fit lowest block; the best case for
  vanilla unplug (used as an ablation bound).
* :class:`RandomPlacement` — uniformly random block per chunk.

A policy *plans* an allocation over the zone's allocatable blocks; the zone
then applies the plan.  The zone keeps that list itself (blocks with free
pages that are neither isolated nor excluded, ascending by block index) and
hands it over together with its free-page count, so planning costs
O(blocks touched), not O(blocks in the zone).  Plans are deterministic
given the policy state and RNG stream.
"""

from __future__ import annotations

import random  # Random is only referenced as a type; draws go through make_rng
from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mm.block import MemoryBlock

__all__ = [
    "PlacementPolicy",
    "ScatterPlacement",
    "SequentialPlacement",
    "RandomPlacement",
    "make_placement",
]

#: Allocation chunk used by scatter/random policies (256 pages = 1 MiB).
#: Real free lists hand out runs of pages, not single pages; chunking also
#: keeps planning cost low for multi-GiB allocations.
DEFAULT_CHUNK_PAGES = 256


class PlacementPolicy:
    """Strategy deciding which blocks serve an allocation."""

    name = "abstract"

    def plan(
        self, usable: List["MemoryBlock"], free: int, pages: int
    ) -> Optional[Dict["MemoryBlock", int]]:
        """Distribute ``pages`` over the allocatable blocks ``usable``.

        ``usable`` is the zone's allocatable list in index order: every
        block in it has free pages and may be charged.  ``free`` is the
        sum of their free pages.  Returns a block → page-count map, or
        ``None`` if ``free`` is below ``pages``.  Must mutate neither
        the blocks nor ``usable``.
        """
        raise NotImplementedError


class SequentialPlacement(PlacementPolicy):
    """First-fit: fill the lowest-index block completely before the next."""

    name = "sequential"

    def plan(self, usable, free, pages):
        if free < pages:
            return None
        plan: Dict["MemoryBlock", int] = {}
        remaining = pages
        for block in usable:
            take = min(block.free_pages, remaining)
            plan[block] = take
            remaining -= take
            if remaining == 0:
                break
        return plan


class ScatterPlacement(PlacementPolicy):
    """Chunked round-robin with a rotating cursor.

    Models the steady-state interleaving produced by Linux free lists: the
    cursor persists across allocations, so consecutive allocations by
    different owners land on different blocks.

    The plan is what a walk of one chunk per block visit would produce,
    starting at ``cursor % len(usable)`` and leaving the cursor one past
    the block that served the last page.  Round 0 is walked lazily (most
    plans end inside it).  A plan that outlasts round 0 has given every
    block one chunk; it then jumps to its last round ``R``, the largest
    with ``sum(min(free_i, R * chunk)) < pages``, and walks only that one.
    """

    name = "scatter"

    def __init__(self, chunk_pages: int = DEFAULT_CHUNK_PAGES):
        if chunk_pages <= 0:
            raise ValueError("chunk_pages must be positive")
        self.chunk_pages = chunk_pages
        self._cursor = 0

    def plan(self, usable, free, pages):
        if free < pages:
            return None
        chunk = self.chunk_pages
        count = len(usable)
        start = self._cursor % count
        plan: Dict["MemoryBlock", int] = {}
        remaining = pages
        index = start
        while True:  # round 0: every block has free pages, so each serves
            block = usable[index]
            take = min(chunk, block.free_pages)
            index += 1
            if index == count:
                index = 0
            if take >= remaining:
                plan[block] = remaining
                self._cursor = index
                return plan
            plan[block] = take
            remaining -= take
            if index == start:
                break
        # Whole rounds.  After r rounds block i has served
        # min(free_i, r * chunk) pages.  Between the points r = free_i /
        # chunk where blocks run dry that total is linear in r, so take
        # blocks in order of running dry and solve on the first stretch
        # whose end reaches pages.
        frees = sorted(b.free_pages for b in usable)
        done = 0  # pages of the blocks already run dry
        active = count
        for block_free in frees:
            if done + block_free * active >= pages:
                break
            done += block_free
            active -= 1
        rounds = (pages - done - 1) // (chunk * active)
        cap = rounds * chunk
        # After ``rounds`` rounds the blocks holding at most ``cap`` pages
        # are dry and every other block has served ``cap``.
        dry = bisect_right(frees, cap)
        remaining = pages - sum(frees[:dry]) - cap * (count - dry)
        last = 0
        for offset, block in enumerate(plan):  # dict order: cursor order
            block_free = block.free_pages
            if block_free <= cap:
                plan[block] = block_free
            elif remaining:
                take = min(chunk, block_free - cap, remaining)
                plan[block] = cap + take
                remaining -= take
                last = offset
            else:
                plan[block] = cap
        self._cursor = (start + last + 1) % count
        return plan


class RandomPlacement(PlacementPolicy):
    """Uniformly random block per chunk (worst-case fragmentation)."""

    name = "random"

    def __init__(
        self, rng: Optional[random.Random] = None, chunk_pages: int = DEFAULT_CHUNK_PAGES
    ):
        # Default to the seeded stream machinery so even an unconfigured
        # policy stays deterministic and auditable (seed 0, named stream).
        self.rng = rng if rng is not None else make_rng(0, "placement/random")
        self.chunk_pages = chunk_pages

    def plan(self, usable, free, pages):
        if free < pages:
            return None
        plan: Dict["MemoryBlock", int] = {}
        candidates = list(usable)
        remaining = pages
        while remaining > 0:
            block = self.rng.choice(candidates)
            left = block.free_pages - plan.get(block, 0)
            take = min(self.chunk_pages, left, remaining)
            plan[block] = plan.get(block, 0) + take
            remaining -= take
            if take == left:
                candidates.remove(block)
        return plan


def make_placement(
    name: str, rng: Optional[random.Random] = None
) -> PlacementPolicy:
    """Factory used by configuration objects (``scatter``/``sequential``/``random``)."""
    if name == ScatterPlacement.name:
        return ScatterPlacement()
    if name == SequentialPlacement.name:
        return SequentialPlacement()
    if name == RandomPlacement.name:
        return RandomPlacement(rng=rng)
    raise ValueError(f"unknown placement policy {name!r}")
