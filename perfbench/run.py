#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload reclaim --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped but
an event-count probe on each simulator;
``--trace 1`` is the layer-timing run: it alternates untimed passes
with passes under :class:`layers.LayerTiming` and prints the per-layer
metrics.  Either way the run repeats whole passes over every cell of
the workload (serially, ``RunContext(workers=1)``) until ``--seconds``
are spent, checks every pass, and prints as its last stdout line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``attempted`` counts cells over all passes; a cell fails when it
raises, when its payload digest differs from the committed one (seeds
in ``digests.json``) or from the run's first pass (other seeds), when
its simulator event count differs from the first pass, when it breaks
a paper claim, or, traced, when it leaves spans open or the export
digest moves.  ``--record-digests`` runs one pass and stores its
digests in ``digests.json`` for the given workload and seed.

``--seed`` picks one of the vetted workload seeds
(:data:`workloads.SEEDS`); ``--workload-seed`` runs any workload seed
as given, the known-defect seeds included.

Exits non-zero without a result when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import functools
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from layers import EventCounter, LayerTiming

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
#: Run-local scratch space (trace exports), inside the checkout.
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

#: Fresh processes timed for ``setup_s`` before the first pass; one more
#: follows every pass.  The median is reported (and absorbs the slow
#: sample of a first run that compiles bytecode).
SETUP_AT_START = 3
#: Iterations of :func:`reference_s` (a few milliseconds).
REFERENCE_STEPS = 4000


@dataclass
class PassResult:
    """One pass over every cell of a workload, and what it produced."""

    #: Host seconds in the cells (and, traced, the export).
    wall_s: float
    #: Cell id (and ``"export"``) -> its time in units of
    #: :func:`reference_s` at that moment.
    cell_ref: Dict[str, float]
    cell_ids: List[str]
    #: cell id -> payload digest (cells that returned one).
    digests: Dict[str, str]
    #: cell id -> simulator callbacks executed.
    events: Dict[str, int]
    #: cell id -> why the cell failed.
    failures: Dict[str, str]
    export_sha256: Optional[str] = None

    @property
    def sim_events(self) -> int:
        return sum(self.events.values())


def run_pass(workload: Any, built: Any, scratch: str) -> PassResult:
    """Execute every cell once, timing the cells (and the export)."""
    from repro.sweep import CellResult, RunContext, SweepReport, payload_digest
    from repro.sweep import runner

    context = RunContext(workers=1, trace=workload.traced)
    report = SweepReport()
    cells = built.grid.cells()
    results: List[CellResult] = []
    failures: Dict[str, str] = {}
    events: Dict[str, int] = {}
    export = None
    wall_s = 0.0
    cell_ref: Dict[str, float] = {}
    clock = time.perf_counter
    with EventCounter() as counter:
        ref_before = reference_s()
        for cell in cells:
            start = clock()
            try:
                # Looked up per call so layer timing can wrap it.
                outcome = runner.execute_cell(
                    built.cell_fn, built.config, cell, context
                )
            except Exception as exc:  # a failed cell, gated like the rest
                outcome = None
                failures[cell.cell_id] = f"raised {type(exc).__name__}: {exc}"
            elapsed = clock() - start
            ref_after = reference_s()
            wall_s += elapsed
            cell_ref[cell.cell_id] = elapsed / ((ref_before + ref_after) / 2)
            ref_before = ref_after
            if outcome is not None:
                report.absorb(outcome)
                results.append(CellResult.of(cell, outcome.payload))
                if outcome.trace_open_spans:
                    failures[cell.cell_id] = (
                        f"{outcome.trace_open_spans} spans left open"
                    )
            events[cell.cell_id] = counter.take()
        if workload.traced:
            start = clock()
            export = report.write_trace(os.path.join(scratch, "trace.jsonl"))
            elapsed = clock() - start
            wall_s += elapsed
            cell_ref["export"] = elapsed / ((ref_before + reference_s()) / 2)
    for index in workload.check(built.config, results):
        failures.setdefault(cells[index].cell_id, "breaks a paper claim")
    return PassResult(
        wall_s=wall_s,
        cell_ref=cell_ref,
        cell_ids=[cell.cell_id for cell in cells],
        digests={r.cell_id: payload_digest(r.payload) for r in results},
        events=events,
        failures=failures,
        export_sha256=export.digest if export is not None else None,
    )


def reference_s() -> float:
    """Host seconds for a fixed slice of interpreter work (heap and dict
    churn, like the simulator's), measured between cells so pass times
    can also be read in units of the host's current speed."""
    start = time.perf_counter()
    heap: List[Any] = []
    counts: Dict[int, int] = {}
    for i in range(REFERENCE_STEPS):
        heapq.heappush(heap, (i * 7919 % 10007, i))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


def load_digests(path: str = DIGESTS) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def gate(result: PassResult, reference: Optional[Dict[str, Any]],
         first: Optional[PassResult]) -> Set[str]:
    """Cells of ``result`` that fail; adds the reasons to its failures.

    ``reference`` holds the committed digests for this workload and
    seed (``None`` when the seed has none); without it the run's first
    pass is the reference.  Event counts always compare to the first
    pass: they are exact but a faster simulator core may change them.
    """
    failures = result.failures
    if reference is not None:
        want_cells, want_export = reference["cells"], reference.get("export_sha256")
    elif first is not None:
        want_cells, want_export = first.digests, first.export_sha256
    else:
        return set(failures)
    for cell_id in result.cell_ids:
        digest = result.digests.get(cell_id)
        if digest is not None and digest != want_cells.get(cell_id):
            failures.setdefault(cell_id, "payload digest differs")
        if first is not None and result.events[cell_id] != first.events[cell_id]:
            failures.setdefault(cell_id, "simulator event count differs")
    if result.export_sha256 != want_export:
        for cell_id in result.cell_ids:
            failures.setdefault(cell_id, "trace export digest differs")
    return set(failures)


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its first cell
    (``seed`` is the workload seed)."""
    spawned = time.monotonic()
    probe = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--workload-seed", str(seed)],
        check=True, capture_output=True, text=True, cwd=ROOT,
    )
    return float(probe.stdout.strip().splitlines()[-1]) - spawned


def set_up(workload_name: str, seed: int) -> Any:
    """Imports, the experiment registry and the workload's grid."""
    import repro.experiments.__main__  # noqa: F401  (registers experiments)
    from repro.sweep import registry

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    if workload.experiment not in registry():
        raise SystemExit(f"experiment {workload.experiment!r} is not registered")
    built = workload.build(seed)
    built.grid.cells()
    return workload, built


@dataclass
class RunOutcome:
    """Every pass of one run, its set-up samples and the cell tally."""

    passes: List[PassResult] = field(default_factory=list)
    #: Passes under layer timing, and the per-layer metrics of each.
    timed: List[PassResult] = field(default_factory=list)
    layer_metrics: List[Dict[str, Tuple[float, str]]] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run(workload: Any, built: Any, reference: Optional[Dict[str, Any]],
        seconds: float, layer_timing: bool,
        probe_setup: Optional[Callable[[], float]] = None) -> RunOutcome:
    """Repeat passes (with a timed twin under ``layer_timing``) for
    ``seconds``, gating each; ``probe_setup`` samples are spread over
    the run so their median does not hang on one moment's host speed."""
    os.makedirs(SCRATCH, exist_ok=True)
    outcome = RunOutcome()
    deadline = time.perf_counter() + seconds
    if probe_setup is not None:
        outcome.setup_s.extend(probe_setup() for _ in range(SETUP_AT_START))
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        while True:
            started = time.perf_counter()
            group = [run_pass(workload, built, scratch)]
            outcome.passes.append(group[0])
            if layer_timing:
                with LayerTiming() as timing:
                    group.append(run_pass(workload, built, scratch))
                outcome.timed.append(group[1])
                outcome.layer_metrics.append(timing.metrics())
            first = outcome.passes[0]
            for result in group:
                bad = gate(result, reference, None if result is first else first)
                outcome.attempted += len(result.cell_ids)
                outcome.failed += len(bad)
                for cell_id in sorted(bad):
                    print(f"perfbench: {workload.name} cell {cell_id}: "
                          f"{result.failures[cell_id]}", file=sys.stderr)
            if probe_setup is not None:
                outcome.setup_s.append(probe_setup())
            # Stop unless at least half of another round fits.
            now = time.perf_counter()
            if deadline - now < (now - started) / 2:
                break
    return outcome


def wall_ref(passes: List[PassResult]) -> float:
    """Sum over cells of each cell's median time in reference units.

    Host slowdowns come in bursts of seconds that hit a few cells of one
    pass; the per-cell median drops them where the median of whole-pass
    totals would keep them."""
    return sum(
        statistics.median(p.cell_ref[key] for p in passes)
        for key in passes[0].cell_ref
    )


def end_to_end(outcome: RunOutcome) -> Dict[str, Any]:
    passes = outcome.passes
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_ref": (wall_ref(passes), "ref"),
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "sim_events": (passes[0].sim_events, "count"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def per_layer(outcome: RunOutcome) -> Dict[str, Any]:
    samples = outcome.layer_metrics
    metrics = {}
    for name, (_, unit) in samples[0].items():
        value = statistics.median(sample[name][0] for sample in samples)
        metrics[name] = {"value": value, "unit": unit}
    untimed = statistics.median(p.wall_s for p in outcome.passes)
    timed = statistics.median(p.wall_s for p in outcome.timed)
    metrics["bench.wall_s"] = {"value": untimed, "unit": "s"}
    metrics["bench.layer_timing_overhead"] = {
        "value": timed / untimed, "unit": "ratio"}
    return metrics


def result_line(outcome: RunOutcome, metrics: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    })


def record_digests(workload: Any, built: Any, seed: int) -> None:
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        result = run_pass(workload, built, scratch)
    if result.failures:
        raise SystemExit(f"not recording a failing pass: {result.failures}")
    table = load_digests() if os.path.exists(DIGESTS) else {}
    entry: Dict[str, Any] = {"cells": result.digests}
    if result.export_sha256 is not None:
        entry["export_sha256"] = result.export_sha256
    table.setdefault(workload.name, {})[str(seed)] = entry
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="benchmark seed: picks a vetted workload seed")
    parser.add_argument("--workload-seed", type=int,
                        help="run this workload seed as given instead")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from the root of a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, workload_seed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    seed = (workload_seed(args.seed) if args.workload_seed is None
            else args.workload_seed)
    if args.setup_probe:
        set_up(args.workload, seed)
        print(time.monotonic())
        return 0

    workload, built = set_up(args.workload, seed)
    if args.record_digests:
        record_digests(workload, built, seed)
        return 0
    reference = load_digests().get(workload.name, {}).get(str(seed))
    probe = None if args.trace else functools.partial(
        setup_seconds, args.workload, seed)
    outcome = run(workload, built, reference, args.seconds,
                  layer_timing=bool(args.trace), probe_setup=probe)
    print(f"perfbench: {workload.name} seed {args.seed} (workload seed "
          f"{seed}): pass seconds "
          f"{[round(p.wall_s, 3) for p in outcome.passes]}", file=sys.stderr)
    metrics = per_layer(outcome) if args.trace else end_to_end(outcome)
    print(result_line(outcome, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
