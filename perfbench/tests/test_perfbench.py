"""Tests of the benchmark itself, on workloads cut to a few cells.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import run  # noqa: E402
from workloads import SEEDS, WORKLOADS, smoke_workloads, workload_seed  # noqa: E402

SMOKE = smoke_workloads()


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def one_pass(name: str, layer_timing: bool, reference=None,
             probe_setup=None) -> run.RunOutcome:
    workload = SMOKE[name]
    return run.run(workload, workload.build(0), reference, seconds=0,
                   layer_timing=layer_timing, probe_setup=probe_setup)


def printed(line: str) -> dict:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(SMOKE)


@pytest.mark.parametrize("name", list(SMOKE))
def test_end_to_end_metrics_printed(name):
    # The real set-up probe: a fresh interpreter per sample.
    outcome = one_pass(name, layer_timing=False, probe_setup=lambda:
                       run.setup_seconds(name, 0))
    assert len(outcome.setup_s) == run.SETUP_AT_START + 1
    result = printed(run.result_line(outcome, run.end_to_end(outcome)))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(SMOKE[name].build(0).grid)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(SMOKE))
def test_layer_timing_metrics_printed_and_unperturbed(name):
    outcome = one_pass(name, layer_timing=True)
    result = printed(run.result_line(outcome, run.per_layer(outcome)))
    # The timed pass is gated against the untimed one: equal payload
    # digests and equal simulator event counts, cell by cell.
    assert result["correct"] and result["failed"] == 0
    untimed, timed = outcome.passes[0], outcome.timed[0]
    assert timed.digests == untimed.digests
    assert timed.events == untimed.events
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared("per_layer")
    metrics = result["metrics"]
    assert metrics["sweep.cells"]["value"] == len(untimed.cell_ids)
    assert metrics["sim.scheduled"]["value"] >= untimed.sim_events


def test_layer_timing_removes_every_wrapper():
    from repro.obs import export
    from repro.sim.engine import Simulator
    from repro.sweep import runner

    before = (dict(vars(Simulator)), dict(vars(export)), dict(vars(runner)))
    with layers.LayerTiming():
        assert vars(Simulator)["run"] is not before[0]["run"]
        assert runner.execute_cell is not before[2]["execute_cell"]
    after = (dict(vars(Simulator)), dict(vars(export)), dict(vars(runner)))
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is old[key] for key in old)


def test_tampered_digest_counts_as_failed_cell():
    clean = one_pass("reclaim", layer_timing=False)
    digests = dict(clean.passes[0].digests)
    victim = sorted(digests)[0]
    digests[victim] = "0" * 64
    outcome = one_pass("reclaim", layer_timing=False,
                       reference={"cells": digests})
    result = printed(run.result_line(outcome, {}))
    assert result["failed"] == 1 and not result["correct"]
    assert outcome.passes[0].failures == {victim: "payload digest differs"}


def test_tampered_export_digest_fails_every_cell():
    clean = one_pass("fleet_traced", layer_timing=False)
    first = clean.passes[0]
    reference = {"cells": first.digests, "export_sha256": "0" * 64}
    outcome = one_pass("fleet_traced", layer_timing=False, reference=reference)
    assert outcome.failed == len(first.cell_ids)


def test_committed_digests_cover_default_and_held_out_seed():
    table = run.load_digests()
    for name, workload in WORKLOADS.items():
        for seed in ("0", "7"):
            entry = table[name][seed]
            cell_ids = [cell.cell_id for cell in workload.build(int(seed)).grid]
            assert sorted(entry["cells"]) == sorted(cell_ids)
            assert ("export_sha256" in entry) == workload.traced


def test_benchmark_seed_picks_a_vetted_workload_seed():
    assert workload_seed(0) == 0
    assert {workload_seed(seed) for seed in range(-100, 100)} == set(SEEDS)
    assert {0, 7} <= set(SEEDS)


def test_missing_source_tree_exits_nonzero(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "reclaim", "--seed", "0",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
