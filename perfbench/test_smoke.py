"""Smoke test of the benchmark at tiny input sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05


def _bench() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_reports_every_metric(name, trace):
    result = run.report(run.measure(name, 3, 1.0, trace, scale=TINY))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    kind = "per_layer" if trace else "end_to_end"
    bench = _bench()
    assert set(result["metrics"]) == {m["name"] for m in bench[kind]}
    for m in bench[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", ["refresh-sweep", "dcr-thrash"])
def test_perturbed_golden_value_fails_the_run(name):
    seed = workloads.HELD_OUT_SEED
    first = run.measure(name, seed, 0.0, False, scale=TINY, golden={})
    assert first["failed"] == 0, first["problems"]
    golden = {str(seed): first["samples"][0]["results"]}
    assert run.measure(name, seed, 0.0, False, scale=TINY,
                       golden=golden)["failed"] == 0

    bad = copy.deepcopy(golden)
    if name == "refresh-sweep":
        bad[str(seed)][5]["total_energy_j"] += "1"
    else:
        bad[str(seed)]["dcr"]["total_cycles"] += 1
    summary = run.measure(name, seed, 0.0, False, scale=TINY, golden=bad)
    assert summary["failed"] >= 1
    assert any("total_" in p for p in summary["problems"])


def test_recorded_golden_detects_a_perturbed_value():
    with open(os.path.join(run.HERE, "golden.json")) as fh:
        golden = json.load(fh)
    assert set(golden) == set(workloads.WORKLOADS)
    for name, by_seed in golden.items():
        assert set(by_seed) == {str(s) for s in workloads.GOLDEN_SEEDS}
        for results in by_seed.values():
            assert workloads.golden_mismatches(results, results) == []
            bad = copy.deepcopy(results)
            if isinstance(bad, list):
                bad[0]["mpki"] = "0.5"
            else:
                bad["baseline"]["total_l2_hits"] += 1
            assert len(workloads.golden_mismatches(results, bad)) == 1


def test_layer_map_covers_every_metric_and_workload():
    with open(os.path.join(run.HERE, "layers.json")) as fh:
        layers = json.load(fh)
    bench = _bench()
    assert set(layers["per_layer"]) == {m["name"] for m in bench["per_layer"]}
    assert set(layers["workloads"]) == {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    for entry in layers["per_layer"].values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["on"]) <= set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "demo-compare", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
