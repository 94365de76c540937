"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import speed
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, traced=False, **kwargs):
    return worker.run_workload(name, 1, 0, traced, tiny=True, **kwargs)


@pytest.mark.parametrize("name", ["generate", "series"])
def test_fault_free_workloads_pass_every_check(name):
    result = tiny(name)
    assert result["unexpected"] == []
    assert result["failed"] == 0 and result["attempted"] >= result["requests"]


def test_biject_fails_exactly_the_known_defect_slice():
    requests = workloads.build("biject", 1, tiny=True)
    defective = sum(1 for r in requests if r.known_defect)
    assert defective >= 1
    result = tiny("biject")
    assert result["unexpected"] == []
    assert result["failed"] / result["attempted"] == defective / len(requests)
    assert list(result["known_defects"]) == [workloads.MISSING_SUBTREE]


def test_corrupted_pin_fails_its_request():
    pins = workloads.load_pins()
    key = "count --expr park(Par) --n 3"
    pins[key] = dict(pins[key], sha256="0" * 64)
    result = tiny("generate", pins=pins)
    passes = result["attempted"] // result["requests"]
    assert result["failed"] == passes
    assert [line.split(":")[0] for line in result["unexpected"]] == [key] * passes


@pytest.mark.parametrize("name", ["generate", "series", "biject"])
def test_tampered_output_fails(name, monkeypatch):
    cli = worker.load_cli()

    def tampered(*args, **kwargs):
        if kwargs.get("file") is None:  # stdout only: error lines stay as they are
            args = args + ("",)  # one trailing space
        print(*args, **kwargs)

    monkeypatch.setattr(cli, "print", tampered, raising=False)
    result = tiny(name)
    printing = [r for r in workloads.build(name, 1, tiny=True)
                if not isinstance(r.expect, workloads.Rejected)]
    passes = result["attempted"] // result["requests"]
    assert len(result["unexpected"]) == passes * len(printing)


@pytest.mark.parametrize("name", ["generate", "series", "biject"])
def test_trace_reports_every_per_layer_metric(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result = tiny(name, traced=True, spans_path=spans)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(unit == units[key] for key, (_value, unit) in result["metrics"].items())
    # Self times of all spans add up to the traced pass, minus the loop's own gaps.
    assert 0.9 < result["metrics"]["trace.self_share"][0] <= 1.0
    assert result["metrics"]["cli.requests"][0] == result["requests"]
    assert spans.read_text().count("\n") > result["requests"]


def test_trace_attributes_validation_candidates():
    metrics = tiny("biject", traced=True)["metrics"]
    assert metrics["parking.validate_calls"][0] > 0
    assert metrics["parking.candidates_per_slot"][0] >= 1
    assert metrics["treelike.candidates_per_node"][0] >= 1
    assert metrics["bijection.labels"][0] > 0


def test_tracer_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [(1, None, 0, "a", 0.0, 10.0), (2, 1, 0, "b", 1.0, 4.0), (3, 1, 0, "b", 5.0, 6.0)]
    own = t.self_times()
    assert own["a"] == 6.0 and own["b"] == 4.0


def test_biject_inputs_are_drawn_afresh_each_round():
    def stdins(seed, round_):
        return [r.stdin for r in workloads.build("biject", seed, tiny=True, round_=round_)]

    assert stdins(1, 2) == stdins(1, 2)
    assert stdins(1, 2) != stdins(1, 3)
    assert stdins(1, 2) != stdins(2, 2)


def test_normalised_time_follows_the_probe_rate():
    ref = speed.REFERENCE_S
    assert speed.scale([ref] * 3) == pytest.approx(1.0)
    # A core at half speed doubles both the probe and the request: they cancel.
    assert 2.0 * speed.scale([2 * ref] * 4) == pytest.approx(1.0)
    # Rates are averaged: one probe at full speed and one at a third of it
    # average to two thirds of full speed.
    assert speed.scale([ref, 3 * ref]) == pytest.approx(2 / 3)
    assert speed.runs_after(0.001) == speed.PROBES
    assert speed.runs_after(10.0) == 30


def test_inputs_are_seeded_and_well_formed():
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.choice(workloads.SIZES)
        pf = inputs.parking_function(rng, n)
        assert all(slot <= k for k, slot in enumerate(sorted(pf), start=1))
        children = inputs.forest_children(rng, n)
        below = sorted(c for cs in children for c in cs)
        assert below == list(range(1, n + 1))
    a = inputs.canonical(inputs.tree_doc("Par", 12, random.Random(7)))
    b = inputs.canonical(inputs.tree_doc("Par", 12, random.Random(7)))
    assert a == b


def test_closed_forms():
    assert [workloads.parking_functions(n) for n in range(6)] == [1, 1, 3, 16, 125, 1296]
    assert [workloads.park_linear(n) for n in range(5)] == [1, 1, 4, 30, 336]
    assert [workloads.park_subsets(n) for n in range(5)] == [1, 2, 12, 128, 2000]
    assert [workloads.kary_trees(2, n) for n in range(5)] == [1, 1, 4, 30, 336]
    assert [workloads.park_affine(2, n) for n in range(4)] == [1, 2, 12, 128]


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "biject", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_the_runner_reports():
    import run

    assert tuple(m["name"] for m in SPEC["end_to_end"]) == run.END_TO_END
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
