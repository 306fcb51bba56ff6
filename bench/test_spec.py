"""BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
from pathlib import Path

import run
from tracer import Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_end_to_end_names_and_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS


def test_per_layer_names_and_units():
    printed = run.per_layer_metrics(Tracer(), 0.0, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: unit for k, (_, unit) in printed.items()}


def test_workloads():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.workloads.WORKLOADS
