"""BENCHMARK.json, the catalog, the README and the command agree."""

import json
import re
import subprocess
import sys

import pytest

import catalog
from conftest import E2E, REPO

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def manifest() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_manifest_is_the_catalog():
    document = manifest()
    assert document == catalog.manifest(document["run_seconds"])
    assert 1 <= document["run_seconds"] <= 60
    assert document["paths"] == ["benchmarks/e2e"]


def test_names_units_and_bounds_fit_the_contract():
    document = manifest()
    names = []
    for workload in document["workloads"]:
        names.append(workload["name"])
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in document["end_to_end"] + document["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    setup = [m for m in document["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in document["end_to_end"])}
    ]


def test_every_name_is_documented_in_the_readme():
    readme = (E2E / "README.md").read_text()
    document = manifest()
    for entry in (
        document["workloads"] + document["end_to_end"] + document["per_layer"]
    ):
        assert f"`{entry['name']}`" in readme, entry["name"]
    for family in catalog.READS_AS.values():
        for alias in family.values():
            assert f"`{alias}`" in readme, alias


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_the_command_prints_every_metric_of_its_mode(trace, section):
    """Driver contract on the cheapest workload: last line, exact key set."""
    document = manifest()
    completed = subprocess.run(
        [sys.executable, *document["command"][1:], "--workload", "train-process",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in document[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # the process engine's step is visible coordinator-side only
        assert result["metrics"]["runtime.step_ms"]["value"] > 0
        assert result["metrics"]["quantization.encode_calls"]["value"] > 0
        assert result["metrics"]["nn.forward_ms"]["value"] == 0


def test_the_waterfall_rows_add_up_to_the_step():
    """On one thread the layer rows are a partition of the step.

    The traced run alternates plain and traced epochs; a wrapper that
    kept recording through the plain ones would inflate its row, and
    this sum, by a factor of two.
    """
    import harness

    result = harness.measure("train-codec", seed=1, seconds=1.0, traced=True)
    assert result["correct"], result["errors"]
    rows = {k: v["value"] for k, v in result["metrics"].items()}
    attributed = sum(
        rows[name]
        for name in (
            "nn.forward_ms", "nn.backward_ms", "optim.apply_ms",
            "quantization.encode_ms", "quantization.decode_ms",
            "comm.exchange_ms", "core.aggregate_ms",
        )
    )
    assert 0.9 < attributed / rows["runtime.step_ms"] < 1.1
    assert rows["runtime.unattributed_share"] < catalog.WATERFALL_GATE
    assert abs(rows["bench.trace_overhead_share"]) < 0.15
    # the workload stresses what it claims to
    quantization = rows["quantization.encode_ms"] + rows["quantization.decode_ms"]
    assert quantization / rows["runtime.step_ms"] >= 0.40
