"""Smoke test of the benchmark: every workload at a tiny size emits every
named metric, and the exact counts repeat between processes.

    python3 -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

WALL_CLOCK = ["reference_ms.p50", "step_ms.p50", "step_ms.p90", "steps_per_s"]
PRINTED_METRICS = {
    "pretrain-mix": [*WALL_CLOCK, *(f"step_ms.{t}" for t in ("mlm", "mffr", "mnce", "fom", "vsm"))],
    "retrieval-eval": [*WALL_CLOCK, "encode_ms_per_clip.p50", "rank_ms_per_query.p50", "rank_ms_per_query.p90"],
    "qa-finetune": WALL_CLOCK,
}


def bench(*args, cwd=CHECKOUT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS
    readme = (HERE / "README.md").read_text()
    for name in tracing.LAYER_METRICS:
        stem = name.rsplit(".", 1)[0] + ".{" if name.startswith(("pretrain.head_ms", "tensor.tape_ops")) else name
        assert f"`{stem}" in readme, f"{name} missing from the layer map"


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0", "--tiny")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(run.END_TO_END)
    for name, m in result["metrics"].items():
        assert m["unit"] == run.END_TO_END[name][0]
        assert m["value"] > 0, name
    printed = {line.split()[0] for line in proc.stdout.splitlines() if line and line[0].isalpha()}
    for name in ["setup_s", "peak_rss_mb", "ops.attempted", "ops.failed", *PRINTED_METRICS[workload]]:
        assert name in printed, name
    assert '"blas_threads": "1"' in proc.stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_repeats_counts(workload):
    results, counts = [], []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "3", "--trace", "1", "--tiny")
        result = result_of(proc)
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(tracing.LAYER_METRICS)
        assert result["metrics"]["trace.unattributed_share"]["value"] <= 0.10
        extra = next(line for line in proc.stdout.splitlines() if line.startswith("# extra "))
        counts.append(json.loads(extra.removeprefix("# extra "))["exact_counts"])
        results.append(result)
    assert counts[0] == counts[1]
    tensor_metrics = [v["value"] for k, v in results[0]["metrics"].items() if k.startswith("tensor.")]
    assert (max(tensor_metrics) == 0) == (workload == "retrieval-eval")


def test_fails_without_the_program(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "pretrain-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
