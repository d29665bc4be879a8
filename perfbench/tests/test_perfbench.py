"""Tests of the benchmark itself.

Fast tests pin the metric tables, the cache and the span arithmetic.
The ``slow`` tests run ``perfbench/run.py`` end to end on held-out
seeds (the first one in a checkout also fills the input cache, which
takes minutes):

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from perfbench import inputs
from perfbench.common import E2E_METRICS, LAYER_METRICS, Ranking
from perfbench.spans import Span, layer_totals, top_level_seconds

ROOT = inputs.REPO_ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: Seeds never used while the benchmark was tuned.
HELD_OUT_SEEDS = {"fleet_stream": 9001, "corpus_cases": 9002}


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(LAYER_METRICS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_corpus_config_is_the_benchmark_suite_corpus():
    from benchmarks.conftest import BENCH_CORPUS

    assert inputs.CORPUS_CONFIG == BENCH_CORPUS


def test_changed_cache_file_fails_verification(tmp_path, monkeypatch):
    def generate(directory):
        np.savez_compressed(directory / "case_0000.npz", x=np.arange(10))
        return inputs.content_digest(directory)

    monkeypatch.setattr(inputs, "CACHE_DIR", tmp_path)
    spec = inputs.InputSpec("toy", "n=10", generate)
    manifest = inputs.ensure(spec, log=lambda message: None)
    assert inputs.verify(spec) == manifest["content_digest"]
    np.savez_compressed(spec.directory / "case_0000.npz", x=np.arange(11))
    with pytest.raises(inputs.InputDigestMismatch):
        inputs.verify(spec)


def test_cache_key_follows_config():
    a = inputs.InputSpec("toy", "n=10", lambda d: "")
    b = inputs.InputSpec("toy", "n=11", lambda d: "")
    assert a.key != b.key


def test_self_time_subtracts_children():
    spans = [
        Span("fleet.step_self", "step", 0.0, 10.0, None, "step0"),
        Span("detection.poll", "poll", 1.0, 4.0, 0, "step0"),
        Span("collection.ingest", "ingest", 5.0, 6.0, 0, "step0",
             counts={"collection.rows_ingested": 7.0}),
        Span("collection.decode", "decode", 11.0, 12.0, None, "step1"),
    ]
    totals = layer_totals(spans)
    assert totals["fleet.step_self_s"] == pytest.approx(6.0)
    assert totals["detection.poll_s"] == pytest.approx(3.0)
    assert totals["collection.ingest_calls"] == 1.0
    assert totals["collection.rows_ingested"] == 7.0
    assert top_level_seconds(spans) == pytest.approx(11.0)


def test_ranking_metrics():
    ranking = Ranking()
    ranking.add(["a", "b"], {"a"}, ["x"], {"y"})
    ranking.add(["c", "b"], {"b"}, ["y"], {"y"})
    assert ranking.metrics() == {
        "rsql_hits_at_1": 50.0, "rsql_hits_at_5": 100.0,
        "rsql_mrr": 0.75, "hsql_hits_at_1": 50.0,
    }


def _run(workload: str, seed: int, trace: int, cwd=ROOT, seconds: float = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_clean(workload, trace):
    proc = _run(workload, HELD_OUT_SEEDS[workload], trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.slow
def test_corrupted_block_counts_as_failure():
    from perfbench import fleet_stream

    expected = inputs.ensure(inputs.SPECS["fleet_stream"])["content_digest"]
    outcome = fleet_stream.run(1, 0.0, False, expected, corrupt=(0, 3))
    assert outcome.failed >= 1
    assert outcome.e2e["success_rate"] < 100.0
    assert any("quarantined" in c for c in outcome.check_failures)
    assert any("rows ingested" in c for c in outcome.check_failures)


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = _run("corpus_cases", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
