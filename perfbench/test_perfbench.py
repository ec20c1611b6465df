"""Tests of the benchmark's own statistics, attribution and contract."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchcommon import END_TO_END, PER_LAYER
from benchstats import interval_union, percentile
from benchtrace import UNATTRIBUTED, SpanForest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


@pytest.mark.parametrize("size", [1, 2, 3, 10, 101, 1000])
def test_percentile_matches_numpy(size):
    rng = np.random.default_rng(size)
    samples = rng.lognormal(size=size).tolist()
    for q in (0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0):
        assert percentile(samples, q) == pytest.approx(
            np.percentile(samples, q), rel=1e-12, abs=1e-15
        )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_percentile_never_leaves_the_observed_range(samples, q):
    value = percentile(samples, q)
    assert min(samples) <= value <= max(samples)
    assert value == pytest.approx(np.percentile(samples, q), rel=1e-9, abs=1e-9)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_interval_union_merges_overlaps():
    assert interval_union([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert interval_union([]) == 0.0


def _span(span_id, name, parent, start, duration):
    return SimpleNamespace(
        span_id=span_id,
        name=name,
        parent_id=parent,
        start_s=start,
        duration_s=duration,
        attrs={},
    )


def test_self_time_and_layers():
    spans = [
        _span(1, "op", None, 0.0, 10.0),
        _span(2, "core.sharding.solve", 1, 1.0, 8.0),
        _span(3, "solve", 2, 1.0, 8.0),  # shared name: inherits core.sharding
        _span(4, "shard", 3, 2.0, 4.0),
        _span(5, "shard", 3, 3.0, 4.0),  # overlaps the first shard
        _span(6, "greedy_rounds", 4, 2.0, 1.0),
        _span(7, "checks", None, 20.0, 5.0),  # outside any op: not workload time
    ]
    forest = SpanForest(spans)
    assert forest.layer(spans[2]) == "core.sharding"
    assert forest.layer(spans[5]) == "core.greedy"
    assert forest.self_seconds(spans[2]) == pytest.approx(8.0 - 5.0)
    totals = forest.layer_self_seconds()
    assert totals[UNATTRIBUTED] == pytest.approx(2.0)
    assert totals["core.greedy"] == pytest.approx(1.0)
    # op (2) + core.sharding.solve (0) + solve (3) + shards (3 + 4) + greedy (1)
    assert sum(totals.values()) == pytest.approx(13.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == {
        "serve-open",
        "solve-batch",
        "stream-durable",
    }


def test_refuses_to_run_without_the_library_source(tmp_path):
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "serve-open",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
