"""Tests of the benchmark itself: smoke mode, statistics, metric lists."""

import json
import subprocess
import sys

import pytest

import run
from tracing import PER_LAYER


def test_smoke_mode_traces_cleanly():
    """Each workload at tiny shapes: wrappers restored, traced and untraced
    outputs byte-identical, counts repeatable and as expected."""
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0, 10)
    assert run.tail([float(x) for x in range(1, 41)]) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0, 1.5]) == (3.0, 100.0, 0)


def test_end_to_end_reports_scaled_times_and_fails_as_infinite():
    ops = [{"wall_s": 2.0, "scaled_s": 1.0, "ok": True, "traced": False}] * 2
    ops.append({"wall_s": 1.0, "scaled_s": 0.5, "ok": False, "traced": False})
    record = {"ops": ops, "setup_s": 2.0, "peak_rss_mb": 100.0}
    metrics = run.end_to_end(record)
    assert list(metrics) == [m["name"] for m in run.spec()["end_to_end"]]
    assert metrics["op_p50_s"] == 1.0
    assert metrics["op_tail_s"] == float("inf")
    assert metrics["ops_per_s"] == pytest.approx(2 / 2.5)


def test_per_layer_metrics_match_benchmark_json():
    listed = {m["name"]: (m["unit"], m["better"]) for m in run.spec()["per_layer"]}
    assert listed == PER_LAYER


def test_compare_verdicts():
    a = [1.0, 1.01, 0.99, 1.02, 0.98]
    assert run.verdict(a, [x * 0.5 for x in a], 0.1, "lower") == "better"
    assert run.verdict(a, [x * 1.5 for x in a], 0.1, "lower") == "worse"
    assert run.verdict(a, [x * 1.01 for x in a], 0.1, "lower") == "unresolved"
    assert run.verdict(a, [x * 0.5 for x in a], 0.1, "higher") == "worse"


def test_benchmark_json_is_valid():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
