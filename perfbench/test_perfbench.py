"""Self-tests of the benchmark: every workload at a smoke size, and the gate.

    python3 -m pytest perfbench -q

Smoke runs cap grid sizes at 32 (``--max-size 32``) and run for one
second; the correctness gate applies to them as to full runs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((HERE / "interactions.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload: str, trace: int, *extra: str) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--max-size", "32", *extra)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert summary["claim"] is None and list(summary)[-1] == "claim"
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_benchmark_json_matches_the_interaction_map():
    assert set(INTERACTIONS["end_to_end_names"]) == set(WORKLOAD_NAMES)
    mapped = [{k: m[k] for k in ("name", "unit", "better")} for m in INTERACTIONS["per_layer"]]
    assert BENCHMARK["per_layer"] == mapped
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["op_tail_ms", "peak_rss_mb", "setup_s"]
    setup_bound = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    metrics = smoke(workload, 0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_smoke_reports_every_layer_and_balances(workload):
    m = smoke(workload, 1)
    assert set(m) == {p["name"] for p in BENCHMARK["per_layer"]}
    self_times = sum(v for k, v in m.items() if k.endswith("self_s"))
    assert math.isclose(self_times + m["trace.unattributed_s"], m["trace.wall_s"], rel_tol=1e-9)
    if workload == "phase3-cold":
        # 8 jobs at 32^3, each generating its field inside a pool worker.
        assert m["data.generate_calls"] == 8
        assert m["engine.profile_jobs"] == 8
        assert m["engine.worker_busy_frac"] > 0
        assert m["viz.kernel_s"] > 0
    else:
        assert m["data.generate_calls"] == 0
        assert m["data.generate_s"] == 0
        assert m["viz.kernel_s"] == 0
    if workload == "advise":
        assert m["pricing.reprice_calls"] >= 1 and m["machine.run_calls"] == 0
    if workload in ("phase3-warm", "serve-warm"):
        assert m["machine.run_calls"] == 72 and m["store.appends"] == 72


@pytest.mark.parametrize("workload", ["phase3-cold", "phase3-warm"])
def test_tampered_reference_ledger_fails_the_gate(tmp_path, workload):
    ref = tmp_path / "reference"
    shutil.copytree(HERE / "reference", ref)
    doc = json.loads((ref / "ledgers.json").read_text())
    ledger = doc["entries"]["contour/32"]
    ledger[sorted(ledger)[0]] += 1.0
    (ref / "ledgers.json").write_text(json.dumps(doc))
    proc = bench("--workload", workload, "--seconds", "1", "--max-size", "32",
                 "--reference", str(ref))
    assert proc.returncode == 1
    assert "correctness gate failed" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "advise", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _span(pid, sid, parent, layer, name, t0, t1, info=None):
    return (pid, 1, sid, parent, layer, name, t0, t1, info, 0)


def test_attribution_splits_concurrent_time_and_balances():
    main, w1, w2 = 10, 20, 30
    engine_info = {"workers": 2, "jobs": 2, "shards": 0, "retries": 0,
                   "fallback": 0, "quarantined": 0}
    records = [
        _span(main, 1, 0, "bench", "op", 0, 100),
        _span(main, 2, 1, "engine", "run", 10, 90, engine_info),
        _span(main, 3, 2, "machine", "run", 70, 80),
        _span(w1, 1, 0, "engine", "job", 20, 60),
        _span(w1, 2, 1, "data", "generate", 20, 30, (32, "blobs", 7)),
        _span(w1, 3, 1, "viz", "kernel", 30, 60, "contour"),
        _span(w2, 1, 0, "engine", "job", 40, 80),
        _span(w2, 2, 1, "viz", "kernel", 40, 80, "advection"),
        _span(main, 9, 0, "machine", "run", 120, 130),  # outside the operation
    ]
    a = spans.analyze(records, main)
    assert a["wall_ns"] == 100
    assert math.isclose(sum(a["self_ns"].values()), 100)
    # [0,10) and [90,100): the operation alone; [10,20) and [80,90): engine alone.
    assert math.isclose(a["self_ns"]["bench"], 20)
    assert math.isclose(a["self_ns"]["engine"], 20)
    # [20,30) data; [30,40) viz; [40,60) two viz spans; [60,70) viz;
    # [70,80) viz and machine share.
    assert math.isclose(a["self_ns"]["data"], 10)
    assert math.isclose(a["self_ns"]["viz"], 45)
    assert math.isclose(a["self_ns"]["machine"], 5)
    assert a["calls"]["machine.run"] == 1
    assert a["viz_ns"] == {"contour": 30, "advection": 40}
    assert math.isclose(a["worker_busy_frac"], (40 + 40) / (2 * 80))
