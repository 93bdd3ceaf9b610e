"""Whole-study benchmark of the repro pipeline, one workload per run.

    python3 perfbench/run.py --workload phase3-warm --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``phase3-cold``,
``phase3-warm``, ``advise`` and ``serve-warm``.  ``--seed`` seeds the
advise query mix; the program's dataset seed stays 7.  Every run works in
a fresh directory under ``.perfbench-work/`` and removes it at the end.

With ``--trace 0`` the run times a few fresh interpreters importing the
program and sets the workload up several times (the sum of the two
medians is ``setup_s``), runs operations for ``--seconds`` (at least
enough for ten samples beyond the tail percentile), and reports
``op_tail_ms``, ``peak_rss_mb`` and ``setup_s``; the median and mean
operation times go to the summary line.  With ``--trace 1`` it runs
untraced for half the time, installs the span wrappers of
``spans.py``, runs traced for the other half, and reports the per-layer
metrics listed in ``interactions.json``.

Output: one summary line (named metrics, environment, ``"claim": null``)
and, last, ``{"correct", "attempted", "failed", "metrics"}``.  Every
operation's outputs are checked against ``reference/``; on a mismatch the
run prints no result and exits 1.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread here and in every child; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# Program switches from the caller's environment must not change the work.
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy  # noqa: E402

import spans  # noqa: E402
from gate import REFERENCE_DIR, GateError, Reference  # noqa: E402
from repro.core.study import ALGORITHM_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
INTERACTIONS = json.loads((HERE / "interactions.json").read_text())


def percentile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def measure(wl, seconds: float, min_ops: int) -> tuple[int, int]:
    """Run operations for ``seconds`` and at least ``min_ops``; (attempted, failed)."""
    start = time.perf_counter()
    hard_stop = start + max(4 * seconds, 60.0)
    attempted = failed = 0
    while attempted < min_ops or time.perf_counter() < start + seconds:
        if time.perf_counter() > hard_stop:
            break
        attempted += 1
        try:
            wl.op()
        except GateError:
            raise
        except Exception:  # the program failed this operation: count it, keep going
            failed += 1
            traceback.print_exc()
    return attempted, failed


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def import_seconds(cwd: Path) -> float:
    """Start a fresh interpreter that imports the program's entry points."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.api, repro.cli"],
                   cwd=cwd, env=env, check=True)
    return time.perf_counter() - t0


def run_untraced(wl, args) -> tuple[dict, dict]:
    # Set-up = starting a process that can run the program (median of a
    # few fresh interpreters) + preparing the workload in this one.
    imports = [import_seconds(wl.work) for _ in range(IMPORT_REPEATS)]
    setups: list[float] = []
    for i in range(SETUP_REPEATS):
        if i:
            wl.teardown()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    try:
        attempted, failed = measure(wl, args.seconds, wl.min_ops)
        wl.finish()
    finally:
        wl.teardown()
    lat = wl.latencies
    if not lat:
        raise RuntimeError(f"all {attempted} operations failed")
    p50, tail = statistics.median(lat), percentile(lat, wl.tail)
    # Only the tail is an end-to-end metric.  On a host that alternates
    # between a fast and a slow speed state, the median and the mean of a
    # single-threaded workload move with the share of the run spent in each
    # state (up to 25 % interquartile spread across runs on advise), while
    # the tail sits in the slow state in every run.
    metrics = {
        "op_tail_ms": metric(tail * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "setup_s": metric(statistics.median(imports) + statistics.median(setups), "s"),
    }
    # The issue-level names of these figures on this workload.
    named = {}
    for (name, scale, unit), value in zip(wl.headline, (p50, tail)):
        named[name] = metric(value * scale, unit)
    named["op_mean_ms"] = metric(statistics.fmean(lat) * 1e3, "ms")
    named["setup_s"] = metrics["setup_s"]
    named["failed_frac"] = metric(failed / attempted, "ratio")
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    return {"attempted": attempted, "failed": failed, "ops_timed": len(lat),
            "tail_percentile": wl.tail, "named": named,
            "setup_import_s": statistics.median(imports),
            "setup_workload_s": statistics.median(setups)}, metrics


def run_traced(wl, args, work: Path) -> tuple[dict, dict]:
    wl.setup()
    try:
        baseline: list[float] = []
        if wl.min_ops > 1:  # an untraced half to compare against
            wl.begin_baseline()
            measure(wl, args.seconds / 2, max(1, wl.min_ops // 5))
            baseline = list(wl.latencies)
        recorder = spans.Recorder(work / "spans")
        spans.install(recorder)  # before any pool forks
        wl.begin_trace(recorder)
        wl.latencies.clear()
        attempted, failed = measure(
            wl, args.seconds / 2 if baseline else args.seconds, max(1, wl.min_ops // 5)
        )
        wl.finish()
    finally:
        wl.teardown()
    a = spans.analyze(recorder.collect(), os.getpid())
    if baseline and wl.latencies:
        trace_overhead = statistics.median(wl.latencies) / statistics.median(baseline) - 1.0
    else:
        trace_overhead = a["overhead_ns"] / a["wall_ns"]
    values = layer_metrics(a, attempted, failed)
    values["obs.bench_trace_overhead_frac"] = trace_overhead
    values.update(wl.layer_metrics())
    metrics = {m["name"]: metric(values.get(m["name"], 0.0), m["unit"])
               for m in INTERACTIONS["per_layer"]}
    return {"attempted": attempted, "failed": failed, "ops_timed": len(wl.latencies)}, metrics


def layer_metrics(a: dict, attempted: int, failed: int) -> dict:
    """Per-operation figures from :func:`spans.analyze`."""
    n = max(1, attempted)
    total, calls = a["total_ns"], a["calls"]

    def secs(ns: float) -> float:
        return ns / 1e9 / n

    gen_calls = calls.get("data.generate", 0)
    gets = calls.get("pricing.ledger_get", 0)
    v = {
        "data.generate_s": secs(total.get("data.generate", 0)),
        "data.generate_calls": gen_calls / n,
        "data.distinct_field_ratio": len(set(a["datasets"])) / gen_calls if gen_calls else 0.0,
        "viz.kernel_s": secs(total.get("viz.kernel", 0)),
        "engine.worker_busy_frac": a["worker_busy_frac"],
        "engine.profile_jobs": a.get("engine_jobs", 0) / n,
        "engine.shard_tasks": a.get("engine_shards", 0) / n,
        "engine.retries": a.get("engine_retries", 0) / n,
        "engine.fell_back_serial": a.get("engine_fallback", 0) / n,
        "profiles.from_ledger_s": secs(total.get("profiles.from_ledger", 0)),
        "profiles.from_ledger_calls": calls.get("profiles.from_ledger", 0) / n,
        "machine.run_s": secs(total.get("machine.run", 0)),
        "machine.run_calls": calls.get("machine.run", 0) / n,
        "pricing.reprice_s": secs(total.get("pricing.reprice", 0)),
        "pricing.reprice_calls": calls.get("pricing.reprice", 0) / n,
        "pricing.tables_built": calls.get("pricing.table_build", 0) / n,
        "pricing.ledger_hit_ratio": a.get("ledger_hits", 0) / gets if gets else 0.0,
        "validate.check_s": secs(total.get("validate.check", 0)),
        "validate.points_checked": a.get("points_checked", 0) / n,
        "store.append_s": secs(total.get("store.append", 0)),
        "store.appends": calls.get("store.append", 0) / n,
        "store.bytes_written": a.get("bytes_written", 0) / n,
        "store.sync_s": secs(total.get("store.fsync", 0)),
        "store.load_s": secs(total.get("store.load", 0)),
        "report.render_s": secs(total.get("report.render", 0)),
        "serve.submit_s": secs(total.get("serve.submit", 0)),
        "serve.status_s": secs(total.get("serve.status", 0)),
        "obs.instrumentation_frac": a["overhead_ns"] / a["wall_ns"] if a["wall_ns"] else 0.0,
        "trace.wall_s": secs(a["wall_ns"]),
        "trace.unattributed_s": secs(a["self_ns"].get("bench", 0.0)),
        "bench.failed_frac": failed / attempted if attempted else 0.0,
    }
    for alg in ALGORITHM_NAMES:
        v[f"viz.{alg}_s"] = secs(a["viz_ns"].get(alg, 0))
    for layer in spans.LAYERS:
        name = "advisor.advise_self_s" if layer == "advisor" else f"{layer}.self_s"
        v[name] = secs(a["self_ns"].get(layer, 0.0))
    return v


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="seed of the advise query mix")
    parser.add_argument("--seconds", type=float, default=12.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--max-size", type=int, default=None,
                        help="cap grid sizes (smoke runs; the correctness gate still applies)")
    parser.add_argument("--reference", type=Path, default=REFERENCE_DIR,
                        help="directory holding the reference ledgers and point digests")
    args = parser.parse_args(argv)

    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        wl = WORKLOADS[args.workload](work, Reference(args.reference), args.seed, args.max_size)
        info, metrics = run_traced(wl, args, work) if args.trace else run_untraced(wl, args)
    except GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "max_size": args.max_size,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        **info,
        **wl.summary(),
        "claim": None,
    }
    print(json.dumps(summary))
    print(json.dumps({
        "correct": info["ops_timed"] > 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
