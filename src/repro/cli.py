"""Command-line interface: regenerate the paper's results from a shell.

    python -m repro table1              # Table I (contour sweep)
    python -m repro table2              # Table II (all algorithms @128^3)
    python -m repro table3              # Table III (@256^3)
    python -m repro figures             # Figs. 2-6 series summary
    python -m repro classify            # class + recommended cap per algorithm
    python -m repro all --csv results/  # everything, with CSV artifacts
    python -m repro sweep phase3 --workers 8 --store sweep.jsonl
    python -m repro sweep phase1 --trace sweep.trace.jsonl --samples
    python -m repro sweep phase1 --governor step:100=0.7:200=0.5 \\
        --signal-trace price.jsonl            # governed time-varying caps
    python -m repro advise contour 128 --cap 60          # price one query
    python -m repro advise --serve < queries.jsonl       # JSONL query loop
    python -m repro chaos phase1 --plan default --workers 4
    python -m repro serve .cache/serve --workers 2       # supervised daemon
    python -m repro jobs --submit phase1 --report        # enqueue + inspect
    python -m repro jobs < requests.jsonl                # JSONL job protocol
    python -m repro chaos --service                      # daemon-layer drill
    python -m repro chaos --governor --control duty      # signal-feed drill
    python -m repro doctor .cache/sweep-phase1.jsonl
    python -m repro doctor --lint                     # audit the source too
    python -m repro trace sweep.trace.jsonl
    python -m repro metrics sweep.metrics.json --format prom
    python -m repro lint --stats                      # static-analysis gate
    python -m repro bench --trend --check             # kernel perf trajectory

``sweep`` runs a phase grid through the parallel engine with a
resumable result store: kill it mid-run and re-invoke with the same
``--store`` and it completes only the missing points.  ``--max-size``
caps dataset sizes (like REPRO_MAX_SIZE); ``--cycles`` overrides the
per-measurement visualization cycle count.  ``--governor`` replaces the
static cap grid with the caps a signal-driven power policy would
command over a ``--signal-trace`` (see docs/governors.md).

``chaos`` re-runs a sweep under a named fault plan (worker crashes,
sensor dropout, a torn store tail, ...) and reports survival; ``doctor``
audits an existing store against the physical invariants and can
quarantine violators.  See docs/robustness.md.

``serve`` runs the crash-safe sweep daemon over a WAL-backed spool:
``kill -9`` it and a restart replays the queue, reclaims orphaned
leases, and resumes every study bitwise from its store.  ``jobs`` is
the client — one-shot submit/status/cancel/report flags, or a hardened
JSONL request loop on stdin.  ``chaos --service`` drills that contract
(worker crashes mid-job, heartbeat stalls, duplicate delivery, a torn
WAL tail) and exits non-zero if a job is lost or a byte differs.

``trace`` and ``metrics`` read back the telemetry layer's artifacts —
per-phase span breakdowns and counter/gauge/histogram dumps (JSON or
Prometheus text).  See docs/observability.md.

``lint`` runs the contract-aware static-analysis gate (atomic writes,
isclose cap matching, pickle ban, layering, span balance, unit suffixes,
locked mutation) and exits non-zero on any new finding.  See
docs/static_analysis.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import time
from pathlib import Path

from . import api
from .core import (
    classify_result,
    figure2_series,
    figure3_series,
    ipc_by_size_series,
    recommend_cap,
    render_slowdown_table,
    render_table1,
)
from .core.engine import SweepEngine
from .core.profiles import DEFAULT_CACHE_PATH, ProfileCache
from .core.runner import DEFAULT_VIZ_CYCLES
from .core.study import ALGORITHM_NAMES
from .machine.presets import ALL_PRESETS
from .harness import result_to_csv, series_to_csv
from .obs.durable import atomic_write_json
from .serve import SweepService

__all__ = ["main"]

_EPILOG = """\
environment variables:
  REPRO_MAX_SIZE   integer cap on dataset sizes in cells per axis
                   (e.g. REPRO_MAX_SIZE=64 smoke-tests every command
                   without the 256^3 extractions; --max-size sets it).
                   Non-integer values are rejected with an error.

examples:
  python -m repro table1
  python -m repro all --csv results/
  python -m repro sweep phase3 --workers 8 --store .cache/phase3.jsonl
"""


def _csv_dir(args) -> Path | None:
    if args.csv is None:
        return None
    path = Path(args.csv)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_table1(engine: SweepEngine, args) -> None:
    config = api.resolve_config("table1")
    result = engine.run(config)
    print(render_table1(result, algorithm="contour", size=config.sizes[0]))
    if (d := _csv_dir(args)) is not None:
        result_to_csv(result, d / "table1.csv")


def cmd_table2(engine: SweepEngine, args) -> None:
    config = api.resolve_config("table2")
    result = engine.run(config)
    print(render_slowdown_table(result, size=config.sizes[0]))
    if (d := _csv_dir(args)) is not None:
        result_to_csv(result, d / "table2.csv")


def cmd_table3(engine: SweepEngine, args) -> None:
    config = api.resolve_config("table3")
    result = engine.run(config)
    print(render_slowdown_table(result, size=config.sizes[0]))
    if (d := _csv_dir(args)) is not None:
        result_to_csv(result, d / "table3.csv")


def cmd_figures(engine: SweepEngine, args) -> None:
    config = api.resolve_config("table2")
    size = config.sizes[0]
    p2 = engine.run(config)
    fig2 = figure2_series(p2, size=size)
    print(f"Fig 2 (at {size}^3, 120W):")
    print(f"{'alg':>10s} {'f(GHz)':>8s} {'IPC':>6s} {'miss':>6s}")
    for alg in ALGORITHM_NAMES:
        f = fig2["frequency"][alg].y[-1]
        i = fig2["ipc"][alg].y[-1]
        m = fig2["llc_miss_rate"][alg].y[-1]
        print(f"{alg:>10s} {f:>8.2f} {i:>6.2f} {m:>6.2f}")

    fig3 = figure3_series(p2, size=size)
    print("\nFig 3 (elements/s at 120W, millions):")
    for alg, s in fig3.items():
        print(f"{alg:>10s} {s.y[-1] / 1e6:>8.2f}")

    config = api.resolve_config("phase3")
    p3 = engine.run(config)
    print("\nFigs 4-6 (IPC at 120W by size):")
    print(f"{'alg':>10s} " + " ".join(f"{s:>7d}" for s in config.sizes))
    for alg in ALGORITHM_NAMES:
        series = ipc_by_size_series(p3, algorithm=alg)
        print(f"{alg:>10s} " + " ".join(f"{series[s].y[-1]:>7.2f}" for s in config.sizes))
    if (d := _csv_dir(args)) is not None:
        result_to_csv(p3, d / "phase3.csv")
        series_to_csv(fig3, d / "fig3.csv")


def cmd_classify(engine: SweepEngine, args) -> None:
    config = api.resolve_config("table2")
    size = config.sizes[0]
    result = engine.run(config)
    classes = classify_result(result, size=size)
    print(f"{'algorithm':>10s} {'class':>18s} {'draw':>7s} {'rec cap':>8s}")
    for alg in ALGORITHM_NAMES:
        c = classes[alg]
        rec = recommend_cap(result.select(algorithm=alg, size=size))
        print(f"{alg:>10s} {c.power_class.value:>18s} {c.natural_power_w:>6.1f}W {rec.cap_w:>7.0f}W")


def _sweep_progress(event: dict) -> None:
    kind = event.get("kind")
    if kind == "profile-done":
        print(
            f"  [{event['completed']:>3d}/{event['total']}] profiled "
            f"{event['algorithm']}@{event['size']}^3 in {event['elapsed_s']:.2f}s",
            flush=True,
        )
    elif kind == "group-skipped":
        print(f"  [resume] {event['algorithm']}@{event['size']}^3 already complete", flush=True)
    elif kind == "serial-fallback":
        print(f"  [warn] process pool failed ({event['reason']}); continuing serially", flush=True)
    elif kind == "point-quarantined":
        print(
            f"  [quarantine] {event['algorithm']}@{event['size']}^3 {event['cap_w']:g}W "
            f"({', '.join(event['reasons'])})",
            flush=True,
        )
    elif kind == "interrupted":
        print(
            f"  [interrupt] stopping; {event['points_saved']} points safe on disk "
            f"— re-run with the same --store to resume",
            flush=True,
        )


def _governed_config(config, args):
    """Replace the static cap grid with a governed cap series."""
    from .insitu.governors import SignalTrace, governed_caps_w, parse_governor

    gov = parse_governor(args.governor)
    if args.signal_trace:
        trace = SignalTrace.from_jsonl(args.signal_trace)
    else:
        trace = SignalTrace.synthetic(
            "walk", seed=7, n=max(4 * args.epochs, 16), lo=50.0, hi=250.0
        )
    caps = governed_caps_w(
        gov,
        trace,
        ALL_PRESETS["broadwell"],
        n_epochs=args.epochs,
        epoch_s=args.epoch_s,
    )
    print(
        f"governor {gov.describe()} over trace '{trace.name}': "
        f"caps " + ", ".join(f"{c:g}W" for c in caps)
    )
    return dataclasses.replace(config, caps_w=caps)


def cmd_sweep(args) -> None:
    config = api.resolve_config(args.phase)
    if args.governor:
        config = _governed_config(config, args)
    store = args.store or str(Path(".cache") / f"sweep-{config.name}.jsonl")
    engine = SweepEngine(
        workers=args.workers,
        store=store,
        profile_cache=args.cache or None,
        n_cycles=args.cycles,
        progress=_sweep_progress,
        trace=args.trace,
        samples=args.samples,
    )
    n_jobs = len(config.algorithms) * len(config.sizes)
    mode = "serial" if (engine.workers or 0) <= 1 else f"{engine.workers} workers"
    print(
        f"sweep {config.name}: {config.n_configurations} configurations "
        f"({n_jobs} profile jobs x {len(config.caps_w)} caps), {mode}, store={store}"
    )
    t0 = time.perf_counter()
    result = engine.run(config, resume=args.resume)
    wall = time.perf_counter() - t0
    s = engine.stats
    print(
        f"done: {len(result.points)} points in {wall:.2f}s "
        f"({len(result.points) / wall:.0f} pts/s) — "
        f"{s.profile_jobs_run} profiled, {s.profile_jobs_cached} from ledger cache, "
        f"{s.points_resumed} resumed from store, {s.retries} retries"
        + (", serial fallback" if s.fell_back_serial else "")
    )
    if args.trace:
        print(f"trace: {args.trace} (inspect with `repro trace {args.trace}`)")


def cmd_chaos(args) -> int:
    from .obs.trace import Tracer

    config = api.resolve_config(args.phase)
    drill = "governor" if args.governor else "service" if args.service else "sweep"
    try:
        plan = api.get_plan(args.plan, drill, seed=args.seed)
    except ValueError as exc:
        print(
            f"chaos: {exc} (service plans need --service, governor plans --governor)",
            file=sys.stderr,
        )
        return 2
    with contextlib.ExitStack() as stack:
        if args.trace:
            # Every drill records its phases on the default tracer.
            stack.enter_context(Tracer(args.trace).as_default())
        if drill == "governor":
            print(
                f"governor chaos: plan '{plan.name}' (seed {plan.seed}), "
                f"governor {args.governor_spec}, control {args.control}"
            )
            report = api.run_governor_chaos(
                plan, governor=args.governor_spec, control=args.control, n_epochs=args.epochs
            )
        elif drill == "service":
            spool = args.spool or str(Path(".cache") / f"service-chaos-{config.name}")
            print(f"service chaos {config.name}: plan '{plan.name}', spool={spool}")
            report = api.run_service_chaos(
                config,
                plan,
                spool=spool,
                n_jobs=args.jobs,
                workers=args.workers or 2,
                lease_s=args.lease,
                n_cycles=args.cycles,
            )
        else:
            store = args.store or str(Path(".cache") / f"chaos-{config.name}.jsonl")
            print(f"chaos {config.name}: plan '{plan.name}' (seed {plan.seed}), store={store}")
            report = api.run_chaos(
                config,
                plan,
                store=store,
                workers=args.workers,
                n_cycles=args.cycles,
                progress=_sweep_progress if args.verbose else None,
            )
    print(report.render())
    return 0 if report.survived else 1


def cmd_serve(args) -> int:
    import signal

    svc = SweepService(
        args.spool,
        workers=args.workers,
        lease_s=args.lease,
        poll_interval_s=args.poll,
        trace=args.trace,
    )
    sup = svc.supervisor()

    def _terminate(signum, frame):  # graceful: running studies requeue
        sup.stop()

    previous = signal.signal(signal.SIGTERM, _terminate)
    print(
        f"serve: spool={svc.spool} workers={sup.workers} "
        f"lease={sup.lease_s:.0f}s" + (" (drain)" if args.drain else "")
    )
    try:
        report = svc.run_daemon(drain=args.drain, supervisor=sup)
    except KeyboardInterrupt:
        sup.stop()
        report = svc.report()
    finally:
        signal.signal(signal.SIGTERM, previous)
    counts = report["counts"]
    print(
        f"serve: done — {counts['completed']} completed, {counts['failed']} failed, "
        f"{counts['cancelled']} cancelled, {counts['pending'] + counts['running']} open; "
        f"breaker {report['breaker']}, "
        f"{report['wal_corrupt_lines']} corrupt WAL line(s) skipped"
    )
    return 0


def cmd_jobs(args) -> int:
    import json as _json

    svc = SweepService(args.spool)

    def handle(doc: dict) -> dict:
        op = doc.pop("op", None)
        if op == "submit":
            study = doc.pop("study", "phase1")
            n_cycles = int(doc.pop("n_cycles", args.cycles))
            max_retries = int(doc.pop("max_retries", args.max_retries))
            if doc:
                raise ValueError(f"unknown submit field(s) {sorted(doc)}")
            receipt = api.submit_study(
                study, service=svc, n_cycles=n_cycles, max_retries=max_retries
            )
            return {"ok": receipt.accepted, "op": op, **receipt.to_dict()}
        if op == "status":
            return {"ok": True, "op": op, **svc.status(str(doc["job_id"]))}
        if op == "cancel":
            return {"ok": True, "op": op, **svc.cancel(str(doc["job_id"]))}
        if op == "report":
            return {"ok": True, "op": op, **svc.report()}
        raise ValueError(f"unknown op {op!r}; expected submit/status/cancel/report")

    # The one-shot flags are requests to the same handler: submits,
    # then statuses, cancels and the report.  With none, speak the JSONL
    # request/response protocol on stdin, the same loop as
    # `repro advise --serve`.
    requests = [{"op": "submit", "study": phase} for phase in args.submit or ()]
    requests += [{"op": "status", "job_id": job_id} for job_id in args.status or ()]
    requests += [{"op": "cancel", "job_id": job_id} for job_id in args.cancel or ()]
    requests += [{"op": "report"}] if args.report else []
    if not requests:
        return _serve_jsonl("jobs", handle)
    rc = 0
    for request in requests:
        op = request["op"]
        try:
            answer = handle(request)
        except Exception as exc:  # one-shot boundary: answer, go on to the next flag
            answer = {"ok": False, "op": op, "error": str(exc)}
        if not answer["ok"]:
            rc = 1
        print(_json.dumps(answer, sort_keys=True), flush=True)
    return rc


class _InternalError(RuntimeError):
    """A well-formed serve-loop request that failed while executing."""


#: Longest request line a JSONL serve loop reads.
_MAX_REQUEST_LINE = 64 * 1024


def _serve_jsonl(name: str, handle) -> int:
    """Answer one JSON request per stdin line with one JSON line back.

    ``handle(doc)`` turns a request object (its optional ``"id"`` already
    removed) into a response; the id is echoed verbatim so callers can
    pipeline requests.  The loop is a trust boundary: lines are read
    with a hard length bound (a pathological client cannot balloon
    memory), an oversized line is drained and answered with an error
    instead of poisoning the next request, and every failure increments
    ``repro_<name>_errors_total{reason=...}`` (``oversized``,
    ``invalid-json``, ``bad-request``, or ``internal`` for an
    :class:`_InternalError`) — the loop itself never dies on bad input.
    """
    import json as _json

    from .obs.metrics import get_registry

    reg = get_registry()

    def count_error(reason: str) -> None:
        reg.counter(
            f"repro_{name}_errors_total", f"{name} serve-loop failures", reason=reason
        ).inc()

    def respond(doc: dict) -> None:
        print(_json.dumps(doc, sort_keys=True), flush=True)

    while True:
        raw = sys.stdin.readline(_MAX_REQUEST_LINE + 1)
        if raw == "":
            return 0  # EOF
        if len(raw) > _MAX_REQUEST_LINE:
            # Drain the remainder of this line so the next readline
            # starts at a fresh request, then report the rejection.
            while True:
                chunk = sys.stdin.readline(_MAX_REQUEST_LINE)
                if chunk == "" or chunk.endswith("\n"):
                    break
            count_error("oversized")
            respond({"ok": False, "error": f"request line exceeds {_MAX_REQUEST_LINE} bytes"})
            continue
        line = raw.strip()
        if not line:
            continue
        req_id = None
        try:
            try:
                doc = _json.loads(line)
            except ValueError as exc:
                count_error("invalid-json")
                raise ValueError(f"invalid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                count_error("bad-request")
                raise ValueError(f"{name} request must be a JSON object")
            req_id = doc.pop("id", None)
            try:
                answer = handle(doc)
            except Exception as exc:
                count_error("internal" if isinstance(exc, _InternalError) else "bad-request")
                raise
        except Exception as exc:  # protocol boundary: report, keep serving
            answer = {"ok": False, "error": str(exc)}
        if req_id is not None:
            answer["id"] = req_id
        respond(answer)


def cmd_doctor(args) -> int:
    if args.store is None and not args.lint:
        print("doctor: nothing to check — give a store path and/or --lint", file=sys.stderr)
        return 2
    rc = 0
    if args.store is not None:
        report = api.doctor(args.store, quarantine=args.quarantine)
        print(report.render())
        rc = 0 if report.ok else 1
    if args.lint:
        from .lint import render_text

        if args.store is not None:
            print()
        lint_report = api.lint()
        print(render_text(lint_report))
        rc = max(rc, 0 if lint_report.ok else 1)
    return rc


def _git_changed_files() -> list[Path] | None:
    """Tracked-modified + untracked ``*.py`` files, or None outside git."""
    import subprocess

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    names: list[str] = []
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            out = subprocess.run(
                cmd, capture_output=True, text=True, check=True, cwd=top
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            return None
        names.extend(out.splitlines())
    files: list[Path] = []
    seen: set[Path] = set()
    for name in names:
        p = (Path(top) / name).resolve()
        if p.suffix == ".py" and p.is_file() and p not in seen:
            seen.add(p)
            files.append(p)
    return files


def cmd_lint(args) -> int:
    from .lint import render_json, render_text

    only = None
    if getattr(args, "changed", False):
        only = _git_changed_files()
        if only is None:
            print("lint: --changed requires a git checkout", file=sys.stderr)
            return 2
        if not only:
            print("lint: no changed python files")
            return 0
    report = api.lint(
        args.paths or None,
        baseline=args.baseline,
        update_baseline=args.update_baseline,
        only=only,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report, stats=args.stats))
    if args.report:
        atomic_write_json(args.report, report.to_json())
    return 0 if report.ok else 1


def cmd_sanitize(args) -> int:
    from .lint import sanitizer

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("sanitize: give a repro subcommand to run, e.g. "
              "`repro sanitize chaos --service`", file=sys.stderr)
        return 2
    if rest[0] == "sanitize":
        print("sanitize: cannot nest sanitize", file=sys.stderr)
        return 2
    sanitizer.install()
    try:
        inner = main(rest)
    finally:
        sanitizer.uninstall()
    doc = sanitizer.report()
    if args.show or not doc["ok"]:
        print(sanitizer.render(doc))
    if args.report:
        atomic_write_json(args.report, doc)
    if not doc["ok"]:
        return 1
    return inner


def _render_advise(resp) -> str:
    lines = [
        f"{resp.algorithm}@{resp.size}^3 on {resp.machine} "
        f"({'ledger cache hit' if resp.cache_hit else 'profiled this query'}, "
        f"{resp.latency_s * 1e3:.2f} ms)",
        f"  priced cap:      {resp.cap_w:g} W",
        f"  recommended cap: {resp.recommended_cap_w:g} W "
        f"(tolerance {resp.tolerance:.0%}, saves {resp.power_saved_w:.1f} W)",
        f"  predicted: {resp.predicted_time_s:.3f} s, "
        f"{resp.predicted_energy_j:.1f} J, {resp.predicted_power_w:.1f} W, "
        f"tratio {resp.predicted_tratio:.3f}",
    ]
    return "\n".join(lines)


def cmd_advise(args) -> int:
    import json as _json

    # One store for every machine's advisor, so a ledger one query
    # records is a hit for the next query on any machine.
    store = ProfileCache(args.cache or None)
    advisors: dict[str, object] = {}

    def advisor_for(machine: str):
        if machine not in advisors:
            advisors[machine] = api.advisor(machine=machine, cache=store, n_cycles=args.cycles)
        return advisors[machine]

    if args.serve:
        # See docs/pricing_service.md for the protocol.
        def handle(doc: dict) -> dict:
            request = api.AdviseRequest.from_dict(doc)
            try:
                resp = api.advise(request, advisor=advisor_for(request.machine))
            except Exception as exc:
                raise _InternalError(str(exc)) from exc
            return {"ok": True, **resp.to_dict()}

        return _serve_jsonl("advise", handle)

    if args.algorithm is None or args.size is None:
        print("advise: need ALGORITHM and SIZE (or --serve)", file=sys.stderr)
        return 2
    request = api.AdviseRequest(
        algorithm=args.algorithm,
        size=args.size,
        cap_w=args.cap,
        tolerance=args.tolerance,
        machine=args.machine,
    )
    resp = api.advise(request, advisor=advisor_for(args.machine))
    if args.json:
        print(_json.dumps(resp.to_dict(), sort_keys=True))
    else:
        print(_render_advise(resp))
    return 0


def cmd_bench(args) -> int:
    from .core.benchtrack import BenchTracker, check_floors, format_trend, trend_rows

    try:
        tracker = BenchTracker(args.path)
    except (ValueError, OSError) as exc:
        print(f"bench: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if not len(tracker):
        print(f"bench: no entries in {tracker.path}", file=sys.stderr)
        return 2
    print(format_trend(trend_rows(tracker)))
    if args.check:
        failures = check_floors(tracker)
        for msg in failures:
            print("REGRESSION:", msg, file=sys.stderr)
        return 1 if failures else 0
    return 0


def cmd_trace(args) -> int:
    from .obs.trace import read_trace, render_summary, summarize_trace

    _, records = read_trace(args.file)
    n_events = sum(1 for r in records if r.get("kind") == "event")
    summary = summarize_trace(records, name=args.name)
    print(render_summary(summary, n_events=n_events))
    if args.events:
        for r in records:
            if r.get("kind") != "event":
                continue
            attrs = r.get("attrs") or {}
            detail = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            print(f"  [{r.get('t_s', 0.0):9.3f}s] {r.get('name')} {detail}".rstrip())
    return 0


def cmd_metrics(args) -> int:
    from .obs.metrics import load_metrics

    registry = load_metrics(args.file)
    if args.format == "prom":
        print(registry.to_prometheus(), end="")
    else:
        import json as _json

        print(_json.dumps(registry.to_json(), indent=1, sort_keys=True))
    return 0


_COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "figures": cmd_figures,
    "classify": cmd_classify,
}


def _build_parser() -> argparse.ArgumentParser:
    # Shared flags, each given only to the subcommands that read it.
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--max-size", type=int, default=None,
                      help="cap dataset sizes (e.g. 64 for a smoke run; sets REPRO_MAX_SIZE)")
    grid.add_argument("--cycles", type=int, default=DEFAULT_VIZ_CYCLES,
                      help="visualization cycles per measurement")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", default=DEFAULT_CACHE_PATH,
                       help="op-ledger cache path, shared by sweep, the table "
                       "commands and advise ('' keeps it in memory)")
    csv = argparse.ArgumentParser(add_help=False)
    csv.add_argument("--csv", default=None, metavar="DIR",
                     help="also write CSV artifacts to DIR")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Power and Performance Tradeoffs for Visualization Algorithms' (IPDPS 2019)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in [
        ("table1", "Table I: contour sweep"),
        ("table2", "Table II: all algorithms @128^3"),
        ("table3", "Table III: all algorithms @256^3"),
        ("figures", "Figs. 2-6 series summary"),
        ("classify", "class + recommended cap per algorithm"),
        ("all", "every table/figure command in sequence"),
    ]:
        sub.add_parser(name, parents=[grid, cache, csv], help=help_text)

    sweep = sub.add_parser(
        "sweep",
        parents=[grid, cache],
        help="run a phase grid through the parallel, resumable engine",
        description="Parallel sweep with a resumable JSONL result store: "
        "interrupt it and re-invoke with the same --store to complete "
        "only the missing points.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sweep.add_argument("phase", nargs="?", default="phase1", choices=list(api.PHASE_NAMES),
                       help="which factor grid to sweep (default: phase1)")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="profile-job process count (default: CPU count; 0/1 = serial)")
    sweep.add_argument("--store", default=None, metavar="PATH",
                       help="result store path (default: .cache/sweep-<phase>.jsonl)")
    sweep.add_argument("--resume", default=True, action=argparse.BooleanOptionalAction,
                       help="resume from points already in the store (--no-resume wipes it)")
    sweep.add_argument("--trace", default=None, metavar="PATH",
                       help="write a span/event trace (JSONL; read with `repro trace`)")
    sweep.add_argument("--samples", action="store_true",
                       help="store each point with its segment records "
                       "(read back as 100 ms power samples)")
    sweep.add_argument("--governor", default=None, metavar="SPEC",
                       help="replace the cap grid with a governed cap series "
                       "(e.g. 'const:0.8', 'step:100=0.7:200=0.5', "
                       "'linear:100:500'; see docs/governors.md)")
    sweep.add_argument("--signal-trace", default=None, metavar="PATH",
                       help="signal trace JSONL driving the governor "
                       "(default: a seeded synthetic walk)")
    sweep.add_argument("--epochs", type=int, default=9, metavar="N",
                       help="control periods to sample the governed caps over "
                       "(default: 9)")
    sweep.add_argument("--epoch-s", type=float, default=1.0, metavar="S",
                       help="signal-trace seconds per control period (default: 1.0)")

    chaos = sub.add_parser(
        "chaos",
        parents=[grid],
        help="run a sweep under a named fault plan and report survival",
        description="Fault-injection drill: run the grid with seeded worker "
        "crashes/hangs, sensor corruption, and store damage live, then "
        "verify every surviving point is bitwise identical to a fault-free "
        "run. Exits non-zero if the robustness contract is broken.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    chaos.add_argument("phase", nargs="?", default="phase1", choices=list(api.PHASE_NAMES),
                       help="which factor grid to sweep (default: phase1)")
    chaos.add_argument("--plan", default="default",
                       choices=sorted(set().union(*api.PLANS.values())),
                       help="named fault plan (default: 'default'; service plans "
                       "need --service, governor plans --governor)")
    chaos.add_argument("--seed", type=int, default=None, metavar="N",
                       help="re-seed the fault schedule (default: the plan's seed)")
    chaos.add_argument("--workers", type=int, default=None, metavar="N",
                       help="profile-job process count (default: CPU count; 0/1 = serial)")
    chaos.add_argument("--store", default=None, metavar="PATH",
                       help="result store path (default: .cache/chaos-<phase>.jsonl)")
    chaos.add_argument("--verbose", action="store_true",
                       help="stream per-point engine events")
    chaos.add_argument("--trace", default=None, metavar="PATH",
                       help="write a span/event trace of every phase of the drill "
                       "(any drill; read with `repro trace`)")
    chaos.add_argument("--service", action="store_true",
                       help="drill the daemon layer instead (WAL queue, "
                       "supervision, crash/stall/duplicate faults)")
    chaos.add_argument("--spool", default=None, metavar="DIR",
                       help="service spool dir (--service; default: "
                       ".cache/service-chaos-<phase>)")
    chaos.add_argument("--jobs", type=int, default=2, metavar="N",
                       help="studies to submit in the service drill (default: 2)")
    chaos.add_argument("--lease", type=float, default=1.0, metavar="S",
                       help="heartbeat lease in the service drill (default: 1.0)")
    chaos.add_argument("--governor", action="store_true",
                       help="drill the signal feed of a governed power policy "
                       "instead (sample dropout, step discontinuities, trace "
                       "truncation)")
    chaos.add_argument("--governor-spec", default="step:100=0.7:200=0.5",
                       metavar="SPEC",
                       help="governor under test (--governor; default: "
                       "'step:100=0.7:200=0.5')")
    chaos.add_argument("--control", default="power",
                       choices=("power", "frequency", "duty"),
                       help="control method under test (--governor; default: power)")
    chaos.add_argument("--epochs", type=int, default=10, metavar="N",
                       help="control periods per governor drill (default: 10)")

    serve = sub.add_parser(
        "serve",
        help="run the crash-safe supervised sweep daemon over a spool",
        description="Supervised daemon: replays the spool's write-ahead log, "
        "reclaims orphaned leases from any previous (crashed) generation, "
        "and drives submitted studies through bounded workers with "
        "heartbeat leases, capped retry backoff, and a circuit breaker. "
        "SIGTERM/Ctrl-C stop gracefully (running studies requeue and "
        "resume bitwise on the next start).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument("spool", nargs="?", default=api.DEFAULT_SPOOL,
                       help=f"spool directory (default: {api.DEFAULT_SPOOL})")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="supervised worker threads (default: 2)")
    serve.add_argument("--lease", type=float, default=30.0, metavar="S",
                       help="heartbeat lease duration (default: 30)")
    serve.add_argument("--poll", type=float, default=0.05, metavar="S",
                       help="longest wait between control-loop passes; a WAL "
                            "append wakes the daemon sooner (default: 0.05)")
    serve.add_argument("--drain", action="store_true",
                       help="exit once every queued job is terminal")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write a span/event trace (JSONL; read with `repro trace`)")

    jobs = sub.add_parser(
        "jobs",
        parents=[grid],
        help="submit/inspect/cancel sweep-service jobs (or a JSONL loop)",
        description="Client for the sweep service spool: --submit/--status/"
        "--cancel/--report run one-shot against the WAL (no daemon needed "
        "to enqueue); with no action flags it reads one JSON request per "
        "stdin line ({\"op\": \"submit\"|\"status\"|\"cancel\"|\"report\", ...}) "
        "and writes one JSON response line, surviving malformed input.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    jobs.add_argument("spool", nargs="?", default=api.DEFAULT_SPOOL,
                      help=f"spool directory (default: {api.DEFAULT_SPOOL})")
    jobs.add_argument("--submit", action="append", metavar="PHASE",
                      choices=list(api.PHASE_NAMES),
                      help="durably enqueue one study (repeatable)")
    jobs.add_argument("--status", action="append", metavar="JOB_ID",
                      help="print one job's snapshot (repeatable)")
    jobs.add_argument("--cancel", action="append", metavar="JOB_ID",
                      help="cooperatively cancel a job (repeatable)")
    jobs.add_argument("--report", action="store_true",
                      help="print the service-wide snapshot")
    jobs.add_argument("--max-retries", type=int, default=2, metavar="N",
                      help="per-study retry budget for submissions (default: 2)")

    advise = sub.add_parser(
        "advise",
        parents=[cache],
        help="price an algorithm under a cap from the ledger cache (or --serve)",
        description="Hot-path pricing queries: the first query per "
        "(algorithm, size) executes the real algorithm once to record its "
        "op-count ledger, unless a sweep already did; every later query, on "
        "any machine, reprices the cached ledger closed-form in "
        "microseconds. --serve reads one JSON request per stdin line and "
        "writes one JSON response line (see docs/pricing_service.md).",
    )
    advise.add_argument("algorithm", nargs="?", default=None, choices=list(ALGORITHM_NAMES),
                        help="visualization algorithm to price")
    advise.add_argument("size", nargs="?", type=int, default=None,
                        help="dataset size in cells per axis (e.g. 128)")
    advise.add_argument("--cap", type=float, default=None, metavar="W",
                        help="price this cap (default: the recommended cap)")
    advise.add_argument("--tolerance", type=float, default=0.10, metavar="FRAC",
                        help="slowdown tolerance for the recommendation (default: 0.10)")
    advise.add_argument("--machine", default="broadwell",
                        choices=sorted(ALL_PRESETS),
                        help="machine preset to price on (default: broadwell)")
    advise.add_argument("--cycles", type=int, default=DEFAULT_VIZ_CYCLES,
                        help="visualization cycles per measurement")
    advise.add_argument("--serve", action="store_true",
                        help="JSONL loop: one JSON request per stdin line")
    advise.add_argument("--json", action="store_true",
                        help="print the single-query response as JSON")

    doctor = sub.add_parser(
        "doctor",
        help="validate an existing store against the physical invariants",
        description="Audit a sweep store: power <= cap + tolerance, runtime "
        "monotone as caps drop, rates finite and within machine bins. "
        "Exits non-zero if any point violates an invariant.",
    )
    doctor.add_argument("store", nargs="?", default=None,
                        help="store file to audit (sweep --store output)")
    doctor.add_argument("--quarantine", action="store_true",
                        help="turn violating points into quarantine records of the store")
    doctor.add_argument("--lint", action="store_true",
                        help="also run the static-analysis gate over the repro package")

    bench = sub.add_parser(
        "bench",
        help="show the kernel benchmark trajectory (speedup vs floors)",
        description="Read BENCH_kernels.json and print the kernel × size "
        "trajectory table: measured seconds, pre-optimization baseline, "
        "speedup, and the acceptance floor where one exists. --check "
        "exits non-zero if any measured kernel sits below its floor "
        "(the CI regression gate). Re-measure with "
        "benchmarks/bench_kernels.py.",
    )
    bench.add_argument("--path", default="BENCH_kernels.json", metavar="PATH",
                       help="trajectory file to read (default: BENCH_kernels.json)")
    bench.add_argument("--trend", action="store_true",
                       help="print the trajectory table (the default action)")
    bench.add_argument("--check", action="store_true",
                       help="exit 1 if any measured kernel is below its speedup floor")

    trace = sub.add_parser(
        "trace",
        help="per-phase breakdown of a sweep/chaos trace file",
        description="Aggregate a telemetry trace (sweep --trace output): "
        "span counts, total/mean/max wall time, and share per phase.",
    )
    trace.add_argument("file", help="trace file (JSONL, sweep/chaos --trace output)")
    trace.add_argument("--name", default=None, metavar="SUBSTR",
                       help="only phases whose name contains SUBSTR")
    trace.add_argument("--events", action="store_true",
                       help="also list point events (retries, faults, quarantines)")

    metrics = sub.add_parser(
        "metrics",
        help="dump a sweep's metrics file (JSON or Prometheus text)",
        description="Read back a <store>.metrics.json dump written by the "
        "engine and print it as JSON or Prometheus text exposition format.",
    )
    metrics.add_argument("file", help="metrics file (<store>.metrics.json)")
    metrics.add_argument("--format", default="prom", choices=("prom", "json"),
                         help="output format (default: prom)")

    lint = sub.add_parser(
        "lint",
        help="run the contract-aware static-analysis gate (exit 1 on findings)",
        description="Machine-check the repo's coding contracts over every "
        "source file: atomic artifact writes (RPR001), isclose cap matching "
        "(RPR002), the pickle ban (RPR003), the import-layering map (RPR004), "
        "balanced trace spans (RPR005), unit-suffix consistency (RPR006), "
        "locked shared mutation (RPR007), plus the project-wide rules: "
        "cross-call unit flow (RPR008), lockset races (RPR009), durability "
        "ordering (RPR010) and blocking calls under locks (RPR011). Exits 0 "
        "when clean, 1 on any new finding, 2 on usage errors. See "
        "docs/static_analysis.md.",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to lint (default: the installed repro package)")
    lint.add_argument("--format", default="text", choices=("text", "json"),
                      help="report format on stdout (default: text)")
    lint.add_argument("--stats", action="store_true",
                      help="append per-rule and per-file violation tables")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline file of grandfathered findings "
                      "(default: ./lint_baseline.json when present)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline from the current findings")
    lint.add_argument("--report", default=None, metavar="PATH",
                      help="also write the JSON report to PATH (atomically)")
    lint.add_argument("--changed", action="store_true",
                      help="report only findings in files changed vs. git HEAD "
                      "(plus untracked); the whole project is still analysed "
                      "so cross-file rules keep their view")

    sanitize = sub.add_parser(
        "sanitize",
        help="run a repro subcommand under the runtime concurrency sanitizer",
        description="Install the lock-order sanitizer "
        "(repro.lint.sanitizer), run the given repro subcommand in-process, "
        "then report lock-order cycles. Exits 1 when the "
        "sanitizer observed a cycle (regardless of the inner "
        "command's own exit code), 2 on usage errors. Equivalent to running "
        "any entry point with REPRO_SANITIZE=1, plus the report.",
    )
    sanitize.add_argument("--report", default=None, metavar="PATH",
                          help="write the sanitizer JSON report to PATH (atomically)")
    sanitize.add_argument("--show", action="store_true",
                          help="print the text report even when clean")
    sanitize.add_argument("rest", nargs=argparse.REMAINDER, metavar="command",
                          help="repro subcommand (and its arguments) to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if getattr(args, "max_size", None) is not None:
        os.environ["REPRO_MAX_SIZE"] = str(args.max_size)

    if args.command == "doctor":
        return cmd_doctor(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "sanitize":
        return cmd_sanitize(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "metrics":
        return cmd_metrics(args)
    if args.command == "advise":
        return cmd_advise(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "jobs":
        return cmd_jobs(args)
    if args.command == "sweep":
        cmd_sweep(args)
        return 0

    engine = SweepEngine(workers=0, profile_cache=args.cache or None, n_cycles=args.cycles)
    commands = list(_COMMANDS) if args.command == "all" else [args.command]
    for i, name in enumerate(commands):
        if i:
            print("\n" + "=" * 72 + "\n")
        _COMMANDS[name](engine, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
