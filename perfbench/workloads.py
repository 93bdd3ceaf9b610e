"""The four workloads: set-up, one timed operation, and output checks.

Each workload times its own operation inside :meth:`Workload.timed` and
checks the operation's outputs against the committed reference (a
mismatch raises :class:`gate.GateError` and fails the run).  An
operation the program reports as failed (a quarantined point, a
``SweepError``, an advise exception, a serve job that failed, expired
or was refused) raises instead, and the run loop counts it.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from gate import GateError, Reference
from repro import api
from repro.core import report
from repro.core.advisor import recommend_cap
from repro.core.engine import SweepEngine
from repro.core.pricing import LedgerCache
from repro.core.profiles import ProfileCache, profile_from_ledger
from repro.core.runner import make_run_point
from repro.core.store import ResultStore
from repro.core.study import (
    ALGORITHM_NAMES,
    POWER_CAPS_W,
    StudyConfig,
    phase2_config,
    phase3_config,
)
from repro.machine.simulator import Processor
from repro.serve.service import SweepService

HERE = Path(__file__).resolve().parent

#: Pool and daemon width: the 2 cores of the reference container.
WORKERS = 2

#: Off-grid half-watt caps of the advise mix, one inside each 9 W band of 40-120 W.
OFF_GRID_CAPS_W = tuple(c + 4.5 for c in range(40, 120, 9))


class OpFailed(RuntimeError):
    """The program reported the operation as failed."""


class Workload:
    """One named workload; see the subclasses for what an operation is."""

    name = ""
    #: Tail percentile reported as ``op_tail_ms``.
    tail = 0.9
    #: (name, scale, unit) of the median and the tail in the summary line.
    headline: tuple = ()
    #: Operations a run needs so that ten samples lie beyond the tail.
    min_ops = 100

    def __init__(self, work: Path, reference: Reference, seed: int, max_size: int | None):
        self.work = work
        self.reference = reference
        self.seed = seed
        self.max_size = max_size
        self.latencies: list[float] = []
        self.span = nullcontext
        self._dirs = itertools.count()

    # --------------------------------------------------------------- helpers
    def config(self, base: StudyConfig) -> StudyConfig:
        sizes = base.sizes
        if self.max_size is not None:
            sizes = tuple(dict.fromkeys(min(s, self.max_size) for s in sizes))
        return StudyConfig(name=base.name, algorithms=base.algorithms, sizes=sizes,
                           caps_w=base.caps_w)

    def fresh_dir(self, prefix: str) -> Path:
        path = self.work / f"{prefix}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def copy_ledgers(self, dest: Path) -> Path:
        shutil.copyfile(self.reference.ledgers_path, dest)
        return dest

    @contextmanager
    def timed(self, into: list):
        """Time the body into ``into`` (only if it completes)."""
        with self.span():
            t0 = time.perf_counter()
            yield
            into.append(time.perf_counter() - t0)

    def render(self, result, config: StudyConfig) -> None:
        size = 128 if 128 in config.sizes else config.sizes[-1]
        report.render_table1(result, size=size)
        for s in config.sizes:
            report.render_slowdown_table(result, size=s)

    # ------------------------------------------------------------- interface
    def setup(self) -> None:
        """Prepare a run; may repeat (with :meth:`teardown` between)."""

    def op(self) -> None:
        """One operation; appends its latency to :attr:`latencies`."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run (after the last operation)."""

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def begin_baseline(self) -> None:
        """Start the untraced half of a traced run."""

    def begin_trace(self, recorder) -> None:
        """Switch to traced operations (spans around each one)."""
        self.span = lambda: recorder.span("bench", "op")

    def layer_metrics(self) -> dict:
        """Per-layer figures the workload measures itself in a traced run."""
        return {}

    def summary(self) -> dict:
        """Workload-specific figures for the summary line."""
        return {}


class Phase3Cold(Workload):
    """The whole Phase 3 grid from an empty ledger cache and store."""

    name = "phase3-cold"
    min_ops = 1
    headline = (("study_cold_s", 1.0, "s"),)

    def setup(self) -> None:
        self.grid = self.config(phase3_config())
        self.fell_back_serial = 0

    def op(self) -> None:
        d = self.fresh_dir("cold")
        cache = ProfileCache(d / "ledgers.json")
        engine = SweepEngine(workers=WORKERS, store=d / "store.jsonl", profile_cache=cache)
        with self.timed(self.latencies):
            result = engine.run(self.grid)
            self.render(result, self.grid)
            self.fell_back_serial += engine.stats.fell_back_serial
            if engine.stats.points_quarantined:
                raise OpFailed(f"{engine.stats.points_quarantined} points quarantined")
        self.reference.check_ledgers(cache.entries(), self.grid)
        self.reference.check_points(result.points, self.grid)
        shutil.rmtree(d)

    def summary(self) -> dict:
        return {"fell_back_serial": self.fell_back_serial}


class Phase3Warm(Workload):
    """Phase 3 from the committed ledgers: a pass into a fresh store, then a resume."""

    name = "phase3-warm"
    headline = (("warm_pass_p50_ms", 1e3, "ms"), ("warm_pass_p90_ms", 1e3, "ms"))

    def setup(self) -> None:
        d = self.fresh_dir("warm")
        self.dir = d
        self.cache = ProfileCache(self.copy_ledgers(d / "ledgers.json"))
        self.grid = self.config(phase3_config())
        self.resumes: list[float] = []
        self.telemetry: list[float] = []
        self.telemetry_every = 0  # every n-th pass runs with engine telemetry on
        self.fell_back_serial = 0
        self._passes = itertools.count(1)

    def _engine(self, store: Path, **telemetry) -> SweepEngine:
        return SweepEngine(workers=WORKERS, store=store, profile_cache=self.cache, **telemetry)

    def op(self) -> None:
        i = next(self._passes)
        store = self.dir / f"pass-{i}.jsonl"
        telemetry = {}
        into = self.latencies
        if self.telemetry_every and i % self.telemetry_every == 0:
            telemetry = {"trace": self.dir / f"pass-{i}.trace.jsonl", "samples": True}
            into = self.telemetry
        with self.timed(into):
            engine = self._engine(store, **telemetry)
            result = engine.run(self.grid)
            self.render(result, self.grid)
            self.fell_back_serial += engine.stats.fell_back_serial
            if engine.stats.points_quarantined:
                raise OpFailed(f"{engine.stats.points_quarantined} points quarantined")
        if engine.stats.profile_jobs_run:
            raise GateError("a warm pass executed an algorithm")
        self.reference.check_points(result.points, self.grid)
        with self.timed(self.resumes):
            resumed = self._engine(store).run(self.grid)
        self.reference.check_points(resumed.points, self.grid)
        for path in self.dir.glob(f"pass-{i}.*"):
            path.unlink()

    def begin_baseline(self) -> None:
        self.telemetry_every = 4

    def begin_trace(self, recorder) -> None:
        super().begin_trace(recorder)
        self.telemetry_every = 0
        self.telemetry_frac = (
            statistics.median(self.telemetry) / statistics.median(self.latencies) - 1.0
        )

    def layer_metrics(self) -> dict:
        return {"obs.engine_telemetry_frac": self.telemetry_frac}

    def summary(self) -> dict:
        return {
            "resume_p50_ms": {"value": statistics.median(self.resumes) * 1e3, "unit": "ms"},
            "fell_back_serial": self.fell_back_serial,
        }


class Advise(Workload):
    """One closed-loop client of ``repro.api.advise`` over all 32 keys."""

    name = "advise"
    tail = 0.99
    headline = (("advise_p50_us", 1e6, "us"), ("advise_p99_us", 1e6, "us"))
    min_ops = 1000
    #: Every n-th answer is checked against ``Processor.run``; n is coprime
    #: with the mix length, so successive cycles check different queries.
    check_every = 17

    def setup(self) -> None:
        d = self.fresh_dir("advise")
        profiles = ProfileCache(self.copy_ledgers(d / "ledgers.json"))
        ledgers = LedgerCache(None)
        self.advisor = api.advisor(cache=ledgers)
        ledgers.ingest_profile_cache(
            profiles, dataset=self.advisor.dataset, machine=self.advisor.machine
        )
        sizes = self.config(phase3_config()).sizes
        self.advisor.reprice_grid(ALGORITHM_NAMES, sizes)  # builds the pricing tables
        # The mix asks every key at each paper cap, at each of OFF_GRID_CAPS_W
        # and nine times with cap_w=None (thirds).  Query cost depends on
        # the cap (caps no P-state fits take the slow throttled path), so
        # the seed only shuffles the order: every seed asks the same
        # multiset, cycled many times per run.
        self.queries = [
            api.AdviseRequest(algorithm=alg, size=size, cap_w=cap)
            for alg in ALGORITHM_NAMES
            for size in sizes
            for cap in (*POWER_CAPS_W, *OFF_GRID_CAPS_W, *[None] * len(POWER_CAPS_W))
        ]
        random.Random(self.seed).shuffle(self.queries)
        self.samples: list = []
        self._n = 0

    def op(self) -> None:
        request = self.queries[self._n % len(self.queries)]
        self._n += 1
        with self.timed(self.latencies):
            response = api.advise(request, advisor=self.advisor)
        if self._n % self.check_every == 0:
            self.samples.append((request, response))

    def finish(self) -> None:
        """Sampled answers == ``Processor.run`` + ``make_run_point``, bitwise."""
        adv = self.advisor
        processor = Processor(adv.spec)
        default_cap = max(adv.caps_w)
        grids: dict = {}
        for request, response in self.samples:
            key = (request.algorithm, request.size)
            if key not in grids:
                ledger = self.reference.ledgers[f"{key[0]}/{key[1]}"]
                profile = profile_from_ledger(*key, ledger, n_cycles=adv.repricer.n_cycles)
                base = processor.run(profile, default_cap)
                grid = [
                    make_run_point(*key, cap, base if cap == default_cap
                                   else processor.run(profile, cap), base, default_cap)
                    for cap in adv.caps_w
                ]
                grids[key] = (profile, base, grid)
            profile, base, grid = grids[key]
            rec = recommend_cap(grid, tolerance=request.tolerance)
            cap = rec.cap_w if request.cap_w is None else request.cap_w
            expected = next((p for p in grid if p.cap_w == cap), None) or make_run_point(
                *key, cap, processor.run(profile, cap), base, default_cap
            )
            if response.point != expected or response.recommended_cap_w != rec.cap_w:
                raise GateError(
                    f"advise {request.to_dict()} answered {response.point.to_dict()}, "
                    f"expected {expected.to_dict()} (recommended {rec.cap_w})"
                )
        if not self.samples:
            raise GateError("no advise answer was checked")

    def summary(self) -> dict:
        return {"answers_checked": len(self.samples)}


class ServeWarm(Workload):
    """A ``repro serve`` daemon and one closed-loop client submitting Phase 2 jobs."""

    name = "serve-warm"
    headline = (("serve_job_p50_ms", 1e3, "ms"), ("serve_job_p90_ms", 1e3, "ms"))
    #: Client status-poll interval and the wait after which a job counts as expired.
    poll_s = 0.002
    job_timeout_s = 60.0
    #: Longest think time before a submission.  A seeded uniform pause of up
    #: to one daemon poll interval (the default ``repro serve --poll`` of
    #: 50 ms) keeps the client from locking onto the daemon's poll phase,
    #: which makes job latency jump by a whole interval when a job's
    #: compute time crosses it.
    think_s = 0.05

    def setup(self) -> None:
        self.spool = self.fresh_dir("spool")
        self.copy_ledgers(self.spool / "profiles-blobs-7.json")
        self.grid = self.config(phase2_config())
        self.daemon = self._start_daemon(None)
        self.client = SweepService(self.spool)
        self.queue_waits: list[float] = []
        self.wal_bytes: list[int] = []
        self.shed = self.attempts = 0
        self.rng = random.Random(self.seed)

    def _start_daemon(self, spans: Path | None) -> subprocess.Popen:
        cmd = [sys.executable, str(HERE / "daemon.py"), str(spans or "-"),
               "serve", str(self.spool), "--workers", str(WORKERS)]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=self.work, env=env)
        # `repro serve` prints its banner just before the supervisor starts.
        line = proc.stdout.readline()
        if not line.startswith("serve:"):
            proc.kill()
            proc.wait()
            raise RuntimeError(f"serve daemon did not start (said {line!r})")
        return proc

    def begin_trace(self, recorder) -> None:
        super().begin_trace(recorder)
        self.teardown()
        self.daemon = self._start_daemon(recorder.spool)
        self.queue_waits.clear()
        self.wal_bytes.clear()
        self.shed = self.attempts = 0

    def op(self) -> None:
        self.attempts += 1
        time.sleep(self.rng.uniform(0.0, self.think_s))
        wal = self.client.wal.path
        wal_before = wal.stat().st_size
        with self.timed(self.latencies):
            receipt = self.client.submit(self.grid)
            if not receipt.accepted:
                self.shed += 1
                raise OpFailed(f"submission shed: {receipt.status}")
            submitted = time.perf_counter()
            waited = None
            while True:
                status = self.client.status(receipt.job_id)
                if waited is None and status["status"] != "pending":
                    waited = time.perf_counter() - submitted
                if status["status"] in ("completed", "failed", "cancelled"):
                    break
                if time.perf_counter() - submitted > self.job_timeout_s:
                    raise OpFailed(f"job {receipt.job_id} expired")
                time.sleep(self.poll_s)
            if status["status"] != "completed":
                raise OpFailed(f"job {receipt.job_id} {status['status']}: {status['error']}")
        self.queue_waits.append(waited)
        self.wal_bytes.append(wal.stat().st_size - wal_before)
        store = ResultStore(status["store"])
        self.reference.check_points(list(store), self.grid)
        for path in store.path.parent.glob(f"{receipt.job_id}.*"):
            path.unlink()

    def teardown(self) -> None:
        proc = self.daemon
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"serve daemon exited {proc.returncode}: {out!r}")

    def layer_metrics(self) -> dict:
        return {
            "serve.queue_wait_s": statistics.fmean(self.queue_waits or [0.0]),
            "serve.wal_bytes": statistics.fmean(self.wal_bytes or [0]),
            "serve.shed": self.shed / max(1, self.attempts),
        }

    def summary(self) -> dict:
        return {"shed": self.shed}


WORKLOADS = {w.name: w for w in (Phase3Cold, Phase3Warm, Advise, ServeWarm)}
