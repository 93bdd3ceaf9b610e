"""Span recording for the traced run (``--trace 1``), from outside the program.

:func:`install` rebinds every module attribute and class attribute that
holds one of the layers' public entry points (the tables in
:func:`install`) to a wrapper that records a span: layer, name, start, end, parent span
and a few attributes.  Rebinding by identity across ``sys.modules``
catches ``from ... import`` bindings such as
``repro.core.profiles.make_dataset``.

Spans stay in memory.  The benchmark process keeps them until the run
ends.  Pool workers forked after :func:`install` inherit the wrappers and
start with an empty buffer; they, and the instrumented serve daemon,
append their buffer to ``<spool>/<pid>.jsonl`` whenever a thread's
outermost span closes, and :meth:`Recorder.collect` merges the files.
Timestamps come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux),
one clock for every process on the host.

:func:`analyze` turns the merged spans into per-layer figures.  A
layer's self time is its spans' duration minus the time their child
spans cover.  Spans of other processes become children of the
benchmark's ``engine.run`` span (or, failing that, of the timed
operation) that was open when they started.  When spans of several
processes or threads are open at once without open children, each gets
an equal share of that interval, so the self times plus the unattributed
remainder (time inside the timed operations but in no layer's span) add
up to the traced wall time exactly.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

_now = time.perf_counter_ns

#: Layers in the order the per-layer metrics list them.
LAYERS = (
    "data", "viz", "engine", "profiles", "machine", "pricing",
    "advisor", "validate", "store", "report", "serve",
)

# Record fields, as stored in memory and in the spool files.
PID, TID, SID, PARENT, LAYER, NAME, T0, T1, INFO, OVERHEAD = range(10)


class Recorder:
    """Per-process span buffer (see module docstring)."""

    def __init__(self, spool: str | Path, *, root_layer: str = "bench", main: bool = True):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.root_layer = root_layer
        self.main = main
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.records: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _after_fork(self) -> None:
        # A forked pool worker must not inherit the parent's open spans or
        # buffer; it writes its own spans to the spool.
        self._reset()
        self.main = False

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, layer: str | None, name: str, *, attrs=None, post=None):
        """``fn`` wrapped to record a span.

        ``layer=None`` inherits the enclosing span's layer (used for
        ``os.fsync``).  ``attrs(*args, **kwargs)`` runs before the call
        and ``post(info, result, *args, **kwargs)`` after a successful
        one; their value is stored with the span.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ta = _now()
            stack = rec._stack()
            parent = stack[-1][0] if stack else 0
            span_layer = layer or (stack[-1][1] if stack else rec.root_layer)
            sid = next(rec._ids)
            stack.append((sid, span_layer))
            info = attrs(*args, **kwargs) if attrs is not None else None
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
            if post is not None:
                info = post(info, out, *args, **kwargs)
            # Tuples of atoms: the cyclic GC stops tracking them, so a
            # large buffer does not slow down collections.
            rec._emit((rec.pid, threading.get_ident(), sid, parent, span_layer, name,
                       t0, t1, info, (t0 - ta) + (_now() - t1)), stack)
            return out

        return wrapper

    @contextmanager
    def span(self, layer: str, name: str):
        """Record the ``with`` body as one span (the benchmark's operations)."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        sid = next(self._ids)
        stack.append((sid, layer))
        t0 = _now()
        try:
            yield
        finally:
            t1 = _now()
            stack.pop()
            self._emit((self.pid, threading.get_ident(), sid, parent, layer, name,
                        t0, t1, None, 0), stack)

    def _emit(self, record: tuple, stack: list) -> None:
        with self._lock:
            self.records.append(record)
            if self.main or stack:
                return
            batch, self.records = self.records, []
            with open(self.spool / f"{self.pid}.jsonl", "a") as fh:
                fh.write("".join(json.dumps(r) + "\n" for r in batch))

    def collect(self) -> list[list]:
        """This process's spans plus every spool file, merged."""
        with self._lock:
            records, self.records = self.records, []
        for path in sorted(self.spool.glob("*.jsonl")):
            records.extend(json.loads(line) for line in path.read_text().splitlines() if line)
        return records


# ------------------------------------------------------------------ install
def _rebind(orig, wrapper) -> int:
    """Point every ``repro`` module attribute holding ``orig`` at ``wrapper``."""
    n = 0
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
                n += 1
    return n


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _stat_size(path) -> int:
    try:
        return os.stat(path).st_size
    except FileNotFoundError:
        return 0


def _engine_stats(info, out, engine, *args, **kwargs):
    s = engine.stats
    return {
        "workers": engine.workers,
        "jobs": s.profile_jobs_run,
        "shards": s.shard_tasks_run,
        "retries": s.retries,
        "fallback": int(s.fell_back_serial),
        "quarantined": s.points_quarantined,
    }


def _dataset_key(n, *, kind="blobs", with_velocity=True, seed=7):
    return (int(n), str(kind), int(seed))


def install(rec: Recorder) -> None:
    """Wrap each layer's public entry points so that every call records a span.

    Call it before the engine's pool forks, so workers inherit the wrappers.
    """
    import repro.api  # noqa: F401  (load every binding before rebinding)
    import repro.cli  # noqa: F401
    from repro.core import advisor, engine, pricing, profiles, report, store, validate
    from repro.data import generators
    from repro.machine import simulator
    from repro.serve import service
    from repro.viz import base

    functions = [
        (generators.make_dataset, "data", "generate", {"attrs": _dataset_key}),
        (profiles.run_algorithm_ledger, "engine", "job", {}),
        (profiles.run_algorithm_ledger_shard, "engine", "job", {}),
        (profiles.profile_from_ledger, "profiles", "from_ledger", {}),
        (report.render_table1, "report", "render", {}),
        (report.render_slowdown_table, "report", "render", {}),
    ]
    for fn, layer, name, kw in functions:
        if not _rebind(fn, rec.wrap(fn, layer, name, **kw)):
            raise RuntimeError(f"entry point {fn.__qualname__} is bound nowhere")

    methods = [
        (engine.SweepEngine, "run", "engine", "run", {"post": _engine_stats}),
        (simulator.Processor, "run", "machine", "run", {}),
        (pricing.BatchRepricer, "reprice", "pricing", "reprice", {}),
        (pricing.LedgerCache, "get", "pricing", "ledger_get",
         {"post": lambda info, out, *a, **k: int(out is not None)}),
        (pricing._PricingTable, "__init__", "pricing", "table_build", {}),
        (advisor.PowerAdvisor, "advise", "advisor", "advise", {}),
        (validate.PointValidator, "check_group", "validate", "check",
         {"attrs": lambda self, points: len(points)}),
        (store.ResultStore, "__init__", "store", "load", {}),
        (store.ResultStore, "ensure_compatible", "store", "bind", {}),
        (store.ResultStore, "reset", "store", "bind", {}),
        (store.ResultStore, "append", "store", "append",
         {"attrs": lambda self, point: _stat_size(self.path),
          "post": lambda before, out, self, point: _stat_size(self.path) - before}),
        (profiles.ProfileCache, "put", "profiles", "cache_put", {}),
        (service.SweepService, "submit", "serve", "submit", {}),
        (service.SweepService, "status", "serve", "status", {}),
    ]
    for cls, meth, layer, name, kw in methods:
        setattr(cls, meth, rec.wrap(cls.__dict__[meth], layer, name, **kw))

    # Every filter's execute/apply_shard, including subclass overrides.
    for cls in _subclasses(base.Filter):
        for meth in ("execute", "apply_shard"):
            if meth in cls.__dict__:
                setattr(cls, meth, rec.wrap(
                    cls.__dict__[meth], "viz", "kernel",
                    attrs=lambda self, *a, **k: self.name,
                ))

    # fsync inherits the layer of whoever calls it (store appends, WAL).
    os.fsync = rec.wrap(os.fsync, None, "fsync")


# ------------------------------------------------------------------ analyze
def analyze(records: list[list], main_pid: int) -> dict:
    """Raw per-layer totals over the spans inside the timed operations.

    Operations are the benchmark process's ``bench``/``op`` spans.
    Returns nanosecond totals, call counts and the attribution of the
    operations' wall time to layers (``self_ns``; ``self_ns["bench"]`` is
    the unattributed remainder).
    """
    by_key = {(r[PID], r[SID]): r for r in records}

    def parent_of(r):
        return by_key.get((r[PID], r[PARENT])) if r[PARENT] else None

    # Root of each span within its own process.
    roots: dict[tuple, list] = {}

    def root_of(r):
        key = (r[PID], r[SID])
        if key not in roots:
            p = parent_of(r)
            roots[key] = r if p is None else root_of(p)
        return roots[key]

    ops = sorted(
        (r for r in records if r[PID] == main_pid and r[LAYER] == "bench" and r[NAME] == "op"),
        key=lambda r: r[T0],
    )
    op_starts = [r[T0] for r in ops]
    engines = sorted(
        (r for r in records if r[PID] == main_pid and r[LAYER] == "engine" and r[NAME] == "run"),
        key=lambda r: r[T0],
    )

    def container(t, candidates, starts):
        # Candidates are sequential, never nested: only the latest one
        # started by ``t`` can contain it.
        i = bisect.bisect_right(starts, t) - 1
        return candidates[i] if i >= 0 and candidates[i][T1] >= t else None

    engine_starts = [r[T0] for r in engines]
    kept: list = []
    eff_parent: dict[int, object] = {}
    for r in records:
        root = root_of(r)
        if r[PID] == main_pid:
            if not (root[LAYER] == "bench" and root[NAME] == "op"):
                continue  # set-up or gate work outside the timed operations
            eff_parent[id(r)] = parent_of(r)
        else:
            if container(root[T0], ops, op_starts) is None:
                continue
            if r is root:
                eng = container(r[T0], engines, engine_starts)
                eff_parent[id(r)] = eng if eng is not None else container(r[T0], ops, op_starts)
            else:
                eff_parent[id(r)] = parent_of(r)
        kept.append(r)

    # Depth (for event ordering) and intervals clipped into the parent's.
    depth: dict[int, int] = {}
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}

    def place(r):
        if id(r) in depth:
            return
        p = eff_parent.get(id(r))
        if p is None or id(p) not in eff_parent:
            depth[id(r)], lo[id(r)], hi[id(r)] = 0, r[T0], r[T1]
            return
        place(p)
        depth[id(r)] = depth[id(p)] + 1
        lo[id(r)] = min(max(r[T0], lo[id(p)]), hi[id(p)])
        hi[id(r)] = max(min(r[T1], hi[id(p)]), lo[id(r)])

    for r in kept:
        place(r)

    events = []
    for r in kept:
        events.append((lo[id(r)], 1, depth[id(r)], r))
        events.append((hi[id(r)], 0, -depth[id(r)], r))
    events.sort(key=lambda e: e[:3])
    open_children: dict[int, int] = defaultdict(int)
    active: set[int] = set()
    leaves: dict[int, list] = {}
    self_ns: dict[str, float] = defaultdict(float)
    prev = None
    for t, kind, _, r in events:
        if leaves and prev is not None and t > prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves.values():
                self_ns[leaf[LAYER]] += share
        prev = t
        p = eff_parent.get(id(r))
        if kind == 1:
            active.add(id(r))
            leaves[id(r)] = r
            if p is not None and id(p) in active:
                open_children[id(p)] += 1
                leaves.pop(id(p), None)
        else:
            active.discard(id(r))
            leaves.pop(id(r), None)
            if p is not None and id(p) in active:
                open_children[id(p)] -= 1
                if open_children[id(p)] == 0:
                    leaves[id(p)] = p

    # Busy totals: outermost span of each layer within its own process.
    def outermost(r):
        p = parent_of(r)
        while p is not None:
            if p[LAYER] == r[LAYER]:
                return False
            p = parent_of(p)
        return True

    total_ns: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    viz_ns: dict[str, float] = defaultdict(float)
    datasets = []
    out = defaultdict(float)
    for r in kept:
        dur = r[T1] - r[T0]
        out["overhead_ns"] += r[OVERHEAD]
        key = f"{r[LAYER]}.{r[NAME]}"
        if r[NAME] == "fsync":
            total_ns[key] += dur
            calls[key] += 1
            continue
        if not outermost(r):
            continue
        total_ns[key] += dur
        calls[key] += 1
        if r[LAYER] == "viz":
            viz_ns[r[INFO]] += dur
        elif key == "data.generate":
            datasets.append(tuple(r[INFO]))
        elif key == "engine.run":
            for field in ("jobs", "shards", "retries", "fallback", "quarantined"):
                out[f"engine_{field}"] += r[INFO][field]
        elif key == "pricing.ledger_get":
            out["ledger_hits"] += r[INFO]
        elif key == "validate.check":
            out["points_checked"] += r[INFO]
        elif key == "store.append":
            out["bytes_written"] += r[INFO]

    # Pool utilisation: worker job time over (workers x engine wall).
    busy = capacity = 0.0
    for r in kept:
        if r[PID] == main_pid and r[LAYER] == "engine" and r[NAME] == "run":
            if r[INFO]["workers"] > 1 and r[INFO]["jobs"] > 0:
                capacity += r[INFO]["workers"] * (r[T1] - r[T0])
    for r in kept:
        if r[PID] != main_pid and r[LAYER] == "engine" and r[NAME] == "job":
            p = eff_parent.get(id(r))
            if p is not None and p[LAYER] == "engine" and p[PID] == main_pid:
                busy += r[T1] - r[T0]

    return {
        "ops": len(ops),
        "wall_ns": float(sum(r[T1] - r[T0] for r in ops)),
        "self_ns": dict(self_ns),
        "total_ns": dict(total_ns),
        "calls": dict(calls),
        "viz_ns": dict(viz_ns),
        "datasets": datasets,
        "worker_busy_frac": busy / capacity if capacity else 0.0,
        **out,
    }
