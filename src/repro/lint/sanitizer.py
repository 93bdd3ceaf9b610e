"""Runtime concurrency sanitizer (``REPRO_SANITIZE=1``).

The static rules RPR009/RPR011 reason about locks without running the
code; this module is the dynamic complement.  When installed it patches
the :func:`threading.Lock` / :func:`threading.RLock` factories so every
lock created afterwards is wrapped in a :class:`SanitizedLock` that

* keeps a per-thread stack of held locks, and
* records *lock-order edges* between lock **creation sites** (acquiring
  B while holding A adds the edge ``A -> B``) — a cycle in that graph is
  a potential deadlock even if the run happened not to interleave badly.

Edges between two locks created at the *same* site (e.g. two instances
of the same class) are ignored: per-instance locks of one class are
routinely taken in address order and would otherwise self-cycle.

The findings surface three ways: :func:`report` returns a JSON-ready
document, :func:`render` formats it for terminals, and ``repro
sanitize --report out.json <subcommand ...>`` runs any repro subcommand
under the sanitizer and fails the process when a cycle was observed.
Importing :mod:`repro` with ``REPRO_SANITIZE=1`` in the environment
installs the sanitizer automatically, so chaos drills and test runs can
be sanitized without code changes.
"""

from __future__ import annotations

import sys
import threading

__all__ = [
    "SanitizedLock",
    "install",
    "installed",
    "uninstall",
    "reset",
    "report",
    "render",
]

#: The real factories, captured before any patching.
_real_lock = threading.Lock
_real_rlock = threading.RLock

#: Guards every module-level table below.  Deliberately a *raw* lock so
#: the sanitizer never traces (or deadlocks on) its own bookkeeping.
_meta = _real_lock()

_installed = False
_holders = threading.local()  # .stack: locks held by this thread, in order

_lock_sites: dict[str, int] = {}  # creation site -> number of locks made there
_edges: dict[tuple[str, str], dict] = {}  # (from-site, to-site) -> first witness
_acquires = 0


def _site(depth: int) -> str:
    frame = sys._getframe(depth)
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _held_stack() -> list:
    stack = getattr(_holders, "stack", None)
    if stack is None:
        stack = _holders.stack = []
    return stack


class SanitizedLock:
    """Lock wrapper that records ordering edges and the holder stack."""

    __slots__ = ("_inner", "site", "_reentrant", "_count", "_owner")

    def __init__(self, inner, site: str, *, reentrant: bool):
        self._inner = inner
        self.site = site
        self._reentrant = reentrant
        self._count = 0
        self._owner = None

    def acquire(self, blocking: bool = True, timeout: float = -1):
        me = threading.get_ident()
        if self._reentrant and self._owner == me:
            ok = self._inner.acquire(blocking, timeout)
            if ok:
                self._count += 1
            return ok
        _note_acquire(self)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._owner = me
            self._count = 1
            _held_stack().append(self)
        return ok

    def release(self):
        if (
            self._reentrant
            and self._owner == threading.get_ident()
            and self._count > 1
        ):
            self._count -= 1
            self._inner.release()
            return
        self._count = 0
        self._owner = None
        stack = _held_stack()
        if self in stack:
            stack.remove(self)
        self._inner.release()

    def locked(self) -> bool:
        inner_locked = getattr(self._inner, "locked", None)
        return inner_locked() if inner_locked is not None else self._count > 0

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def __getattr__(self, name):  # Condition integration (_is_owned, ...)
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"<SanitizedLock site={self.site!r} held={self._count > 0}>"


def _note_acquire(lock: SanitizedLock) -> None:
    global _acquires
    stack = _held_stack()
    with _meta:
        _acquires += 1
        for held in stack:
            if held.site == lock.site:
                continue
            key = (held.site, lock.site)
            if key not in _edges:
                _edges[key] = {
                    "from": held.site,
                    "to": lock.site,
                    "thread": threading.current_thread().name,
                }


def _register_site(site: str) -> None:
    with _meta:
        _lock_sites[site] = _lock_sites.get(site, 0) + 1


def _make_lock():
    site = _site(2)
    _register_site(site)
    return SanitizedLock(_real_lock(), site, reentrant=False)


def _make_rlock():
    site = _site(2)
    _register_site(site)
    return SanitizedLock(_real_rlock(), site, reentrant=True)


def install() -> None:
    """Patch the :mod:`threading` lock factories; idempotent."""
    global _installed
    with _meta:
        if _installed:
            return
        threading.Lock = _make_lock
        threading.RLock = _make_rlock
        _installed = True


def uninstall() -> None:
    """Restore the real factories (existing wrapped locks keep working)."""
    global _installed
    with _meta:
        if not _installed:
            return
        threading.Lock = _real_lock
        threading.RLock = _real_rlock
        _installed = False


def installed() -> bool:
    return _installed


def reset() -> None:
    """Drop all recorded state (between tests); leaves install state alone."""
    global _acquires
    with _meta:
        _lock_sites.clear()
        _edges.clear()
        _acquires = 0


# ------------------------------------------------------------- reporting


def _find_cycles(edges: list[dict]) -> list[list[str]]:
    """Strongly-connected components of size > 1 in the site graph."""
    graph: dict[str, set[str]] = {}
    for e in edges:
        graph.setdefault(e["from"], set()).add(e["to"])
        graph.setdefault(e["to"], set())

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    cycles: list[list[str]] = []

    def strongconnect(v: str) -> None:
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in graph[v]:
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp: list[str] = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            if len(comp) > 1:
                cycles.append(sorted(comp))

    for v in sorted(graph):
        if v not in index:
            strongconnect(v)
    return sorted(cycles)


def report() -> dict:
    """Snapshot the sanitizer state as a JSON-ready document."""
    with _meta:
        edges = [dict(e) for e in _edges.values()]
        sites = dict(_lock_sites)
        acquires = _acquires
    doc = {
        "format": "repro-sanitizer-report",
        "version": 1,
        "installed": _installed,
        "locks_tracked": sum(sites.values()),
        "lock_sites": sites,
        "acquisitions": acquires,
        "edges": sorted(edges, key=lambda e: (e["from"], e["to"])),
        "cycles": _find_cycles(edges),
    }
    doc["ok"] = not doc["cycles"]
    return doc


def _short(site: str) -> str:
    for marker in ("/src/", "/site-packages/", "/lib/"):
        i = site.rfind(marker)
        if i >= 0:
            return site[i + len(marker):]
    return site


def render(doc: dict) -> str:
    """Human-readable sanitizer report."""
    lines = [
        f"sanitizer: {doc['locks_tracked']} lock(s) from "
        f"{len(doc['lock_sites'])} site(s), {doc['acquisitions']} "
        f"acquisition(s), {len(doc['edges'])} order edge(s)"
    ]
    for cyc in doc["cycles"]:
        lines.append("  CYCLE " + " <-> ".join(_short(s) for s in cyc))
    if doc["ok"]:
        lines.append("  no lock-order cycles")
    return "\n".join(lines)
