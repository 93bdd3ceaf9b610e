"""Profile ledgers: record once, re-price forever.

The expensive half of every sweep is executing the real algorithm; the
cheap half is pricing its work profile on the simulated socket.  The
bridge between them is the *op-count ledger* — the
:class:`~repro.viz.base.OpCounts` dictionary a filter fills while it
runs.  A ledger is tiny, JSON-serializable, and (together with the grid
geometry) reproduces the work profile bitwise via
:meth:`~repro.viz.base.Filter.profile_from_counts`.

This module owns that bridge for the whole repo:

* :func:`run_algorithm_ledger` — execute the real algorithm, return its
  ledger (the sweep engine's worker-process job body).
* :func:`run_algorithm_ledger_shard` — execute one k-span shard of a
  shardable algorithm (``Filter.apply_shard``), returning the span's
  partial ledger; :func:`merge_shard_ledgers` sums the spans back into
  the serial ledger (bitwise, because every entry is an integer-valued
  float).  Together they are the engine's process-sharded job body.
* :func:`profile_from_ledger` — ledger → cycle-scaled
  :class:`~repro.workload.WorkProfile`, the single pricing path used by
  the engine and the facade.
* :class:`ProfileCache` — the one ledger store: a versioned JSON file
  (``DEFAULT_CACHE_PATH`` for the CLI) that holds the union of every
  handle's puts, in any process, bound to the one dataset recipe its
  ledgers were recorded under.  No machine enters its key: a ledger
  counts operations, and any socket prices them.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from ..data.fields import DataSet
from ..data.generators import make_dataset
from ..data.grid import UniformGrid
from ..obs.durable import atomic_write_json, file_lock
from ..obs.trace import log_event
from ..viz import ALGORITHMS
from ..viz.base import OpCounts
from ..workload import WorkProfile

__all__ = [
    "DEFAULT_CACHE_PATH",
    "ProfileCache",
    "merge_shard_ledgers",
    "profile_from_ledger",
    "run_algorithm_ledger",
    "run_algorithm_ledger_shard",
    "supports_sharding",
]

#: Default ledger-cache location of the CLI (``sweep``, the table
#: commands and ``advise``) and the table regenerators.
DEFAULT_CACHE_PATH = ".cache/counts.json"


def run_algorithm_ledger(
    algorithm: str,
    size: int,
    *,
    dataset_kind: str = "blobs",
    seed: int = 7,
) -> dict[str, float]:
    """Execute the real algorithm once and return its op-count ledger.

    The dataset gets a velocity field only when the filter reads one
    (advection): it is three times the size of the energy field.
    """
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {algorithm!r}")
    filt = ALGORITHMS[algorithm]()
    ds = make_dataset(size, kind=dataset_kind, seed=seed, with_velocity=filt.field == "velocity")
    return filt.execute(ds).counts.as_dict()


def supports_sharding(algorithm: str) -> bool:
    """Whether the registry configuration of ``algorithm`` can shard."""
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {algorithm!r}")
    return ALGORITHMS[algorithm]().supports_sharding


def run_algorithm_ledger_shard(
    algorithm: str,
    size: int,
    shard: int,
    n_shards: int,
    *,
    dataset_kind: str = "blobs",
    seed: int = 7,
) -> dict[str, float]:
    """Execute one k-span shard; return that span's partial ledger.

    The shard covers cell planes ``shard_spans(nz, n_shards)[shard]``
    via :meth:`~repro.viz.base.Filter.apply_shard` — ledger only, no
    geometry — so independent worker processes can each run one span of
    a large grid and :func:`merge_shard_ledgers` reassembles the exact
    serial ledger.
    """
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {algorithm!r}")
    filt = ALGORITHMS[algorithm]()
    ds = make_dataset(size, kind=dataset_kind, seed=seed, with_velocity=filt.field == "velocity")
    counts = OpCounts()
    filt.apply_shard(ds, counts, shard, n_shards)
    return counts.as_dict()


def merge_shard_ledgers(parts) -> dict[str, float]:
    """Sum partial shard ledgers (ascending shard order) into one ledger.

    Every ledger entry is an integer-valued float far below 2^53, so the
    keyed addition reproduces the serial single-pass ledger bitwise.
    """
    merged = OpCounts()
    for part in parts:
        for key, value in part.items():
            merged.add(key, value)
    return merged.as_dict()


def profile_from_ledger(
    algorithm: str,
    size: int,
    ledger: dict[str, float],
    *,
    n_cycles: int = 1,
) -> WorkProfile:
    """Rebuild the cycle-scaled work profile from a recorded ledger.

    The filters derive segments from the ledger plus grid geometry only
    (never field values), so the reconstruction is bitwise identical to
    the profile of the original execution.
    """
    if algorithm not in ALGORITHMS:
        raise KeyError(f"unknown algorithm {algorithm!r}")
    ds = DataSet(UniformGrid.cube(size))
    counts = OpCounts()
    counts.counts.update(ledger)
    prof = ALGORITHMS[algorithm]().profile_from_counts(ds, counts)
    scaled = WorkProfile(
        name=f"{algorithm}@{size}",
        n_elements=prof.n_elements,
        metadata=dict(prof.metadata, n_cycles=n_cycles),
    )
    scaled.segments = [s.scaled(n_cycles) for s in prof.segments]
    return scaled


class ProfileCache:
    """Persistent (algorithm, size) → ledger cache, versioned JSON on disk.

    ``path=None`` keeps the cache in memory only.  Entries are keyed by
    (algorithm, size) alone, so the cache also records the dataset
    recipe — ``(dataset_kind, seed)`` — its ledgers were recorded under
    and refuses to serve another one (:meth:`bind`).

    Any number of handles, in any number of threads and processes, may
    share one file.  Opening a handle reads the file; each :meth:`put`
    reads it again, merges this handle's entries into it and replaces
    it, all under the file's writer lock
    (:func:`~repro.obs.durable.file_lock`).  So the file holds the union
    of every handle's puts, and the handle keeps the union it wrote.
    :meth:`get` and :meth:`entries` read the handle's memory only and
    never wait on the file.
    """

    FORMAT = "repro-profile-cache"
    VERSION = 1

    def __init__(self, path: str | Path | None = None):
        # Guards _entries and _recipe only: never held across file I/O
        # or the file lock, so readers never wait on a write.
        self._lock = threading.Lock()
        self._entries: dict[str, dict[str, float]] = {}
        self._recipe: tuple[str, int] | None = None
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            with file_lock(self.path):
                self._entries, self._recipe = self._read()

    @staticmethod
    def _key(algorithm: str, size: int) -> str:
        return f"{algorithm}/{int(size)}"

    def _read(self) -> tuple[dict[str, dict[str, float]], tuple[str, int] | None]:
        """The file's (entries, recipe); empty when there is no file or it is torn.

        The caller holds the file lock.  A file that is valid JSON but
        not a cache raises ``ValueError`` naming it, and is left as it is.
        """
        p = self.path
        try:
            doc = json.loads(p.read_text())
        except FileNotFoundError:
            return {}, None
        except json.JSONDecodeError as exc:
            # A torn write (crash mid-flush on a cache saved before saves
            # were atomic, or a tool truncating the file) must not brick a
            # study — the cache only memoizes re-runnable work.  Warn, move the damage
            # aside so it is inspectable instead of silently re-discarded
            # every startup, and start empty.
            corrupt = p.with_name(p.name + ".corrupt")
            log_event(
                "profile-cache-corrupt",
                f"profile cache {p} is truncated or corrupt ({exc!r}); "
                f"renaming to {corrupt.name} and starting with an empty cache",
                path=str(p),
                renamed_to=str(corrupt),
            )
            try:
                p.replace(corrupt)
            except OSError:
                pass  # read-only cache dir: the warning above still fired
            return {}, None
        fields = doc if isinstance(doc, dict) else {}
        if fields.get("format") != self.FORMAT:
            raise ValueError(f"{p} is not a profile cache (format={fields.get('format')!r})")
        if int(doc.get("version", 1)) > self.VERSION:
            raise ValueError(
                f"{p} has cache version {doc['version']}, newer than supported {self.VERSION}"
            )
        entries = doc.get("entries")
        if not isinstance(entries, dict) or not all(isinstance(v, dict) for v in entries.values()):
            raise ValueError(f"{p} is not a profile cache: 'entries' must map keys to ledger objects")
        recipe = doc.get("recipe")
        if recipe is not None:
            recipe = (str(recipe["dataset_kind"]), int(recipe["seed"]))
        return {k: dict(v) for k, v in entries.items()}, recipe

    def _save(self) -> None:
        """One read-merge-replace of the file, under its writer lock.

        A file stamped with another recipe raises the :meth:`bind`
        error and is left as it is.
        """
        if self.path is None:
            return
        with file_lock(self.path):
            entries, recipe = self._read()
            with self._lock:
                if recipe is not None and self._recipe not in (None, recipe):
                    raise self._recipe_error(recipe, self._recipe)
                self._recipe = self._recipe or recipe
                self._entries = {**entries, **self._entries}
                doc = {"format": self.FORMAT, "version": self.VERSION, "entries": dict(self._entries)}
                if self._recipe is not None:
                    doc["recipe"] = {"dataset_kind": self._recipe[0], "seed": self._recipe[1]}
            # Temp-file + os.replace (+ fsync): a crashed writer can
            # never leave a truncated cache — readers see the old
            # complete document or the new one, nothing in between.
            # repro: lint-ignore[RPR011]: a cross-process file lock, not an in-process one; it serializes this file's writers and only another writer waits on it, never get or entries
            atomic_write_json(self.path, doc)

    def _recipe_error(self, held: tuple[str, int], wanted: tuple[str, int]) -> ValueError:
        where = self.path if self.path is not None else "(in memory)"
        return ValueError(
            f"profile cache {where} holds ledgers of dataset_kind={held[0]!r} "
            f"seed={held[1]}, not dataset_kind={wanted[0]!r} seed={wanted[1]}; "
            "use one cache per dataset recipe"
        )

    def bind(self, dataset_kind: str, seed: int) -> None:
        """Tie the cache to the dataset recipe of the engine or advisor using it.

        A cache that records a recipe raises ``ValueError`` for any
        other: its ledgers measured a different dataset.  A cache
        without one — new, or written before recipes were recorded —
        adopts ``(dataset_kind, seed)`` as-is; the file records it on its
        next :meth:`put`, never here, so a warm run writes nothing.
        """
        recipe = (str(dataset_kind), int(seed))
        with self._lock:
            bound = self._recipe
            if bound is None:
                self._recipe = recipe
        if bound is not None and bound != recipe:
            raise self._recipe_error(bound, recipe)

    # ------------------------------------------------------------------ access
    def get(self, algorithm: str, size: int) -> dict[str, float] | None:
        with self._lock:
            entry = self._entries.get(self._key(algorithm, size))
            return dict(entry) if entry is not None else None

    def put(self, algorithm: str, size: int, ledger: dict[str, float]) -> None:
        with self._lock:
            self._entries[self._key(algorithm, size)] = dict(ledger)
        self._save()

    def entries(self):
        """Iterate ``(algorithm, size, ledger)`` over every cached entry."""
        with self._lock:
            snapshot = list(self._entries.items())
        for key, ledger in snapshot:
            algorithm, _, size = key.rpartition("/")
            yield algorithm, int(size), dict(ledger)

    def ingest_profile_cache(
        self, cache: ProfileCache, *, dataset: tuple[str, int], machine: str
    ) -> int:
        """Copy the entries of ``cache`` that this store lacks.

        Binds both stores to the recipe ``dataset`` (a
        ``(dataset_kind, seed)`` pair) first, so ledgers of another
        dataset are refused, never mixed.  ``machine`` is accepted and
        unused: no machine enters a ledger.  Returns the number of
        entries added.
        """
        self.bind(*dataset)
        cache.bind(*dataset)
        incoming = {self._key(a, s): ledger for a, s, ledger in cache.entries()}
        with self._lock:
            added = {k: v for k, v in incoming.items() if k not in self._entries}
            self._entries.update(added)
        if added:
            self._save()
        return len(added)

    def __contains__(self, key: tuple[str, int]) -> bool:
        with self._lock:
            return self._key(*key) in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
