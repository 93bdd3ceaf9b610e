"""Regenerate ``reference/`` from one cold Phase 3 sweep.

Run from the repository root (about 70 s on 2 cores)::

    python3 perfbench/record_reference.py

The sweep runs in a temporary directory under ``.perfbench-work/``.  Only
regenerate when the program's ledgers or points change on purpose: the
benchmark's correctness gate compares every run against these files.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gate import POINTS_FORMAT, REFERENCE_DIR, group_digests, group_key, study_digest  # noqa: E402
from repro.core.engine import SweepEngine  # noqa: E402
from repro.core.profiles import ProfileCache  # noqa: E402
from repro.core.study import phase3_config  # noqa: E402


def main() -> int:
    work_root = HERE.parent / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
    try:
        config = phase3_config()
        cache = ProfileCache(work / "ledgers.json")
        engine = SweepEngine(workers=2, store=work / "store.jsonl", profile_cache=cache)
        result = engine.run(config)
        keys = [group_key(a, s) for a in config.algorithms for s in config.sizes]
        entries = {group_key(a, s): ledger for a, s, ledger in cache.entries()}
        ledgers = {
            "format": ProfileCache.FORMAT,
            "version": ProfileCache.VERSION,
            "entries": {k: entries[k] for k in sorted(entries)},
        }
        digests = group_digests(result.points)
        points = {
            "format": POINTS_FORMAT,
            "config": config.name,
            "groups": {k: digests[k] for k in keys},
            "phase3_digest": study_digest(digests, keys),
        }
        REFERENCE_DIR.mkdir(exist_ok=True)
        (REFERENCE_DIR / "ledgers.json").write_text(json.dumps(ledgers, indent=1) + "\n")
        (REFERENCE_DIR / "points.json").write_text(json.dumps(points, indent=1) + "\n")
        print(f"recorded {len(entries)} ledgers and {len(result.points)} point digests "
              f"-> {REFERENCE_DIR}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
