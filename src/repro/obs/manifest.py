"""Per-run manifests: the provenance record next to every result store.

A sweep's points are only interpretable against the context that
produced them — machine spec, dataset seed, cycle count, fault plan,
package version.  The store header carries a *fingerprint* of that
context; the manifest carries the context itself, human-readable,
written atomically (via :mod:`repro.obs.durable`) as
``<store>.manifest.json`` so a crash can never leave a half-written
provenance record beside an intact store.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .durable import atomic_write_json

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "build_manifest",
    "write_manifest",
    "read_manifest",
    "manifest_path_for",
]

MANIFEST_FORMAT = "repro-run-manifest"
MANIFEST_VERSION = 1


def manifest_path_for(store_path: str | Path) -> Path:
    """The sidecar manifest file for a result-store path."""
    return Path(store_path).with_suffix(".manifest.json")


def build_manifest(
    *,
    spec: dict,
    config: dict,
    seed: int,
    n_cycles: int,
    dataset_kind: str,
    fingerprint: str,
    fault_plan: str | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble the provenance document for one sweep run."""
    from .. import __version__  # deferred: obs sits below the package root

    doc = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "package_version": __version__,
        "created_unix": time.time(),
        "spec": dict(spec),
        "config": dict(config),
        "seed": int(seed),
        "n_cycles": int(n_cycles),
        "dataset_kind": dataset_kind,
        "fingerprint": fingerprint,
        "fault_plan": fault_plan,
    }
    if extra:
        doc.update(extra)
    return doc


def write_manifest(path: str | Path, manifest: dict) -> Path:
    """Atomically persist a manifest; returns the path written."""
    target = Path(path)
    atomic_write_json(target, manifest, indent=1)
    return target


def read_manifest(path: str | Path) -> dict:
    """Load and validate a manifest document."""
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path} is not a run manifest (format={doc.get('format')!r})")
    if int(doc.get("version", 1)) > MANIFEST_VERSION:
        raise ValueError(
            f"{path} has manifest version {doc['version']}, newer than supported {MANIFEST_VERSION}"
        )
    return doc
