"""Findings baseline: grandfather existing debt without hiding new debt.

A baseline file records fingerprints of known findings so an adopted
rule can land while its pre-existing violations are burned down.  The
semantics:

* a finding whose fingerprint is in the baseline is reported as
  *baselined* and does not fail the run;
* a fresh finding (no fingerprint match) fails the run;
* a baseline entry matching no current finding is *expired* — the debt
  was paid — and ``repro lint --update-baseline`` removes it.

Fingerprints hash ``(rule, path, normalized source line, occurrence)``
rather than line numbers, so unrelated edits shifting a file do not
churn the baseline.  This repo's checked-in baseline is **empty** and
CI keeps it that way: the mechanism exists for future rule adoption,
not as a parking lot.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable

from ..obs.durable import atomic_write_json
from .findings import Finding

__all__ = ["Baseline", "finding_fingerprint", "DEFAULT_BASELINE_PATH"]

BASELINE_FORMAT = "repro-lint-baseline"
BASELINE_VERSION = 1

#: Looked for in the working directory when ``--baseline`` is not given.
DEFAULT_BASELINE_PATH = Path("lint_baseline.json")


def finding_fingerprint(finding: Finding, line_text: str, occurrence: int = 0) -> str:
    """Line-number-independent identity of a finding.

    ``occurrence`` disambiguates identical violations on identical
    source lines within one file (0 for the first, 1 for the next, ...).
    """
    normalized = " ".join(line_text.split())
    payload = f"{finding.code}|{finding.path}|{normalized}|{occurrence}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Baseline:
    """The set of grandfathered finding fingerprints."""

    def __init__(self, entries: set[str] | None = None, *, path: str | Path | None = None):
        self.entries: set[str] = set(entries or ())
        self.path = Path(path) if path is not None else None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        p = Path(path)
        if not p.exists():
            return cls(path=p)
        doc = json.loads(p.read_text())
        if doc.get("format") != BASELINE_FORMAT:
            raise ValueError(f"{p} is not a lint baseline (format={doc.get('format')!r})")
        if int(doc.get("version", 1)) > BASELINE_VERSION:
            raise ValueError(
                f"{p} has baseline version {doc['version']}, newer than supported {BASELINE_VERSION}"
            )
        return cls(set(str(e) for e in doc.get("entries", [])), path=p)

    def save(self, path: str | Path | None = None) -> Path:
        """Atomically write the baseline (sorted, so diffs stay minimal)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("baseline has no path to save to")
        atomic_write_json(
            target,
            {
                "format": BASELINE_FORMAT,
                "version": BASELINE_VERSION,
                "entries": sorted(self.entries),
            },
            indent=1,
        )
        self.path = target
        return target

    # ------------------------------------------------------------ matching
    def partition(
        self, findings: list[Finding], line_lookup: Callable[[Finding], str]
    ) -> tuple[list[Finding], list[Finding], set[str]]:
        """Split findings into (new, baselined) and report expired entries.

        ``line_lookup`` maps a finding to its current source line text
        (the runner closes over its parsed file contexts).  Expired
        entries are baseline fingerprints no current finding matched.
        """
        seen_occurrences: dict[str, int] = {}
        matched: set[str] = set()
        new: list[Finding] = []
        baselined: list[Finding] = []
        for f in sorted(findings, key=lambda f: f.sort_key):
            text = line_lookup(f)
            base = f"{f.code}|{f.path}|{' '.join(text.split())}"
            occurrence = seen_occurrences.get(base, 0)
            seen_occurrences[base] = occurrence + 1
            fp = finding_fingerprint(f, text, occurrence)
            if fp in self.entries:
                matched.add(fp)
                baselined.append(f)
            else:
                new.append(f)
        expired = self.entries - matched
        return new, baselined, expired

    @classmethod
    def from_findings(
        cls,
        findings: list[Finding],
        line_lookup: Callable[[Finding], str],
        *,
        path: str | Path | None = None,
    ) -> "Baseline":
        """A baseline covering exactly the given findings."""
        fresh = cls(path=path)
        seen_occurrences: dict[str, int] = {}
        for f in sorted(findings, key=lambda f: f.sort_key):
            text = line_lookup(f)
            base = f"{f.code}|{f.path}|{' '.join(text.split())}"
            occurrence = seen_occurrences.get(base, 0)
            seen_occurrences[base] = occurrence + 1
            fresh.entries.add(finding_fingerprint(f, text, occurrence))
        return fresh
