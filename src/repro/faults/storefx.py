"""Store-layer fault injection: damage a result store the realistic ways.

A sweep's JSONL store dies in three characteristic ways in the wild: a
run killed mid-``write`` leaves a *torn tail* (a partial final record),
disk/transfer corruption scribbles on the *header*, and resuming
against a store produced by a different sweep context is a
*fingerprint mismatch*.  These helpers produce each state on demand so
tests and the chaos driver can prove the recovery paths
(:class:`~repro.core.store.ResultStore` truncates torn tails, refuses
corrupt headers and mismatched fingerprints).

All three operate on the closed file, byte-level — exactly what the
store will see on its next open.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["tear_tail", "corrupt_header", "flip_fingerprint"]


def tear_tail(path: str | Path, *, keep_fraction: float = 0.5) -> int:
    """Truncate the final record mid-line (a writer killed mid-append).

    Works on any JSONL file whose first line is a header: a result
    store, or the sweep service's WAL.

    Keeps ``keep_fraction`` of the last non-empty line's bytes (at
    least one).  Returns the number of bytes torn off; 0 when the file
    has no record line to tear (header-only or empty stores are left
    untouched).
    """
    p = Path(path)
    data = p.read_bytes()
    body = data.rstrip(b"\n")
    nl = body.rfind(b"\n")
    if nl < 0:  # only the header line (or nothing): nothing to tear
        return 0
    last = body[nl + 1:]
    if not last:
        return 0
    keep = nl + 1 + max(1, int(len(last) * keep_fraction))
    with open(p, "r+b") as fh:
        fh.truncate(keep)
    return len(data) - keep


def corrupt_header(path: str | Path) -> None:
    """Scribble on the header line (disk corruption at offset zero)."""
    p = Path(path)
    data = bytearray(p.read_bytes())
    if not data:
        raise ValueError(f"{p} is empty; nothing to corrupt")
    data[0:1] = b"X"
    p.write_bytes(bytes(data))  # repro: lint-ignore[RPR001]: injects disk corruption on purpose — atomicity would defeat the fault


def flip_fingerprint(path: str | Path) -> str:
    """Rewrite the header under a bogus fingerprint; returns the new one.

    Simulates pointing a sweep at a store produced by a different
    context — resuming must raise ``StoreMismatchError``, not mix
    incomparable measurements.
    """
    p = Path(path)
    lines = p.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    header["fingerprint"] = "deadbeef" * 2
    lines[0] = json.dumps(header, sort_keys=True) + "\n"
    p.write_text("".join(lines))  # repro: lint-ignore[RPR001]: simulates a foreign store landing in place of ours
    return header["fingerprint"]
