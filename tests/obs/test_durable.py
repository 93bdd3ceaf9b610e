"""Crash recovery of every framed JSONL artifact, under one set of rules.

Each artifact is written, torn and read back through its own public
writer and reader; the result store is exercised once per record kind
(points, points with segments, quarantine records):

(a) a torn final line is dropped on read;
(b) the next append truncates it, and every whole record reads back;
(c) a corrupt interior line raises ``ValueError`` naming the file and
    the line;
(d) a foreign, other-version or missing header is rejected on read and
    on append, and the file is left as it was.

A whole document written by an ``atomic_write_*`` helper takes the mode
the umask gives any new file.
"""

import json
import os
import re
import stat

import pytest

from repro.core.metrics import Ratios
from repro.core.runner import RunPoint
from repro.core.store import ResultStore
from repro.faults.storefx import tear_tail
from repro.insitu.governors import SignalSample, SignalTrace
from repro.machine.simulator import SegmentRecord
from repro.obs.durable import atomic_write_bytes, atomic_write_json, atomic_write_text
from repro.obs.trace import Tracer, read_trace


def _point(i: int) -> RunPoint:
    return RunPoint(
        algorithm="contour",
        size=12,
        cap_w=120.0 - 10 * i,
        time_s=1.0 + 0.1 * i,
        energy_j=80.0 - i,
        power_w=70.0 - i,
        freq_ghz=2.1,
        ipc=1.5,
        llc_miss_rate=0.01,
        ratios=Ratios(pratio=1.0 + 0.1 * i, tratio=1.0, fratio=1.0),
    )


_SEGMENTS = [
    SegmentRecord("classify", 2.1, 1.0, 0.25, 80.0, 20.0, 1e9, 1e7, 1e5, 0.1, True),
    SegmentRecord("emit", 1.8, 0.75, 0.125, 60.0, 7.5, 4e8, 2e6, 3e4, 0.2, False),
]
_REASONS = [{"code": "power-over-cap", "message": "power exceeds cap"}]


class Store:
    def __init__(self, tmp_path):
        self.path = tmp_path / "sweep.jsonl"

    def _open(self) -> ResultStore:
        store = ResultStore(self.path)
        if store.fingerprint is None:
            store.ensure_compatible("fp", {"config_name": "t"})
        return store

    def append(self, i):
        self._open().append(_point(i))

    def read(self):
        return [p.to_dict() for p in ResultStore(self.path)]


class SampledStore(Store):
    """Every record a point with its segment records."""

    def append(self, i):
        self._open().append(_point(i), segments=_SEGMENTS)

    def read(self):
        store = ResultStore(self.path)
        return [p.to_dict() for p in store], store.samples()


class QuarantineStore(Store):
    """Every record a quarantined point with its reasons."""

    def append(self, i):
        self._open().quarantine(_point(i), _REASONS)

    def read(self):
        return [(p.to_dict(), reasons) for p, reasons in ResultStore(self.path).quarantined()]


class Trace:
    def __init__(self, tmp_path):
        self.path = tmp_path / "sweep.trace.jsonl"

    def append(self, i):
        Tracer(self.path).emit({"kind": "event", "name": f"e{i}", "t_s": float(i)})

    def read(self):
        return read_trace(self.path)[1]


class Signal:
    """A signal trace is written whole; its "append" rewrites the file
    with one more sample, through the real reader and writer."""

    def __init__(self, tmp_path):
        self.path = tmp_path / "price.jsonl"

    def append(self, i):
        old = SignalTrace.from_jsonl(self.path).samples if self.path.exists() else ()
        SignalTrace(old + (SignalSample(float(i), 10.0 + i),), name="price").to_jsonl(self.path)

    def read(self):
        return list(SignalTrace.from_jsonl(self.path).samples)


ARTIFACTS = {
    "store": Store,
    "samples": SampledStore,
    "quarantine": QuarantineStore,
    "trace": Trace,
    "signal-trace": Signal,
}


@pytest.fixture(params=list(ARTIFACTS))
def kind(request):
    return request.param


def test_torn_final_line_is_dropped_on_read(kind, tmp_path):
    art = ARTIFACTS[kind](tmp_path)
    for i in range(2):
        art.append(i)
    whole = art.read()
    art.append(2)
    assert tear_tail(art.path) > 0
    assert art.read() == whole


def test_next_append_truncates_the_torn_line(kind, tmp_path):
    (tmp_path / "ref").mkdir()
    art, ref = ARTIFACTS[kind](tmp_path), ARTIFACTS[kind](tmp_path / "ref")
    for i in range(3):
        art.append(i)
    assert tear_tail(art.path) > 0
    art.append(3)
    for i in (0, 1, 3):
        ref.append(i)
    assert art.read() == ref.read()


def test_corrupt_interior_line_names_the_file_and_line(kind, tmp_path):
    art = ARTIFACTS[kind](tmp_path)
    for i in range(3):
        art.append(i)
    lines = art.path.read_text().splitlines(keepends=True)
    lines.insert(2, "garbage, not json\n")  # line 3: after the header and one record
    art.path.write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"{re.escape(str(art.path))}.*line 3\b"):
        art.read()


@pytest.mark.parametrize("damage", ["foreign", "other-version", "headerless"])
def test_bad_header_is_rejected_and_the_file_kept(kind, damage, tmp_path):
    art = ARTIFACTS[kind](tmp_path)
    art.append(0)
    lines = art.path.read_text().splitlines(keepends=True)
    header = json.loads(lines[0])
    if damage == "foreign":
        header["format"] = "repro-something-else"
    elif damage == "other-version":
        header["version"] += 1
    lines[0:1] = [] if damage == "headerless" else [json.dumps(header, sort_keys=True) + "\n"]
    art.path.write_text("".join(lines))
    before = art.path.read_bytes()
    names_the_file = re.escape(str(art.path))
    with pytest.raises(ValueError, match=names_the_file):
        art.read()
    with pytest.raises(ValueError, match=names_the_file):
        art.append(1)
    assert art.path.read_bytes() == before


def test_atomic_writes_follow_the_umask(tmp_path):
    """A replaced document gets the mode a plain ``open()`` gives a new
    file, also when it replaces an owner-only one."""
    existing = tmp_path / "existing.json"
    existing.write_text("{}")
    existing.chmod(0o600)
    old = os.umask(0o022)
    try:
        atomic_write_text(tmp_path / "doc.txt", "text")
        atomic_write_bytes(tmp_path / "doc.bin", b"bytes")
        atomic_write_json(tmp_path / "doc.json", {"k": 1})
        atomic_write_json(existing, {"k": 2})
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("plain")
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["doc.txt", "doc.bin", "doc.json", "existing.json", "plain.txt"], 0o644
    )
