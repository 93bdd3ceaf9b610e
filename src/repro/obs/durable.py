"""Durable files: atomic whole-file writes and framed JSON-lines logs.

The artifacts written through this module are of two kinds.

* **Whole documents** (the profile cache, metrics dumps, bench
  trajectories, images) are replaced with
  :func:`atomic_write_text` / :func:`atomic_write_bytes` /
  :func:`atomic_write_json`: write a sibling temp file, fsync it, then
  ``os.replace`` it over the target, so a reader only ever sees the old
  complete document or the new one.  A document that several writers
  read, merge and replace (the profile cache) is written under
  :func:`file_lock`.
* **JSON-lines logs** (the result store, whose records are points,
  points with their segment records, and quarantined points; the
  trace; the signal trace) are framed by :class:`JsonlFile`: a header
  line naming the format and version, then one JSON record per line.
  The rules are the same for every log and every record:

  - *Header.*  The first line's ``format`` and ``version`` must equal
    the expected header's, on read and on append; a foreign or
    other-version file is rejected, naming the file, and left as it is.
  - *Append.*  One open, one write of whole lines, a flush, an fsync
    (unless the log is built with ``fsync=False``) and a close.  No
    file stays open between appends.
  - *Torn tail.*  A line is whole once its newline is written, so the
    bytes after the last newline are a record a killed writer never
    finished.  A reader drops them; the first append of a
    :class:`JsonlFile` truncates them before it writes.
  - *Reading.*  Any other line that does not parse raises
    ``ValueError`` naming the file and the line.

The sweep service's write-ahead log (:mod:`repro.serve.wal`) keeps its
own code: other processes append to it while the daemon reads it, so it
repairs a torn tail with a newline instead of truncating it.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path

__all__ = ["JsonlFile", "atomic_write_text", "atomic_write_bytes", "atomic_write_json", "file_lock"]


def _atomic_write(path: str | Path, payload, mode: str) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    # Created with 0o666 so the umask sets the file's mode, as a plain
    # open() does (mkstemp would force 0600).  file_lock's stale-temp
    # pattern matches exactly this name shape.
    while True:
        tmp_name = target.parent / f"{target.name}.{os.urandom(4).hex()}.tmp"
        try:
            fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically replace ``path``'s contents with ``text``.

    The temp file lives in the target's directory so ``os.replace`` is a
    same-filesystem rename (atomic on POSIX).  The data is fsynced
    before the rename, so a crash leaves either the previous file or the
    new one — never a truncated hybrid.  The new file's mode follows the
    umask, as for a plain ``open()``.
    """
    _atomic_write(path, text, "w")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Binary sibling of :func:`atomic_write_text` (images, archives)."""
    _atomic_write(path, data, "wb")


def atomic_write_json(path: str | Path, doc: dict, *, indent: int | None = None) -> None:
    """Serialize ``doc`` (sorted keys) and atomically write it to ``path``."""
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=indent))


@contextmanager
def file_lock(path: str | Path):
    """Hold the exclusive writer lock of the document at ``path``.

    The lock is an ``fcntl.flock`` on the document's directory: the
    document is replaced on every write, so its own inode cannot carry
    a lock, and the directory needs no lock file.  Each call opens its
    own descriptor, so the lock excludes other threads as well as other
    processes; it is released when the block exits or its holder dies.
    Every writer of ``path`` must hold it.  A reader need not: a
    replace is atomic.

    On taking the lock, this removes the temp files that a writer killed
    inside :func:`atomic_write_text` left beside ``path`` (only names of
    the exact shape ``<name>.XXXXXXXX.tmp``): while the lock is held, no
    live writer owns one.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(target.parent, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        stale = re.compile(re.escape(target.name) + r"\.[a-z0-9_]{8}\.tmp")
        for name in os.listdir(target.parent):
            if stale.fullmatch(name):
                os.unlink(target.parent / name)
        yield
    finally:
        os.close(fd)


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


class JsonlFile:
    """One framed JSON-lines file: a header line, then one record per line.

    ``header`` is the dict a fresh file starts with, written exactly as
    given (sorted keys); its ``format`` and ``version`` are what an
    existing file's header must carry.  ``fsync=False`` leaves appends
    flushed but not fsynced (the trace).
    """

    def __init__(self, path: str | Path, header: dict, *, fsync: bool = True):
        self.path = Path(path)
        self.header = header
        self.fsync = fsync
        # Whether this object has checked the file's header and cut its
        # torn tail; only the first append pays for the check.
        self._checked = False

    def _check_header(self, line: bytes | None) -> dict:
        """The header parsed from ``line``, or ``ValueError`` naming the file."""
        try:
            header = json.loads(line) if line is not None else None
        except ValueError:
            header = None
        if not isinstance(header, dict):
            header = {}
        noun = self.header["format"].removeprefix("repro-").replace("-", " ")
        if header.get("format") != self.header["format"]:
            raise ValueError(f"{self.path} is not a {noun} file (format={header.get('format')!r})")
        if header.get("version") != self.header["version"]:
            raise ValueError(
                f"{self.path} has {noun} version {header.get('version')}, "
                f"not {self.header['version']}; write a fresh file"
            )
        return header

    def read(self, parse=None) -> tuple[dict, list]:
        """(header, records) of the file, dropping a torn final line.

        ``parse`` maps each record dict to what the caller keeps; a line
        that is not JSON, or that ``parse`` rejects with ``ValueError``,
        ``KeyError`` or ``TypeError``, raises ``ValueError`` naming the
        file and the line.
        """
        whole = self.path.read_bytes().split(b"\n")[:-1]
        header = self._check_header(whole[0] if whole else None)
        records = []
        for n, line in enumerate(whole[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                records.append(parse(record) if parse is not None else record)
            except (ValueError, KeyError, TypeError):
                raise ValueError(f"{self.path}: corrupt record on line {n}") from None
        return header, records

    def _prepare(self) -> bool:
        """Check an existing file's header and cut its torn tail; True
        when the file is new (missing or empty) and needs its header."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        if not data:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return True
        end = data.rfind(b"\n") + 1
        self._check_header(data[: data.find(b"\n")] if end else None)
        if end < len(data):
            os.truncate(self.path, end)
        return False

    def append(self, *records: dict) -> None:
        """Append whole lines, preceded by the header when the file is new."""
        text = "".join(_line(r) for r in records)
        if not self._checked:
            if self._prepare():
                text = _line(self.header) + text
            self._checked = True
        if not text:
            return
        with open(self.path, "a") as fh:
            fh.write(text)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())

    def write(self, records, *, header: dict | None = None) -> None:
        """Atomically replace the file with a header and ``records``.

        A given ``header`` becomes this file's header from now on (the
        result store's carries its sweep fingerprint).
        """
        if header is not None:
            self.header = header
        atomic_write_text(self.path, "".join(map(_line, (self.header, *records))))
        self._checked = True

    def remove(self) -> None:
        """Delete the file; the next append starts a fresh one."""
        self.path.unlink(missing_ok=True)
        self._checked = False

    def sync(self) -> None:
        """fsync the file and its directory entry, so a freshly created
        file survives a crash of the whole machine, not just the process."""
        for target in (self.path, self.path.parent):
            try:
                fd = os.open(target, os.O_RDONLY)
            except OSError:
                continue
            try:
                os.fsync(fd)
            except OSError:
                pass  # some filesystems refuse directory fsync
            finally:
                os.close(fd)
