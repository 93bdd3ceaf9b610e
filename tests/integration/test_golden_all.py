"""``python -m repro all --max-size 16 --csv DIR`` reproduces its golden output.

``tests/golden/repro_all_max16.stdout`` is the command's stdout and
``repro_all_max16.json`` the SHA-256 of each CSV it writes. Every table
and figure command runs, so a change anywhere from dataset generation to
report rendering that moves a printed digit or a CSV byte fails here.
Re-record the files only for an intended change of the study's output.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cli import main

_GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def test_repro_all_max16_is_byte_identical(capsys, monkeypatch, tmp_path):
    # ``--max-size`` writes REPRO_MAX_SIZE into the process environment;
    # setenv first so monkeypatch restores the caller's value afterwards.
    monkeypatch.setenv("REPRO_MAX_SIZE", "16")
    csv_dir = tmp_path / "csv"
    rc = main([
        "all", "--max-size", "16", "--csv", str(csv_dir),
        "--cache", str(tmp_path / "counts.json"),
    ])
    assert rc == 0
    assert capsys.readouterr().out == (_GOLDEN / "repro_all_max16.stdout").read_text()
    expected = json.loads((_GOLDEN / "repro_all_max16.json").read_text())["csv_sha256"]
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in csv_dir.glob("*.csv")}
    assert got == expected
