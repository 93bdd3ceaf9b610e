"""Result emitters: CSV for sweep results and figure series.

CSV is a *round-trip* format here, not just a report: ``cap_w`` is the
join key between a CSV row and the sweep grid that produced it, so it is
emitted at full precision (``repr``, the shortest digits that parse back
bitwise-equal) and :func:`result_from_csv` reads rows back into a
:class:`~repro.core.runner.StudyResult`.  Human-readable tables are
:mod:`repro.core.report`'s job.  All file output goes through
:mod:`repro.obs.durable`, so a crash mid-emit can't leave a truncated
CSV sitting next to an intact store.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

from ..core.metrics import Ratios
from ..core.report import FigureSeries
from ..core.runner import RunPoint, StudyResult
from ..obs.durable import atomic_write_text

__all__ = ["result_to_csv", "result_from_csv", "series_to_csv"]

_FIELDS = (
    "algorithm",
    "size",
    "cap_w",
    "time_s",
    "energy_j",
    "power_w",
    "freq_ghz",
    "ipc",
    "llc_miss_rate",
    "pratio",
    "tratio",
    "fratio",
)


def result_to_csv(result: StudyResult, path: str | Path | None = None) -> str:
    """Serialize every run point; returns the CSV text (and atomically
    writes it when ``path`` is given)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELDS)
    for p in result.points:
        writer.writerow(
            [
                p.algorithm,
                p.size,
                # repr: full precision, so fractional caps (62.5 W)
                # survive the round-trip bitwise instead of collapsing
                # to the nearest integer watt.
                repr(p.cap_w),
                f"{p.time_s:.6f}",
                f"{p.energy_j:.3f}",
                f"{p.power_w:.3f}",
                f"{p.freq_ghz:.4f}",
                f"{p.ipc:.4f}",
                f"{p.llc_miss_rate:.4f}",
                f"{p.pratio:.4f}",
                f"{p.tratio:.4f}",
                f"{p.fratio:.4f}",
            ]
        )
    text = buf.getvalue()
    if path is not None:
        atomic_write_text(Path(path), text)
    return text


def result_from_csv(source: str | Path, *, config_name: str | None = None) -> StudyResult:
    """Parse :func:`result_to_csv` output back into a :class:`StudyResult`.

    ``source`` is a path, or the CSV text itself when it starts with the
    header row.
    ``cap_w`` round-trips bitwise; measurement columns carry the emitted
    precision.
    """
    if isinstance(source, Path):
        text = source.read_text()
        if config_name is None:
            config_name = source.stem
    elif source.startswith(_FIELDS[0] + ",") or "\n" in source:
        text = source
    else:
        path = Path(source)
        text = path.read_text()
        if config_name is None:
            config_name = path.stem
    reader = csv.DictReader(io.StringIO(text))
    missing = set(_FIELDS) - set(reader.fieldnames or ())
    if missing:
        raise ValueError(f"not a study-result CSV: missing column(s) {sorted(missing)}")
    points = [
        RunPoint(
            algorithm=row["algorithm"],
            size=int(row["size"]),
            cap_w=float(row["cap_w"]),
            time_s=float(row["time_s"]),
            energy_j=float(row["energy_j"]),
            power_w=float(row["power_w"]),
            freq_ghz=float(row["freq_ghz"]),
            ipc=float(row["ipc"]),
            llc_miss_rate=float(row["llc_miss_rate"]),
            ratios=Ratios(
                pratio=float(row["pratio"]),
                tratio=float(row["tratio"]),
                fratio=float(row["fratio"]),
            ),
        )
        for row in reader
    ]
    return StudyResult(config_name=config_name or "csv", points=points)


def series_to_csv(series: dict[str, FigureSeries], path: str | Path | None = None) -> str:
    """Serialize figure series as long-format CSV (label, x, y)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["label", "x", "y"])
    for label, s in series.items():
        for x, y in zip(s.x, s.y):
            writer.writerow([label, f"{x:g}", f"{y:.6g}"])
    text = buf.getvalue()
    if path is not None:
        atomic_write_text(Path(path), text)
    return text
