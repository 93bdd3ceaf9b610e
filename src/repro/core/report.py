"""Report rendering: reproduce the paper's tables and figure series.

Text renderers emit the same rows the paper prints (Pratio/Tratio/
Fratio grids with the first-10 %-slowdown cells marked ``*`` where the
paper uses red), and figure helpers return the exact series behind
Figs. 2–6 so benchmarks and tests can assert their shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metrics import SLOWDOWN_THRESHOLD, element_rate, first_slowdown_cap
from .runner import RunPoint, StudyResult

__all__ = [
    "render_table1",
    "render_slowdown_table",
    "figure2_series",
    "figure3_series",
    "ipc_by_size_series",
    "FigureSeries",
]


def _caps_desc(points: list[RunPoint]) -> list[float]:
    return sorted({p.cap_w for p in points}, reverse=True)


def _is_red(cap_w: float, red: float | None) -> bool:
    """Is this cap the first ≥10 %-slowdown cap?  Tolerant matching:
    caps are floats that may have round-tripped through CSV/JSON, so a
    fractional cap (62.5 W) must still earn its ``*``."""
    return red is not None and math.isclose(cap_w, red, rel_tol=1e-9, abs_tol=1e-6)


def render_table1(result: StudyResult, *, algorithm: str = "contour", size: int = 128) -> str:
    """Table I: the Phase-1 contour sweep (P, T, F and their ratios)."""
    pts = sorted(result.select(algorithm=algorithm, size=size), key=lambda p: -p.cap_w)
    if not pts:
        raise KeyError(f"no data for {algorithm} at {size}^3")
    red = first_slowdown_cap([(p.cap_w, p.tratio) for p in pts])
    lines = [
        f"Table I — {algorithm} @ {size}^3 (slowdown under processor power caps)",
        f"{'P':>6} {'Pratio':>7} {'T':>10} {'Tratio':>7} {'F':>9} {'Fratio':>7}",
    ]
    for p in pts:
        mark = "*" if _is_red(p.cap_w, red) else " "
        lines.append(
            f"{p.cap_w:>5.0f}W {p.pratio:>6.1f}X {p.time_s:>9.3f}s "
            f"{p.tratio:>6.2f}X{mark} {p.freq_ghz:>6.2f}GHz {p.fratio:>6.2f}X"
        )
    lines.append("(* first cap with a >=10% slowdown)")
    return "\n".join(lines)


def render_slowdown_table(result: StudyResult, *, size: int) -> str:
    """Tables II/III: Tratio and Fratio for every algorithm at one size."""
    pts = result.select(size=size)
    if not pts:
        raise KeyError(f"no data at {size}^3")
    caps = _caps_desc(pts)
    header = f"{'':14s}" + "".join(f"{c:>8.0f}W" for c in caps)
    pr = f"{'Pratio':>14s}" + "".join(f"{max(caps) / c:>8.1f}X" for c in caps)
    lines = [f"Table — slowdown factors @ {size}^3", header, pr]
    for alg in result.algorithms:
        rows = {p.cap_w: p for p in result.select(algorithm=alg, size=size)}
        if not rows:
            continue
        red = first_slowdown_cap([(c, p.tratio) for c, p in rows.items()])
        t_line = f"{alg:>8s} {'Tratio':>5s}"
        f_line = f"{'':>8s} {'Fratio':>5s}"
        for c in caps:
            p = rows[c]
            mark = "*" if _is_red(c, red) else " "
            t_line += f"{p.tratio:>7.2f}X{mark}"[:9].rjust(9)
            f_line += f"{p.fratio:>8.2f}X"
        lines.append(t_line)
        lines.append(f_line)
    lines.append("(* first cap with a >=10% slowdown)")
    return "\n".join(lines)


@dataclass(frozen=True)
class FigureSeries:
    """One plotted line: an algorithm's metric across caps (or sizes)."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]


def figure2_series(
    result: StudyResult, *, size: int = 128
) -> dict[str, dict[str, FigureSeries]]:
    """Fig. 2 data: effective frequency (a), IPC (b), LLC miss rate (c)
    versus power cap for every algorithm at one size.

    Returns ``{"frequency"|"ipc"|"llc_miss_rate": {algorithm: series}}``
    with caps ascending on x, as plotted.
    """
    out: dict[str, dict[str, FigureSeries]] = {"frequency": {}, "ipc": {}, "llc_miss_rate": {}}
    for alg in result.algorithms:
        pts = sorted(result.select(algorithm=alg, size=size), key=lambda p: p.cap_w)
        if not pts:
            continue
        caps = tuple(p.cap_w for p in pts)
        out["frequency"][alg] = FigureSeries(alg, caps, tuple(p.freq_ghz for p in pts))
        out["ipc"][alg] = FigureSeries(alg, caps, tuple(p.ipc for p in pts))
        out["llc_miss_rate"][alg] = FigureSeries(
            alg, caps, tuple(p.llc_miss_rate for p in pts)
        )
    return out


def figure3_series(
    result: StudyResult,
    *,
    size: int = 128,
    algorithms: tuple[str, ...] = ("contour", "isovolume", "slice", "clip", "threshold"),
) -> dict[str, FigureSeries]:
    """Fig. 3 data: elements processed per second for the cell-centered
    algorithms versus power cap."""
    out: dict[str, FigureSeries] = {}
    for alg in algorithms:
        pts = sorted(result.select(algorithm=alg, size=size), key=lambda p: p.cap_w)
        if not pts:
            continue
        caps = tuple(p.cap_w for p in pts)
        rate = tuple(element_rate(size**3, p.time_s) for p in pts)
        out[alg] = FigureSeries(alg, caps, rate)
    return out


def ipc_by_size_series(result: StudyResult, *, algorithm: str) -> dict[int, FigureSeries]:
    """Figs. 4–6 data: one algorithm's IPC-vs-cap line per dataset size."""
    out: dict[int, FigureSeries] = {}
    for size in result.sizes:
        pts = sorted(result.select(algorithm=algorithm, size=size), key=lambda p: p.cap_w)
        if not pts:
            continue
        out[size] = FigureSeries(
            f"{algorithm}@{size}",
            tuple(p.cap_w for p in pts),
            tuple(p.ipc for p in pts),
        )
    return out
