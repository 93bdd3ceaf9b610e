"""Report rendering details: red-cell markers and table structure."""

import pytest

from repro.core import (
    StudyConfig,
    SweepEngine,
    render_slowdown_table,
    render_table1,
)


@pytest.fixture(scope="module")
def result():
    cfg = StudyConfig(name="r", algorithms=("contour", "volume"), sizes=(16,))
    return SweepEngine(n_cycles=3, workers=0).run(cfg)


class TestRedMarkers:
    def test_table1_marks_exactly_one_cap(self, result):
        text = render_table1(result, algorithm="contour", size=16)
        rows = [l for l in text.splitlines() if l.strip().endswith("X") or "X*" in l]
        starred = [l for l in text.splitlines() if "X*" in l]
        assert len(starred) == 1

    def test_table1_star_is_on_slowed_row(self, result):
        text = render_table1(result, algorithm="contour", size=16)
        starred = next(l for l in text.splitlines() if "X*" in l)
        tratio = float(starred.split("X*")[0].split()[-1])
        assert tratio >= 1.1

    def test_slowdown_table_one_star_per_slowed_algorithm(self, result):
        text = render_slowdown_table(result, size=16)
        for alg in ("contour", "volume"):
            line = next(l for l in text.splitlines() if l.strip().startswith(alg))
            assert line.count("*") <= 1

    def test_legend_present(self, result):
        for text in (
            render_table1(result, algorithm="contour", size=16),
            render_slowdown_table(result, size=16),
        ):
            assert "10%" in text


class TestStructure:
    def test_table1_has_nine_cap_rows(self, result):
        text = render_table1(result, algorithm="contour", size=16)
        cap_rows = [l for l in text.splitlines() if l.strip().endswith("X") or "X*" in l]
        assert len([l for l in text.splitlines() if "W " in l and "GHz" in l]) == 9

    def test_slowdown_table_two_rows_per_algorithm(self, result):
        text = render_slowdown_table(result, size=16)
        assert sum(1 for l in text.splitlines() if "Tratio" in l) == 2
        assert sum(1 for l in text.splitlines() if "Fratio" in l) == 2

    def test_pratio_header_row(self, result):
        text = render_slowdown_table(result, size=16)
        pr = next(l for l in text.splitlines() if "Pratio" in l)
        assert "1.0X" in pr and "3.0X" in pr
