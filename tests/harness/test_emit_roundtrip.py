"""CSV round-trips: fractional caps survive emit → parse bitwise."""

import pytest

from repro.core import StudyConfig, SweepEngine
from repro.harness import result_from_csv, result_to_csv

# 62.5 W: a cap with no exact decimal-1 representation of its repr path
# through ``%.0f`` — the regression this file guards against.
CFG = StudyConfig(
    name="frac", algorithms=("threshold",), sizes=(12,), caps_w=(120.0, 62.5, 55.25)
)


@pytest.fixture(scope="module")
def result():
    return SweepEngine(n_cycles=2, workers=0).run(CFG)


class TestFractionalCapRoundTrip:
    def test_cap_column_is_full_precision(self, result):
        text = result_to_csv(result)
        assert ",62.5," in text
        assert ",55.25," in text
        assert ",62," not in text  # the old %.0f rendering

    def test_round_trip_is_bitwise_on_caps(self, result):
        back = result_from_csv(result_to_csv(result), config_name="frac")
        assert [p.cap_w for p in back.points] == [p.cap_w for p in result.points]
        assert [p.key for p in back.points] == [p.key for p in result.points]

    def test_filter_finds_fractional_cap_after_round_trip(self, result):
        back = result_from_csv(result_to_csv(result))
        hits = back.select(cap_w=62.5)
        assert len(hits) == 1
        assert hits[0].cap_w == 62.5
        assert back.select(algorithm="threshold", cap_w=55.25)

    def test_select_tolerates_last_ulp_wobble(self, result):
        wobbled = 62.5 * (1 + 1e-12)
        assert result.select(cap_w=wobbled) == result.select(cap_w=62.5)

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "frac.csv"
        result_to_csv(result, path)
        back = result_from_csv(path)
        assert back.config_name == "frac"
        assert [p.to_dict()["cap_w"] for p in back.points] == [
            p.cap_w for p in result.points
        ]

    def test_measurement_columns_carry_emitted_precision(self, result):
        back = result_from_csv(result_to_csv(result))
        for orig, rt in zip(result.points, back.points):
            assert rt.time_s == pytest.approx(orig.time_s, abs=1e-6)
            assert rt.power_w == pytest.approx(orig.power_w, abs=1e-3)
            assert rt.tratio == pytest.approx(orig.tratio, abs=1e-4)

    def test_foreign_csv_rejected(self):
        with pytest.raises(ValueError, match="missing column"):
            result_from_csv("a,b\n1,2\n")
