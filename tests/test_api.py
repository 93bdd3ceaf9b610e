"""repro.api: the typed advise protocol."""

import json

import pytest

import repro
from repro import api
from repro.core.runner import RunPoint


class TestAdvise:
    def test_typed_round_trip(self, tmp_path):
        advisor = api.advisor(cache=tmp_path / "ledgers.json")
        req = api.AdviseRequest(algorithm="threshold", size=12)
        resp = api.advise(req, advisor=advisor)
        assert resp.algorithm == "threshold"
        assert resp.size == 12
        assert not resp.cache_hit  # first query profiles
        again = api.advise(req, advisor=advisor)
        assert again.cache_hit
        assert again.recommended_cap_w == resp.recommended_cap_w

    def test_kwargs_convenience_form(self, tmp_path):
        advisor = api.advisor(cache=tmp_path / "ledgers.json")
        resp = api.advise(algorithm="threshold", size=12, cap_w=60.0, advisor=advisor)
        assert resp.cap_w == 60.0
        assert resp.point.cap_w == 60.0

    def test_dict_request_accepted(self, tmp_path):
        advisor = api.advisor(cache=tmp_path / "ledgers.json")
        resp = api.advise({"algorithm": "threshold", "size": 12}, advisor=advisor)
        assert resp.algorithm == "threshold"

    def test_response_serialization_round_trip(self, tmp_path):
        advisor = api.advisor(cache=tmp_path / "ledgers.json")
        resp = api.advise(api.AdviseRequest(algorithm="contour", size=12), advisor=advisor)
        doc = json.loads(json.dumps(resp.to_dict()))
        assert doc == resp.to_dict()
        assert RunPoint.from_dict(doc["point"]) == resp.point

    def test_request_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            api.AdviseRequest.from_dict({"algorithm": "contour", "size": 12, "bogus": 1})

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError, match="machine"):
            api.advise(algorithm="contour", size=12, machine="pentium")
        with pytest.raises(ValueError, match="machine"):
            api.advisor(machine="pentium")

    def test_advisor_of_another_machine_rejected(self, tmp_path):
        """The answer's machine is the one that priced it, never a label
        from the request that another machine's advisor answered."""
        skylake = api.advisor(machine="skylake", cache=tmp_path / "ledgers.json")
        with pytest.raises(ValueError, match=r"'broadwell' .*prices on 'Skylake"):
            api.advise(api.AdviseRequest("threshold", 12, cap_w=60.0), advisor=skylake)
        resp = api.advise(
            api.AdviseRequest("threshold", 12, cap_w=60.0, machine="skylake"), advisor=skylake
        )
        assert resp.machine == "skylake"


class TestTopLevelExports:
    def test_facade_reexported_from_package_root(self):
        """``repro.api`` is the advise protocol, and the package root
        re-exports it; a study runs through ``repro.core`` directly."""
        assert api.__all__ == ["AdviseRequest", "AdviseResponse", "advise", "advisor"]
        assert repro.__all__ == [
            "__version__",
            "AccessPattern",
            "InstructionMix",
            "WorkProfile",
            "WorkSegment",
            "api",
            "advise",
            "AdviseRequest",
            "AdviseResponse",
        ]
        for name in ("advise", "AdviseRequest", "AdviseResponse"):
            assert getattr(repro, name) is getattr(api, name)
