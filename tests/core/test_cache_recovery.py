"""Torn-file recovery: truncated JSON caches recover instead of raising."""

import json

import pytest

from repro.core.profiles import ProfileCache


class TestProfileCacheRecovery:
    def test_truncated_file_starts_empty_with_sidecar(self, tmp_path):
        path = tmp_path / "profiles.json"
        warm = ProfileCache(path)
        warm.put("threshold", 12, {"flops": 1.0})
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn mid-record

        cache = ProfileCache(path)
        assert len(cache) == 0
        assert (tmp_path / "profiles.json.corrupt").exists()
        assert not path.exists()  # damage moved aside, not reparsed forever

    def test_recovered_cache_is_usable_and_persists(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text('{"format": "repro-profile-cache", "version')
        cache = ProfileCache(path)
        cache.put("threshold", 12, {"flops": 2.0})
        assert ProfileCache(path).get("threshold", 12) == {"flops": 2.0}

    def test_intact_wrong_format_file_still_raises(self, tmp_path):
        # An intact file of the wrong format must not be destroyed.
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"format": "something-else", "entries": {}}))
        with pytest.raises(ValueError, match="not a profile cache"):
            ProfileCache(path)
        assert path.exists()

    def test_too_new_version_still_raises(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({
            "format": ProfileCache.FORMAT,
            "version": ProfileCache.VERSION + 1,
            "entries": {},
        }))
        with pytest.raises(ValueError, match="newer than supported"):
            ProfileCache(path)
