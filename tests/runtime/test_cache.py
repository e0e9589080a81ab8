"""Tests for repro.runtime.cache — canonical keys and the on-disk store."""

import json

import numpy as np
import pytest

from repro.core.parameters import AHSParameters
from repro.core.partasks import AnalyticalCurveTask, UnsafetySimulationTask
from repro.runtime import ResultCache, cache_key, fingerprint


class TestFingerprint:
    def test_primitives_and_floats_are_exact(self):
        assert fingerprint(1) == 1
        assert fingerprint("x") == "x"
        assert fingerprint(0.1) == repr(0.1)
        assert fingerprint(None) is None

    def test_numpy_values_normalise(self):
        assert fingerprint(np.float64(0.5)) == repr(0.5)
        assert fingerprint(np.array([1.0, 2.0])) == [repr(1.0), repr(2.0)]

    def test_mappings_are_order_insensitive(self):
        assert fingerprint({"b": 1, "a": 2}) == fingerprint({"a": 2, "b": 1})

    def test_dataclasses_with_enum_keyed_dicts(self):
        params = AHSParameters(max_platoon_size=6)
        token = fingerprint(params)
        assert token["__dataclass__"] == "AHSParameters"
        assert token["max_platoon_size"] == 6
        # Maneuver-keyed dicts become sorted string-keyed dicts
        assert all(isinstance(k, str) for k in token["maneuver_rates"])

    def test_unfingerprintable_type_raises(self):
        with pytest.raises(TypeError):
            fingerprint(object())


class TestCacheKey:
    def test_key_is_stable_across_equal_tokens(self):
        task_a = UnsafetySimulationTask(
            params=AHSParameters(max_platoon_size=6), times=(2.0, 6.0)
        )
        task_b = UnsafetySimulationTask(
            params=AHSParameters(max_platoon_size=6), times=(2.0, 6.0)
        )
        assert cache_key(task_a.cache_token()) == cache_key(task_b.cache_token())

    def test_any_parameter_change_changes_the_key(self):
        base = AnalyticalCurveTask(
            params=AHSParameters(max_platoon_size=6), times=(2.0, 6.0)
        )
        other_n = AnalyticalCurveTask(
            params=AHSParameters(max_platoon_size=8), times=(2.0, 6.0)
        )
        other_t = AnalyticalCurveTask(
            params=AHSParameters(max_platoon_size=6), times=(2.0, 10.0)
        )
        keys = {
            cache_key(base.cache_token()),
            cache_key(other_n.cache_token()),
            cache_key(other_t.cache_token()),
        }
        assert len(keys) == 3

    def test_engine_is_part_of_the_key(self):
        params = AHSParameters(max_platoon_size=6)
        sim = UnsafetySimulationTask(params=params, times=(2.0,))
        ana = AnalyticalCurveTask(params=params, times=(2.0,))
        assert cache_key(sim.cache_token()) != cache_key(ana.cache_token())


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 1})
        assert cache.get(key) is None
        cache.put(key, {"values": [1.0, 2.0]})
        assert cache.get(key) == {"values": [1.0, 2.0]}
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.puts == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_entries_are_sharded_json_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 2})
        path = cache.put(key, {"v": 1})
        assert path.parent.name == key[:2]
        record = json.loads(path.read_text())
        assert record["key"] == key
        assert record["payload"] == {"v": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 3})
        path = cache.put(key, {"v": 1})
        path.write_text("{not json")
        assert cache.get(key) is None
        assert cache.last_miss == "corrupt"

    def test_absent_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(cache_key({"x": 4})) is None
        assert cache.last_miss == "absent"

    def test_copied_entry_is_a_key_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        stored, wanted = cache_key({"x": 5}), cache_key({"x": 6})
        source = cache.put(stored, {"v": 1})
        target = tmp_path / wanted[:2] / f"{wanted}.json"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source.read_text())
        assert cache.get(wanted) is None
        assert cache.last_miss == "key-mismatch"
        assert (cache.hits, cache.misses) == (0, 1)

    @pytest.mark.parametrize(
        "record",
        [
            lambda key: {"key": key, "version": "1.0.0"},  # no payload
            lambda key: {"key": key, "payload": [1, 2]},  # payload not an object
            lambda key: [key, {"v": 1}],  # valid JSON, not an object
            lambda key: "a string",
        ],
        ids=["no-payload", "list-payload", "list-record", "string-record"],
    )
    def test_record_without_an_object_payload_is_a_miss(self, tmp_path, record):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 7})
        path = cache.put(key, {"v": 1})
        path.write_text(json.dumps(record(key)))
        assert cache.get(key) is None
        assert cache.last_miss == "corrupt"
        assert (cache.hits, cache.misses) == (0, 1)

    def test_undecodable_payload_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key({"x": 8})
        cache.put(key, {"v": 1})
        assert cache.get(key, decode=lambda payload: payload["n"]) is None
        assert cache.last_miss == "corrupt"
        assert cache.get(key, decode=lambda payload: payload["v"] + 1) == 2
        assert cache.last_miss is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_rate_with_no_lookups(self, tmp_path):
        assert ResultCache(tmp_path).hit_rate == 0.0
