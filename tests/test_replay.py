"""Tests for record/replay verification of stored results."""

import json

import pytest

from repro.provenance import (
    DRIFTED,
    IDENTICAL,
    UNREPLAYABLE,
    build_envelope,
    diff_payloads,
    replay_result,
    replay_store_entry,
    store_keys,
)
from repro.serve.pool import build_result_payload, encode_result
from repro.serve.store import ResultStore
from repro.spec import ScenarioSpec


def tiny_spec():
    return ScenarioSpec.for_experiment(
        "_202_jess", collector="SemiSpace", heap_mb=32,
        input_scale=0.2,
    )


@pytest.fixture(scope="module")
def stored():
    """One executed tiny scenario as ``(spec, bytes)`` — module-scoped
    so the replay tests pay for a single recording run."""
    from repro.campaign.runner import CampaignRunner

    spec = tiny_spec()
    result = CampaignRunner(workers=1).run(spec.cells())
    return spec, encode_result(build_result_payload(spec, result))


class TestVerdicts:
    def test_identical(self, stored):
        spec, data = stored
        report = replay_result(data, key=spec.spec_hash())
        assert report.status == IDENTICAL
        assert report.ok
        assert report.wall_s > 0
        assert "identical" in report.describe()

    def test_drifted_names_the_field(self, stored):
        spec, data = stored
        payload = json.loads(data)
        payload["cells"][0]["totals"]["cpu_energy_j"] += 1.0
        report = replay_result(
            (json.dumps(payload, sort_keys=True,
                        separators=(",", ":")) + "\n").encode()
        )
        assert report.status == DRIFTED
        assert not report.ok
        assert any("cpu_energy_j" in diff for diff in report.diffs)

    def test_unreplayable_without_spec(self, stored):
        _, data = stored
        payload = json.loads(data)
        del payload["spec"]
        report = replay_result(json.dumps(payload).encode())
        assert report.status == UNREPLAYABLE
        assert "missing spec" in report.reason

    def test_unreplayable_on_non_json(self):
        report = replay_result(b"\x00 not json")
        assert report.status == UNREPLAYABLE
        assert "not JSON" in report.reason

    def test_unreplayable_on_non_object(self):
        report = replay_result(b"[1, 2]")
        assert report.status == UNREPLAYABLE

    def test_unreplayable_when_spec_no_longer_valid(self, stored):
        _, data = stored
        payload = json.loads(data)
        payload["spec"]["axes"]["benchmarks"] = ["_999_gone"]
        report = replay_result(json.dumps(payload).encode())
        assert report.status == UNREPLAYABLE
        assert "no longer valid" in report.reason


class TestStoreReplay:
    def test_replay_fresh_store_entry_is_identical(self, stored,
                                                   tmp_path):
        spec, data = stored
        store = ResultStore(tmp_path)
        key = spec.spec_hash()
        store.put_bytes(key, data,
                        envelope=build_envelope("result", key))
        report = replay_store_entry(store, key)
        assert report.status == IDENTICAL
        assert report.key == key

    def test_missing_key_is_unreplayable(self, tmp_path):
        store = ResultStore(tmp_path)
        report = replay_store_entry(store, "ab" * 32)
        assert report.status == UNREPLAYABLE
        assert "no stored result" in report.reason

    def test_store_keys_enumerates_sharded_layouts(self, tmp_path):
        flat = ResultStore(tmp_path / "flat")
        flat.put_bytes("ab" * 32, b"{}")
        sharded = ResultStore(tmp_path / "sharded", shards=4)
        sharded.put_bytes("cd" * 32, b"{}")
        sharded.put_bytes("ef" * 32, b"{}")
        assert store_keys(flat) == ["ab" * 32]
        assert store_keys(sharded) == sorted(["cd" * 32, "ef" * 32])


class TestDiff:
    def test_scalar_drift(self):
        diffs = diff_payloads({"a": 1}, {"a": 2})
        assert diffs == ["a: stored 1 != replayed 2"]

    def test_nested_paths(self):
        diffs = diff_payloads(
            {"cells": [{"totals": {"edp_js": 1.0}}]},
            {"cells": [{"totals": {"edp_js": 2.0}}]},
        )
        assert diffs == [
            "cells[0].totals.edp_js: stored 1.0 != replayed 2.0"
        ]

    def test_missing_and_extra_keys(self):
        diffs = diff_payloads({"a": 1, "gone": 2}, {"a": 1, "new": 3})
        assert "gone: only in stored" in diffs
        assert "new: only in replay" in diffs

    def test_length_mismatch(self):
        diffs = diff_payloads({"xs": [1, 2]}, {"xs": [1]})
        assert diffs == ["xs: length 2 != 1"]

    def test_cap_is_reported(self):
        stored = {f"k{i:03d}": i for i in range(40)}
        replayed = {f"k{i:03d}": i + 1 for i in range(40)}
        diffs = diff_payloads(stored, replayed, limit=5)
        assert len(diffs) == 6
        assert "more differing field" in diffs[-1]
