"""Conformance of the three store kinds to the one store core.

:class:`~repro.campaign.cache.ResultCache`,
:class:`~repro.campaign.artifacts.ArtifactStore` and
:class:`~repro.serve.store.ResultStore` share the on-disk format of
:mod:`repro.content_store`; every test here runs once per kind and
covers the surface the three used to implement differently — the
orphan sweep set, ``clear()``, hit/miss counters, ``stats()`` keys —
plus key validation.  Behaviour each per-store suite already checks
(LRU order, stale pruning, corrupt-entry eviction) is not repeated.
"""

import os
import time

import pytest

from repro.campaign.artifacts import ArtifactStore, sim_key
from repro.campaign.cache import ResultCache, config_key
from repro.core.experiment import Experiment, ExperimentConfig
from repro.provenance import (
    build_envelope,
    envelope_path,
    replay_store_entry,
)
from repro.serve.store import ResultStore

CONFIG = ExperimentConfig(
    "_202_jess", vm="jikes", platform="p6", collector="SemiSpace",
    heap_mb=24, seed=99, input_scale=0.1, n_slices=40,
)

KINDS = ("cell", "artifact", "result")

#: Strings that are not store keys: traversal, non-hex, uppercase,
#: wrong length, empty.
BAD_KEYS = ("../x/leak", "zz", "AB" * 32, "ab" * 31, "ab" * 33, "")


@pytest.fixture(scope="module")
def artifact():
    return Experiment(CONFIG).simulate().artifact()


class Kind:
    """One store kind behind a common test surface: ``write()`` puts
    the kind's one canonical entry and returns its key, ``read()``
    looks it up through the kind's own entry point."""

    def __init__(self, name, root, artifact):
        self.name = name
        self.suffix = ".json" if name == "result" else ".pkl.gz"
        if name == "cell":
            self.store = ResultCache(root)
            self.key = config_key(CONFIG)
            self.payload = {"schema": "repro-cell-v1", "n": 1}
        elif name == "artifact":
            self.store = ArtifactStore(root)
            self.key = sim_key(CONFIG)
            self.payload = artifact
        else:
            self.store = ResultStore(root)
            self.key = "ab" * 32
            self.payload = b'{"n": 1}'

    def write(self):
        if self.name == "result":
            self.store.put_bytes(self.key, self.payload,
                                 envelope=build_envelope("result",
                                                         self.key))
            return self.store.path_for(self.key)
        self.store.put(CONFIG, self.payload)
        return self.store.path_for(CONFIG)

    def read(self):
        if self.name == "result":
            return self.store.get_bytes(self.key)
        return self.store.get(CONFIG)


@pytest.fixture(params=KINDS)
def kind(request, tmp_path, artifact):
    return Kind(request.param, tmp_path / "store", artifact)


def aged(path, seconds=7200.0):
    past = time.time() - seconds
    os.utime(path, (past, past))
    return path


class TestSurface:
    def test_stats_keys_agree(self, kind):
        kind.write()
        stats = kind.store.stats()
        assert set(stats) == {
            "root", "shards", "entries", "total_bytes",
            "oldest_mtime", "newest_mtime",
        }
        assert stats["shards"] == 1
        assert stats["entries"] == 1

    def test_hit_miss_counters(self, kind):
        assert kind.read() is None
        kind.write()
        assert kind.read() is not None
        assert (kind.store.hits, kind.store.misses) == (1, 1)
        assert kind.store.hit_rate == 0.5
        assert kind.store.stale_evictions == 0

    def test_clear_removes_entries_and_envelopes(self, kind):
        entry = kind.write()
        sidecar = envelope_path(entry)
        assert sidecar.exists()
        assert kind.store.clear() == 1
        assert len(kind.store) == 0
        assert not entry.exists()
        assert not sidecar.exists()
        assert kind.store.clear() == 0


class TestOrphanPolicy:
    """Every root sweeps the same set: aged ``*.tmp`` and ``*.lease``
    always, aged ``*.spans`` and ``*.prov`` only once their entry is
    gone; anything young may be live and stays."""

    def test_sweep_set(self, kind):
        entry = kind.write()
        here = entry.parent
        suffix = kind.suffix

        def files(*names):
            for name in names:
                (here / name).write_bytes(b"x")
            return [here / name for name in names]

        gone, young = "cd" * 32, "ef" * 32
        doomed = [aged(p) for p in files(
            "crashed-writer.tmp", f"{gone}.lease", f"{gone}.spans",
            f"{gone}{suffix}.prov",
        )]
        kept = files(
            "live-writer.tmp", f"{young}.lease", f"{young}.spans",
            f"{young}{suffix}.prov",
        ) + [aged(p) for p in files(f"{kind.key}.spans")]
        kept.append(aged(envelope_path(entry)))
        removed, _ = kind.store.prune(10_000_000, orphan_age_s=3600.0)
        assert removed == 0
        assert [p.name for p in doomed if p.exists()] == []
        assert [p.name for p in kept if not p.exists()] == []
        assert entry.exists()

    def test_lru_eviction_strands_then_sweeps_sidecars(self, kind):
        entry = kind.write()
        spool = entry.parent / f"{kind.key}.spans"
        spool.write_bytes(b"x")
        aged(spool)
        removed, _ = kind.store.prune(0, orphan_age_s=3600.0)
        assert removed == 1
        assert not envelope_path(entry).exists()
        assert not spool.exists()


class TestKeyValidation:
    """A string that is not a key never becomes a path: reads miss,
    writes raise, and nothing outside the root is read or touched."""

    def test_reads_miss_without_touching_disk(self, kind, tmp_path):
        kind.store.root.mkdir(parents=True)
        # <root>/<key[:2]>/<key><suffix> for "../x/leak" lands two
        # levels above the root.
        outside = tmp_path / "x" / f"leak{kind.suffix}"
        outside.parent.mkdir()
        outside.write_bytes(b"outside")
        os.utime(outside, (1_000_000, 1_000_000))
        for bad in BAD_KEYS:
            assert kind.store.get_key(bad) is None
        assert kind.store.misses == len(BAD_KEYS)
        assert outside.read_bytes() == b"outside"
        assert outside.stat().st_mtime == 1_000_000

    def test_writes_raise(self, kind):
        for bad in BAD_KEYS:
            with pytest.raises(ValueError):
                kind.store.put_key(bad, kind.payload)
            with pytest.raises(ValueError):
                kind.store.path_for_key(bad)
        assert not kind.store.root.exists()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_result_store_entry_points(self, tmp_path, shards):
        store = ResultStore(tmp_path / "results", shards=shards)
        store.root.mkdir(parents=True)
        for bad in BAD_KEYS:
            assert store.get_bytes(bad) is None
            assert store.get_json(bad) is None
            assert store.envelope_for(bad) is None
            assert bad not in store
            with pytest.raises(ValueError):
                store.put_bytes(bad, b"{}")
            report = replay_store_entry(store, bad)
            assert report.reason == "no stored result under this key"
        assert list(store.root.iterdir()) == []
