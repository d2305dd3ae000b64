"""Tests for the declarative scenario layer (repro.spec)."""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.campaign.cache import CACHE_VERSION, config_key
from repro.core.experiment import ExperimentConfig
from repro.errors import ConfigurationError
from repro.spec import (
    ScenarioSpec,
    canonical_experiment_dict,
    derive_cell_seed,
)


class TestConstruction:
    def test_for_experiment_matches_direct_config(self):
        spec = ScenarioSpec.for_experiment(
            "_202_jess", collector="SemiSpace", heap_mb=32,
            input_scale=0.2,
        )
        assert len(spec.cells()) == 1
        config = spec.experiment_config()
        assert config == ExperimentConfig(
            benchmark="_202_jess", collector="SemiSpace", heap_mb=32,
            input_scale=0.2,
        )

    def test_scalars_normalize_to_tuples(self):
        spec = ScenarioSpec(benchmarks="_202_jess", heap_mbs=48,
                            vms="jikes")
        assert spec.benchmarks == ("_202_jess",)
        assert spec.heap_mbs == (48,)

    def test_default_and_none_sentinels(self):
        spec = ScenarioSpec(
            benchmarks=("_202_jess",),
            collectors=("default",),
            dvfs_freq_scales=("none",),
        )
        assert spec.collectors == (None,)
        assert spec.dvfs_freq_scales == (None,)

    def test_non_number_dvfs_point_is_malformed(self):
        with pytest.raises(ConfigurationError,
                           match=r"dvfs_freq_scales has a malformed"):
            ScenarioSpec(benchmarks=("_202_jess",),
                         dvfs_freq_scales=("fast",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            ScenarioSpec(benchmarks=())

    def test_unknown_version_rejected(self):
        with pytest.raises(ConfigurationError, match="version"):
            ScenarioSpec(benchmarks=("_202_jess",), version=7)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError, match="warp_factor"):
            ScenarioSpec(benchmarks=("_202_jess",),
                         overrides={"warp_factor": 9})


class TestFromDict:
    def test_sectioned_schema(self):
        spec = ScenarioSpec.from_dict({
            "name": "demo",
            "axes": {
                "benchmarks": ["_202_jess", "_209_db"],
                "collectors": ["SemiSpace", "default"],
                "heap_mbs": [32, 64],
            },
            "run": {"n_slices": 80, "warmup": False},
            "overrides": {"clock_scale": 0.5},
        })
        assert spec.name == "demo"
        assert spec.benchmarks == ("_202_jess", "_209_db")
        assert spec.collectors == ("SemiSpace", None)
        assert spec.n_slices == 80 and spec.warmup is False
        assert dict(spec.overrides) == {"clock_scale": 0.5}

    def test_flat_and_singular_spellings(self):
        spec = ScenarioSpec.from_dict({
            "benchmark": "_202_jess", "vm": "kaffe",
            "platform": "pxa255", "heap_mb": 20,
        })
        assert spec.benchmarks == ("_202_jess",)
        assert spec.vms == ("kaffe",)
        assert len(spec.cells()) == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="benchmerks"):
            ScenarioSpec.from_dict({"benchmerks": ["_202_jess"]})

    def test_singular_plus_plural_rejected(self):
        with pytest.raises(ConfigurationError, match="both"):
            ScenarioSpec.from_dict({
                "benchmark": "_202_jess",
                "benchmarks": ["_209_db"],
            })

    def test_missing_benchmarks_rejected(self):
        with pytest.raises(ConfigurationError, match="benchmark"):
            ScenarioSpec.from_dict({"vms": ["jikes"]})


class TestFromFile:
    TOML = """
name = "round-trip"
description = "ignored by the hash"

[axes]
benchmarks = ["_202_jess"]
collectors = ["SemiSpace", "GenCopy"]
heap_mbs = [32, 64]

[run]
n_slices = 80

[overrides]
clock_scale = 0.8
"""

    def _json_doc(self):
        return json.dumps({
            "name": "round-trip-json",
            "axes": {
                "benchmarks": ["_202_jess"],
                "collectors": ["SemiSpace", "GenCopy"],
                "heap_mbs": [32, 64],
            },
            "run": {"n_slices": 80},
            "overrides": {"clock_scale": 0.8},
        })

    def test_toml_json_round_trip_same_hash(self, tmp_path):
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(self.TOML)
        json_path = tmp_path / "spec.json"
        json_path.write_text(self._json_doc())
        toml_spec = ScenarioSpec.from_file(toml_path)
        json_spec = ScenarioSpec.from_file(json_path)
        # Different names/descriptions, identical identity.
        assert toml_spec.name != json_spec.name
        assert toml_spec.canonical_json() == json_spec.canonical_json()
        assert toml_spec.spec_hash() == json_spec.spec_hash()

    def test_round_trip_through_to_dict(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(self.TOML)
        spec = ScenarioSpec.from_file(path)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_invalid_toml_reports_path(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("benchmarks = [")
        with pytest.raises(ConfigurationError, match="bad.toml"):
            ScenarioSpec.from_file(path)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("benchmarks: [x]")
        with pytest.raises(ConfigurationError, match="yaml"):
            ScenarioSpec.from_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            ScenarioSpec.from_file(tmp_path / "absent.toml")


class TestHashing:
    def test_hash_is_deterministic_and_label_blind(self):
        a = ScenarioSpec(benchmarks=("_202_jess",), heap_mbs=(32, 64),
                         name="a", description="one")
        b = ScenarioSpec(benchmarks=("_202_jess",), heap_mbs=(32, 64),
                         name="b", description="two")
        assert a.spec_hash() == b.spec_hash()

    def test_hash_changes_with_identity(self):
        base = ScenarioSpec(benchmarks=("_202_jess",))
        assert base.spec_hash() != ScenarioSpec(
            benchmarks=("_209_db",)
        ).spec_hash()
        assert base.spec_hash() != ScenarioSpec(
            benchmarks=("_202_jess",), overrides={"clock_scale": 0.5}
        ).spec_hash()
        assert base.spec_hash() != ScenarioSpec(
            benchmarks=("_202_jess",), version=1
        ).spec_hash()

    def test_hash_pinned_across_processes(self):
        """Golden value: canonical JSON (and so the hash) must never
        drift accidentally — it feeds campaign reports and caching."""
        spec = ScenarioSpec(
            benchmarks=("_202_jess",), collectors=("SemiSpace",),
            heap_mbs=(32,), input_scales=(0.2,),
        )
        assert spec.spec_hash() == hashlib.sha256(
            spec.canonical_json().encode()
        ).hexdigest()
        assert spec.spec_hash() == (
            "adcd0142be72a31bde14fa14421dba39"
            "c62bdde39a0ac266515206a92a09aff0"
        )


class TestValidation:
    def test_valid_spec_has_no_problems(self):
        spec = ScenarioSpec(benchmarks=("_202_jess",),
                            collectors=("SemiSpace",))
        assert spec.problems() == []
        assert spec.validate() is spec

    def test_unknown_components_reported_together(self):
        spec = ScenarioSpec(
            benchmarks=("nope",), vms=("hotspot",),
            platforms=("arm64",), collectors=("ZGC",),
        )
        problems = " ".join(spec.problems())
        assert "nope" in problems
        assert "hotspot" in problems
        assert "arm64" in problems
        assert "ZGC" in problems
        with pytest.raises(ConfigurationError, match="hotspot"):
            spec.validate()

    def test_collector_vm_mismatch(self):
        spec = ScenarioSpec(benchmarks=("_202_jess",), vms=("kaffe",),
                            collectors=("GenMS",))
        assert any("GenMS" in p for p in spec.problems())

    def test_range_problems(self):
        spec = ScenarioSpec(
            benchmarks=("_202_jess",), heap_mbs=(-4,), seeds=(-1,),
            input_scales=(0.5,), dvfs_freq_scales=(2.0,),
        )
        problems = " ".join(spec.problems())
        assert "heap_mb" in problems
        assert "seed" in problems
        assert "dvfs" in problems

    def test_experiment_config_requires_single_cell(self):
        spec = ScenarioSpec(benchmarks=("_202_jess", "_209_db"))
        with pytest.raises(ConfigurationError, match="2 cells"):
            spec.experiment_config()


class TestGridIntegration:
    def test_cells_skip_unsupported_pairs(self):
        spec = ScenarioSpec(
            benchmarks=("_202_jess",), vms=("jikes", "kaffe"),
            collectors=("SemiSpace", "KaffeGC"),
        )
        cells = spec.cells()
        pairs = {(c.vm, c.collector) for c in cells}
        assert pairs == {("jikes", "SemiSpace"), ("kaffe", "KaffeGC")}

    def test_new_axes_expand(self):
        spec = ScenarioSpec(
            benchmarks=("_202_jess",),
            input_scales=(0.2, 1.0),
            daq_periods_s=(40e-6, 200e-6),
        )
        cells = spec.cells()
        assert len(cells) == 4
        assert {(c.input_scale, c.daq_period_s) for c in cells} == {
            (0.2, 40e-6), (0.2, 200e-6), (1.0, 40e-6), (1.0, 200e-6),
        }

    def test_spec_version_flows_to_campaign(self):
        for version in (1, 2):
            (cell,) = ScenarioSpec(
                benchmarks=("_202_jess",), input_scales=(0.2,),
                derive_seeds=True, version=version,
            ).cells()
            assert cell.seed == derive_cell_seed(
                42, "_202_jess", "jikes", "p6", None, 64,
                input_scale=0.2, spec_version=version,
            )
        # The two derivations differ: v2 hashes the input scale.
        assert derive_cell_seed(
            42, "_202_jess", "jikes", "p6", None, 64,
            input_scale=0.2, spec_version=1,
        ) != derive_cell_seed(
            42, "_202_jess", "jikes", "p6", None, 64,
            input_scale=0.2, spec_version=2,
        )


class TestSeedDerivation:
    def test_v1_reproduces_historical_identity(self):
        """The pre-spec hash covered exactly these six fields."""
        parts = "|".join(["42", "_202_jess", "jikes", "p6",
                          "SemiSpace", "32"])
        expected = int.from_bytes(
            hashlib.sha256(parts.encode()).digest()[:4], "big"
        )
        got = derive_cell_seed(42, "_202_jess", "jikes", "p6",
                               "SemiSpace", 32)
        assert got == expected
        # v1 is blind to the new axes — by design, for cache stability.
        assert derive_cell_seed(
            42, "_202_jess", "jikes", "p6", "SemiSpace", 32,
            input_scale=0.2, spec_version=1,
        ) == expected

    def test_v2_hashes_full_cell_identity(self):
        base = dict(base_seed=42, benchmark="_202_jess", vm="jikes",
                    platform="p6", collector="SemiSpace", heap_mb=32)

        def seed(**kw):
            merged = {**base, **kw}
            return derive_cell_seed(
                merged.pop("base_seed"), merged.pop("benchmark"),
                merged.pop("vm"), merged.pop("platform"),
                merged.pop("collector"), merged.pop("heap_mb"),
                spec_version=2, **merged,
            )

        assert seed() != seed(input_scale=0.2)
        assert seed() != seed(daq_period_s=200e-6)
        assert seed() != seed(dvfs_freq_scale=0.5)
        assert seed() != seed(overrides=(("clock_scale", 0.5),))
        assert seed() == seed()


class TestCacheKeyCompatibility:
    def test_unchanged_configs_keep_historical_keys(self):
        """The cache key for a config not using any post-v1 field must
        equal the key the pre-refactor code (a plain asdict) produced."""
        from repro import __version__

        config = ExperimentConfig(benchmark="_202_jess",
                                  collector="SemiSpace", heap_mb=32)
        # The pre-refactor asdict had none of the post-v1 fields
        # (overrides, hpm_period_s, hpm_rotation), so the legacy
        # reconstruction excludes all of them.
        legacy_config_dict = {
            k: v for k, v in asdict(config).items()
            if k not in ("overrides", "hpm_period_s", "hpm_rotation")
        }
        legacy_payload = {
            "config": legacy_config_dict,
            "repro_version": __version__,
            "cache_version": CACHE_VERSION,
        }
        legacy_key = hashlib.sha256(
            json.dumps(legacy_payload, sort_keys=True,
                       default=str).encode("utf-8")
        ).hexdigest()
        assert config_key(config) == legacy_key

    def test_overrides_change_the_key(self):
        plain = ExperimentConfig(benchmark="_202_jess")
        overridden = ExperimentConfig(
            benchmark="_202_jess", overrides={"clock_scale": 0.5}
        )
        assert config_key(plain) != config_key(overridden)
        assert "overrides" not in canonical_experiment_dict(plain)
        assert "overrides" in canonical_experiment_dict(overridden)


class TestConfigValidation:
    """New ExperimentConfig range checks (satellite a)."""

    def test_n_slices_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="n_slices"):
            ExperimentConfig(benchmark="_202_jess", n_slices=0)

    def test_daq_period_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="daq_period"):
            ExperimentConfig(benchmark="_202_jess", daq_period_s=0.0)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentConfig(benchmark="_202_jess", seed=-1)


class TestCollectAndReport:
    """Spec validation gathers every problem in one pass instead of
    failing at the first (satellite: collect-and-report)."""

    def test_from_dict_reports_all_problems_at_once(self):
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec.from_dict({
                "benchmerks": ["_202_jess"],
                "benchmark": "_202_jess",
                "benchmarks": ["_209_db"],
                "heap_mb": 32,
                "heap_mbs": [64],
            })
        problems = excinfo.value.problems
        assert len(problems) == 3
        joined = " ".join(problems)
        assert "benchmerks" in joined          # unknown key
        assert "benchmark" in joined           # singular+plural clash
        assert "heap_mb" in joined             # second clash, same pass

    def test_post_init_collects_axis_and_override_problems(self):
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec(
                benchmarks=("_202_jess",),
                heap_mbs=("not-a-number",),
                overrides={"warp_factor": 9, "clock_scale": 99.0},
                version=7,
            )
        joined = " ".join(excinfo.value.problems)
        assert "heap_mbs" in joined
        assert "warp_factor" in joined
        assert "clock_scale" in joined
        assert "version" in joined
        assert len(excinfo.value.problems) == 4

    def test_validate_reports_all_semantic_problems(self):
        from repro.errors import SpecValidationError

        spec = ScenarioSpec(
            benchmarks=("nope",),
            vms=("alien",),
            heap_mbs=(-4,),
        )
        with pytest.raises(SpecValidationError) as excinfo:
            spec.validate()
        problems = excinfo.value.problems
        assert problems == spec.problems()
        assert len(problems) >= 3

    def test_heap_below_vm_reservation_is_a_problem(self):
        # Jikes reserves 6 MB of the heap, Kaffe 2 MB: a 4 MB heap
        # leaves Jikes nothing and Kaffe just enough.
        spec = ScenarioSpec(benchmarks=("_202_jess",), heap_mbs=(4,),
                            vms=("jikes", "kaffe"))
        assert spec.problems() == [
            "vm 'jikes': heap of 4 MB leaves no room after the VM's "
            "6 MB reservation"
        ]
        kaffe = ScenarioSpec(benchmarks=("_202_jess",), heap_mbs=(4,),
                             vms=("kaffe",))
        assert kaffe.problems() == []

    def test_validation_error_is_configuration_error(self):
        from repro.errors import SpecValidationError

        assert issubclass(SpecValidationError, ConfigurationError)
        err = SpecValidationError(["a", "b"], context="spec.toml")
        assert err.problems == ["a", "b"]
        assert "spec.toml" in str(err)
        assert "a; b" in str(err)

    def test_from_bytes_sniffs_json_and_toml(self):
        as_json = b'{"benchmark": "_202_jess", "heap_mb": 32}'
        as_toml = b'benchmark = "_202_jess"\nheap_mb = 32\n'
        spec_j = ScenarioSpec.from_bytes(as_json)
        spec_t = ScenarioSpec.from_bytes(as_toml)
        assert spec_j.spec_hash() == spec_t.spec_hash()

    def test_from_bytes_parse_error(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            ScenarioSpec.from_bytes(b"{not json", fmt="json")

    def test_cli_spec_validate_prints_each_problem(self, tmp_path,
                                                   capsys):
        from repro.cli import main

        bad = tmp_path / "bad.toml"
        bad.write_text(
            '[axes]\nbenchmark = "nope"\nvms = ["alien"]\n'
            'heap_mb = -4\n'
        )
        assert main(["spec", "validate", str(bad)]) == 1
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if "INVALID" in l]
        assert len(lines) == 3
        assert all(str(bad) in l for l in lines)

    def test_cli_spec_validate_rejects_heap_below_reservation(
            self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "small-heap.toml"
        bad.write_text('[axes]\nbenchmark = "_202_jess"\nheap_mb = 4\n')
        assert main(["spec", "validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "ok" not in captured.out
        assert f"{bad}: INVALID vm 'jikes': heap of 4 MB" in captured.err

    def test_cli_spec_validate_rejects_sentinel_on_numeric_axis(
            self, tmp_path, capsys):
        # "default"/"none" mean something only on the collector, DVFS
        # and HPM axes; on a numeric axis they are malformed values.
        from repro.cli import main

        bad = tmp_path / "sentinels.toml"
        bad.write_text(
            '[axes]\nbenchmark = "_202_jess"\nheap_mb = "none"\n'
            'daq_period_s = "default"\ninput_scale = "default"\n'
        )
        assert main(["spec", "validate", str(bad)]) == 1
        err = capsys.readouterr().err
        for axis, value in (("heap_mbs", "none"),
                            ("daq_periods_s", "default"),
                            ("input_scales", "default")):
            assert (f"{bad}: INVALID {axis} has a malformed value in "
                    f"('{value}',)") in err
