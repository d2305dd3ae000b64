"""Tests for the capability-aware component registries."""

import pytest

from repro import registry
from repro.errors import ConfigurationError
from repro.registry import Registry, RegistryEntry


class TestRegistryBasics:
    def test_register_and_get(self):
        reg = Registry("widget")
        reg.register("alpha", object, description="first")
        entry = reg.get("alpha")
        assert isinstance(entry, RegistryEntry)
        assert entry.name == "alpha"
        assert entry.obj is object
        assert entry.kind == "widget"
        assert entry.describe() == "first"

    def test_lookup_is_case_insensitive(self):
        reg = Registry("widget")
        reg.register("Alpha", object)
        assert reg.get("ALPHA").name == "Alpha"
        assert "alpha" in reg

    def test_aliases_resolve_to_canonical_entry(self):
        reg = Registry("widget")
        reg.register("alpha", object, aliases=("a", "first"))
        assert reg.get("a") is reg.get("alpha")
        assert reg.get("FIRST").name == "alpha"
        assert "a" in reg
        # Aliases are not canonical names.
        assert reg.names() == ["alpha"]

    def test_unknown_name_lists_known_ones(self):
        reg = Registry("widget")
        reg.register("alpha", object)
        with pytest.raises(ConfigurationError, match="alpha"):
            reg.get("beta")

    def test_duplicate_name_rejected_unless_replace(self):
        reg = Registry("widget")
        reg.register("alpha", object)
        with pytest.raises(ConfigurationError, match="already"):
            reg.register("alpha", int)
        reg.register("alpha", int, replace=True)
        assert reg.get("alpha").obj is int

    def test_duplicate_alias_rejected(self):
        reg = Registry("widget")
        reg.register("alpha", object, aliases=("a",))
        with pytest.raises(ConfigurationError, match="already"):
            reg.register("beta", int, aliases=("a",))

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("alpha", description="decorated")
        class Alpha:
            pass

        assert reg.get("alpha").obj is Alpha
        assert reg.get("alpha").describe() == "decorated"

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("alpha", object, aliases=("a",))
        reg.unregister("alpha")
        assert "alpha" not in reg
        assert "a" not in reg
        assert len(reg) == 0

    def test_create_instantiates(self):
        reg = Registry("widget")
        reg.register("d", dict)
        assert reg.create("d", x=1) == {"x": 1}

    def test_entries_preserve_registration_order(self):
        reg = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            reg.register(name, object)
        assert [e.name for e in reg.entries()] == ["zeta", "alpha", "mid"]
        assert reg.names() == ["alpha", "mid", "zeta"]

    def test_query_scalar_and_containment(self):
        reg = Registry("widget")
        reg.register("a", object, color="red", sizes=("s", "m"))
        reg.register("b", object, color="blue", sizes=("m", "l"))
        assert [e.name for e in reg.query(color="red")] == ["a"]
        assert [e.name for e in reg.query(sizes="m")] == ["a", "b"]
        assert [e.name for e in reg.query(sizes="l", color="blue")] == ["b"]
        assert reg.query(color="green") == []


class TestComponentRegistries:
    """The real registries, populated by their provider modules."""

    def test_platforms_registered(self):
        assert registry.PLATFORMS.names() == ["p6", "pxa255"]
        assert registry.PLATFORMS.get("pentium-m").name == "p6"
        assert registry.PLATFORMS.get("xscale").name == "pxa255"

    def test_vms_registered_including_extensions(self):
        names = registry.VMS.names()
        assert "jikes" in names and "kaffe" in names
        assert "thermal-aware" in names and "adaptive-heap" in names

    def test_collectors_registered(self):
        assert set(registry.COLLECTORS.names()) == {
            "SemiSpace", "MarkSweep", "GenCopy", "GenMS", "KaffeGC",
        }

    def test_workloads_cover_figure5(self):
        assert "_213_javac" in registry.WORKLOADS
        assert "antlr" in registry.WORKLOADS
        assert "moldyn" in registry.WORKLOADS

    def test_extensions_registered(self):
        assert set(registry.EXTENSIONS.names()) >= {
            "power-estimator", "dvfs-governor", "thermal-policy",
            "heap-sizing",
        }

    def test_collector_supported(self):
        assert registry.collector_supported("jikes", "GenMS")
        assert registry.collector_supported("kaffe", "KaffeGC")
        assert not registry.collector_supported("kaffe", "GenMS")
        assert not registry.collector_supported("jikes", "KaffeGC")
        # None means "the VM's default" and is always supported.
        assert registry.collector_supported("kaffe", None)
        assert not registry.collector_supported("hotspot", "GenMS")

    def test_vms_for_collector(self):
        vms = registry.vms_for_collector("SemiSpace")
        assert "jikes" in vms and "kaffe" not in vms

    def test_default_collector(self):
        assert registry.default_collector("jikes") == "GenCopy"
        assert registry.default_collector("kaffe") == "KaffeGC"

    def test_platform_traits(self):
        traits = registry.platform_traits("p6")
        assert traits["clock_hz"] == pytest.approx(1.6e9)
        assert traits["hpm_period_s"] == pytest.approx(1e-3)

    def test_plugin_vm_round_trip(self):
        """Third-party registration makes a VM a full citizen."""
        from repro.registry import collector_supported

        registry.register_vm(
            "test-plugin-vm", object, collectors=("SemiSpace",),
            default_collector="SemiSpace",
        )
        try:
            assert collector_supported("test-plugin-vm", "SemiSpace")
            assert not collector_supported("test-plugin-vm", "GenMS")
            assert "test-plugin-vm" in registry.vms_for_collector(
                "SemiSpace"
            )
        finally:
            registry.VMS.unregister("test-plugin-vm")
        assert "test-plugin-vm" not in registry.VMS
