"""Pinned cell identities: grid expansion must not drift.

Every cache key, sim-key, derived seed and stored result is a function
of the cells a spec expands to, in grid order.  These digests hash
``config_key`` over every cell of the shipped example scenarios, of the
flag-path spec ``repro campaign --benchmarks ...`` builds, and of a v2
spec that derives seeds over swept measurement axes — so any change to
expansion order, seed derivation or cell fields shows up here.
"""

import hashlib
from pathlib import Path

import pytest

from repro.campaign.cache import config_key
from repro.spec import ScenarioSpec

SCENARIOS = Path(__file__).resolve().parents[2] / "examples" / "scenarios"


def cells_digest(spec):
    keys = "\n".join(config_key(cell) for cell in spec.cells())
    return hashlib.sha256(keys.encode("utf-8")).hexdigest()


def flag_path_spec(derive_seeds):
    """The spec ``cmd_campaign`` builds from its flags (version 1)."""
    return ScenarioSpec(
        benchmarks=("_202_jess", "_209_db"),
        vms=("jikes", "kaffe"),
        platforms=("p6",),
        collectors=(None, "SemiSpace", "GenCopy"),
        heap_mbs=(32, 64),
        seeds=(1, 42),
        input_scales=(0.5,),
        derive_seeds=derive_seeds,
        version=1,
    )


SWEPT_V2 = ScenarioSpec(
    benchmarks=("_202_jess",),
    collectors=("SemiSpace", "GenCopy"),
    heap_mbs=(32, 48),
    daq_periods_s=(40e-6, 200e-6),
    dvfs_freq_scales=(None, 0.6),
    hpm_periods_s=(None, 2e-3),
    hpm_rotations=(None, "xscale-pairs"),
    overrides={"clock_scale": 0.8},
    derive_seeds=True,
)

EXAMPLE_DIGESTS = {
    "daq-period-sweep.toml": (
        "86b71e2a6baddf7c71b772450daa467f"
        "83390beb8e10dd1453fb1ff147b5849b"
    ),
    "heap-ladder.toml": (
        "9c1b1f869276d5151e5d0e5e20eb3740"
        "22bd65a79c44df5a4a8c3782626ef4c5"
    ),
    "kaffe-pxa255.toml": (
        "3daf015b42a9cd264a819a86b6e773c5"
        "9b35129bfa4bbca5bcda67d11276a599"
    ),
    "overhead_p6_jikes.toml": (
        "d6a176ec230801532b0fa76ffda35160"
        "3da49b0364b1d014ca1b1a4a1ff991e9"
    ),
    "overhead_pxa255_kaffe.toml": (
        "9ee3d549191b27c1d96c9eac3e3ad2a1"
        "27ca50e11c999ccc33004e2274eabf58"
    ),
    "quickstart.toml": (
        "6c01f63275848ba4c04fa335fb8da100"
        "b28a995f5cf6d093c3e7de1069cb5752"
    ),
}


def test_every_example_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.toml")) == sorted(
        EXAMPLE_DIGESTS
    )


@pytest.mark.parametrize("name", sorted(EXAMPLE_DIGESTS))
def test_example_cells(name):
    spec = ScenarioSpec.from_file(SCENARIOS / name)
    assert cells_digest(spec) == EXAMPLE_DIGESTS[name]


@pytest.mark.parametrize("derive_seeds, digest", [
    (False, "8a8a26f3e6c10d8c617e955d9baa92ee"
     "c405e00124f67abf849abad525c078e7"),
    (True, "7439b4351d025ba5ee504c2500372807"
     "3615ec41453b774a15843c0091298420"),
])
def test_flag_path_cells(derive_seeds, digest):
    assert cells_digest(flag_path_spec(derive_seeds)) == digest


def test_v2_derived_seeds_over_swept_hpm_axes():
    assert len(SWEPT_V2.cells()) == 64
    assert cells_digest(SWEPT_V2) == (
        "2b8705ffb41f257e90dc670750f5e1c1"
        "9b8353f67bead6ebd24c640191920af4"
    )
