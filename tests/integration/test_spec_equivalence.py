"""Golden equivalence: the CLI flag path and a spec file must drive the
exact same simulation.

The flag path builds a single-cell :class:`ScenarioSpec`
(:meth:`ScenarioSpec.for_experiment`) and a spec file parses into one
(:meth:`ScenarioSpec.from_file`); both resolve to an
:class:`ExperimentConfig` through the same grid expansion.  These tests
assert the strongest form of that claim — byte-identical exported JSON
for the resulting :class:`ExperimentResult` — on one cell per
platform/VM family.
"""

import pytest

from repro.core.experiment import Experiment
from repro.export import result_to_json
from repro.spec import ScenarioSpec

CELLS = {
    "p6-jikes": {
        "flags": dict(benchmark="_202_jess", vm="jikes", platform="p6",
                      collector="SemiSpace", heap_mb=32,
                      input_scale=0.2),
        "toml": """
            [axes]
            benchmark = "_202_jess"
            vm = "jikes"
            platform = "p6"
            collector = "SemiSpace"
            heap_mb = 32
            input_scale = 0.2
        """,
    },
    "pxa255-kaffe": {
        "flags": dict(benchmark="_209_db", vm="kaffe",
                      platform="pxa255", collector=None, heap_mb=20,
                      input_scale=0.2),
        "toml": """
            [axes]
            benchmark = "_209_db"
            vm = "kaffe"
            platform = "pxa255"
            collector = "default"
            heap_mb = 20
            input_scale = 0.2
        """,
    },
}


def _export_bytes(config, path):
    result = Experiment(config).run()
    return result_to_json(result, path).read_bytes()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_flag_and_spec_paths_export_identical_bytes(cell, tmp_path):
    flags = CELLS[cell]["flags"]
    spec_path = tmp_path / f"{cell}.toml"
    spec_path.write_text(CELLS[cell]["toml"])

    flag_config = ScenarioSpec.for_experiment(**flags).experiment_config()
    file_spec = ScenarioSpec.from_file(spec_path).validate()
    spec_config = file_spec.experiment_config()

    assert flag_config == spec_config
    flag_bytes = _export_bytes(flag_config, tmp_path / "flag.json")
    spec_bytes = _export_bytes(spec_config, tmp_path / "spec.json")
    assert flag_bytes == spec_bytes


def test_single_cell_spec_equals_one_cell_campaign():
    """A single-cell spec's experiment_config is literally a one-cell
    campaign expansion, so run/campaign agree on what a cell is."""
    spec = ScenarioSpec.for_experiment("_202_jess", heap_mb=32,
                                       input_scale=0.2)
    assert spec.cells() == [spec.experiment_config()]
