"""Campaign subsystem: parallel, cached experiment matrices.

The paper's results come from a *matrix* of runs (benchmarks x VMs x
platforms x heap sizes x collectors).  A
:class:`~repro.spec.ScenarioSpec` describes that matrix and expands it
into :class:`~repro.core.experiment.ExperimentConfig` cells
(:meth:`~repro.spec.ScenarioSpec.cells`); this package executes the
cells on a process pool with per-cell timeout, bounded retry and
graceful degradation, and memoizes each cell's summary in a
content-addressed on-disk cache so repeated figure/benchmark runs only
pay for new cells.

Quickstart::

    from repro.campaign import CampaignRunner, ResultCache
    from repro.spec import ScenarioSpec

    spec = ScenarioSpec(
        benchmarks=("_202_jess", "_209_db"),
        collectors=("SemiSpace", "GenCopy"),
        heap_mbs=(32, 64),
    )
    runner = CampaignRunner(workers=4, cache=ResultCache(".repro-cache"))
    result = runner.run(spec.cells())
    print(result.summary.describe())
"""

from repro.campaign.artifacts import ArtifactStore, sim_key
from repro.campaign.cache import ResultCache, config_key
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    CampaignSummary,
    CellResult,
)

__all__ = [
    "ArtifactStore",
    "CampaignResult",
    "CampaignRunner",
    "CampaignSummary",
    "CellResult",
    "ResultCache",
    "config_key",
    "sim_key",
]
