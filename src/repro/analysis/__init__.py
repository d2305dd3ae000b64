"""Offline analyses over recorded executions.

Each module corresponds to a family of results:

* :mod:`repro.analysis.edp` — energy-delay-product sweeps (Figures 7, 10)
  and the Section VI-B comparisons,
* :mod:`repro.analysis.thermal` — the Figure 1 thermal-emergency
  experiment,
* :mod:`repro.analysis.pauses` — GC pause statistics and minimum
  mutator utilization (MMU) curves,
* :mod:`repro.analysis.timeseries` — power over time and the GC power
  dip,
* :mod:`repro.analysis.figures` — sparklines for power and live-set
  series,
* :mod:`repro.analysis.uncertainty` — bootstrap confidence intervals
  over one recorded execution,
* :mod:`repro.analysis.validation` — measurement-vs-ground-truth error
  analysis (beyond the paper: quantifies the methodology itself).

The per-component energy, power and EDP figures of the benchmark
harness (Figures 6-11, Section VI) are computed by
``benchmarks/common.py`` over campaign cell payloads.
"""

from repro.analysis.edp import EDPSweep, edp_sweep
from repro.analysis.figures import sparkline
from repro.analysis.pauses import mmu, mmu_curve, pause_stats
from repro.analysis.thermal import thermal_replay, thermal_experiment
from repro.analysis.timeseries import bin_power, gc_power_dip

__all__ = [
    "EDPSweep",
    "bin_power",
    "edp_sweep",
    "gc_power_dip",
    "mmu",
    "mmu_curve",
    "pause_stats",
    "sparkline",
    "thermal_experiment",
    "thermal_replay",
]
