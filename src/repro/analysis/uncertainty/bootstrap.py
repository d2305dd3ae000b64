"""The bootstrap engine: N measurements of one recorded execution.

The simulate/measure split makes uncertainty quantification cheap: the
expensive phase (executing the workload) runs once and is snapshotted
as a :class:`~repro.core.simulation.SimulationArtifact`; the cheap
phase (sampling the recording) replays N times under independent,
seeded realizations of the measurement-chain noise model
(:mod:`repro.measurement.noise`).  Each replicate streams through
:class:`~repro.analysis.uncertainty.distribution.OnlineStats`; the
result is an :class:`UncertaintyReport` — per-quantity
:class:`EnergyDistribution` objects with percentile CIs and, because
the artifact carries exact ground truth, per-interval coverage.

Replicate seeds are *derived*, never sequential: the same versioned
sha256 scheme as :func:`repro.campaign.grid.derive_cell_seed`, over
(base seed, replicate index, role).  Changing N never reshuffles the
seeds of existing replicates, so an N=64 report extends an N=32 one
rather than replacing it, and thread- or process-parallel replicate
execution is order-independent by construction.
"""

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.analysis.uncertainty.distribution import (
    EnergyDistribution,
    OnlineStats,
)
from repro.core.experiment import Experiment, acquire
from repro.core.simulation import MeasurementConfig
from repro.errors import ConfigurationError
from repro.jvm.components import Component
from repro.measurement.noise import DEFAULT_NOISE, NoiseConfig
from repro.measurement.prepared import Workspace

#: Version of the replicate-seed derivation.  Bump when the derivation
#: changes incompatibly; reports record the version that produced them.
REPLICATE_SEED_VERSION = 1


def derive_replicate_seed(base_seed, replicate, role="measure",
                          version=REPLICATE_SEED_VERSION):
    """Stable per-replicate seed from the replicate's identity.

    Mirrors :func:`repro.campaign.grid.derive_cell_seed`: sha256 over
    the identity parts, first four digest bytes as the seed.  The
    ``role`` part keeps independent uses of the scheme (measurement
    noise vs. any future resampling role) in disjoint streams.
    """
    if version != REPLICATE_SEED_VERSION:
        raise ConfigurationError(
            f"unknown replicate-seed version {version!r}"
        )
    if replicate < 0:
        raise ConfigurationError("replicate index must be >= 0")
    parts = [
        "uncertainty-replicate",
        f"v{version}",
        str(int(base_seed)),
        str(int(replicate)),
        str(role),
    ]
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _component_label(cid):
    """Stable human label for a component id."""
    return Component.from_port_value(int(cid)).name


@dataclass(frozen=True)
class UncertaintyReport:
    """Every energy number of one experiment, as a distribution.

    ``totals`` maps quantity name (``cpu_energy_j``, ``mem_energy_j``,
    ``total_energy_j``) to its distribution; ``components`` maps
    component labels (``GC``, ``APP``...) to the distribution of that
    component's DAQ-attributed CPU energy.  Totals carry exact ground
    truth and should be *calibrated* (a 95% interval covers truth
    ~95% of the time); component intervals quantify measurement noise
    around a systematically biased estimator, so their coverage is
    reported but expected to be lower — the gap is the sampler's
    attribution bias made visible.
    """

    n_replicates: int
    base_seed: int
    ci_level: float
    noise: NoiseConfig
    seed_version: int
    totals: dict            # name -> EnergyDistribution
    components: dict        # component label -> EnergyDistribution

    @property
    def coverage(self):
        """Fraction of truth-bearing intervals that cover their truth."""
        checked = [
            d for d in list(self.totals.values())
            + list(self.components.values())
            if d.covered is not None
        ]
        if not checked:
            return None
        return sum(1 for d in checked if d.covered) / len(checked)

    def distribution(self, name):
        """Look up a distribution by total name or component label."""
        if name in self.totals:
            return self.totals[name]
        if name in self.components:
            return self.components[name]
        raise ConfigurationError(
            f"no distribution named {name!r}; have "
            f"{sorted(self.totals)} and {sorted(self.components)}"
        )

    def as_dict(self):
        """JSON-ready form (the export schema's uncertainty section)."""
        return {
            "n_replicates": self.n_replicates,
            "base_seed": self.base_seed,
            "ci_level": self.ci_level,
            "seed_version": self.seed_version,
            "noise": self.noise.as_dict(),
            "totals": {
                name: dist.as_dict()
                for name, dist in sorted(self.totals.items())
            },
            "components": {
                name: dist.as_dict()
                for name, dist in sorted(self.components.items())
            },
        }

    def describe(self):
        """Multi-line human-readable rendering."""
        lines = [
            f"uncertainty over {self.n_replicates} replicates "
            f"(seed {self.base_seed}, "
            f"{100 * self.ci_level:.0f}% percentile CI)"
        ]
        for name in ("cpu_energy_j", "mem_energy_j", "total_energy_j"):
            if name in self.totals:
                lines.append(
                    f"  {name}: {self.totals[name].describe()}"
                )
        for name, dist in sorted(self.components.items()):
            lines.append(f"  {name}: {dist.describe()}")
        cov = self.coverage
        if cov is not None:
            lines.append(f"  truth coverage: {100 * cov:.0f}%")
        return "\n".join(lines)


class BootstrapEngine:
    """Replays the measurement phase N times over one simulation.

    ``measurement`` fixes the observation knobs (DAQ/HPM periods,
    rotation) shared by every replicate; only the per-replicate
    ``measurement_seed`` differs, derived from ``config.seed`` by
    :func:`derive_replicate_seed`.  The engine never simulates: it
    accepts a finished :class:`SimulationResult` or
    :class:`SimulationArtifact` and runs pure sampler passes, so N=32
    costs 32 measurement passes and zero workload executions.
    """

    def __init__(self, config, noise=DEFAULT_NOISE, replicates=32,
                 ci_level=0.95, measurement=None, obs=None):
        if replicates < 2:
            raise ConfigurationError(
                "bootstrap needs at least 2 replicates"
            )
        if not (0.0 < ci_level < 1.0):
            raise ConfigurationError("ci_level must be in (0, 1)")
        if not isinstance(noise, NoiseConfig):
            raise ConfigurationError(
                f"noise must be a NoiseConfig, got "
                f"{type(noise).__name__}"
            )
        if not noise.enabled:
            raise ConfigurationError(
                "the noise model disables every error source; a "
                "bootstrap over it would produce N identical "
                "replicates and a zero-width interval"
            )
        self.config = config
        self.noise = noise
        self.replicates = int(replicates)
        self.ci_level = float(ci_level)
        self.measurement = (
            measurement if measurement is not None
            else MeasurementConfig()
        )
        self.obs = obs

    def replicate_measurement(self, index):
        """The :class:`MeasurementConfig` override of replicate
        *index*: the shared knobs, this engine's noise and the
        replicate's derived seed."""
        seed = derive_replicate_seed(self.config.seed, index)
        return replace(
            self.measurement,
            noise=self.noise,
            measurement_seed=seed,
        )

    def measure_replicate(self, sim, index):
        """Run one replicate; returns its ``ExperimentResult``."""
        experiment = Experiment(self.config, obs=self.obs)
        return experiment.measure(
            sim, self.replicate_measurement(index)
        )

    def run(self, sim, attach_to=None):
        """Measure *sim* ``replicates`` times; returns the report.

        ``attach_to`` optionally names an existing
        :class:`~repro.core.experiment.ExperimentResult` to hang the
        report on (its ``uncertainty`` field), keeping the noise-free
        point estimate and the distribution side by side.

        Everything that does not change between replicates — the
        artifact check, the restored timeline, ground truth, the
        prepared sampling target — is built once per call.  Each
        replicate is then just the DAQ pass and its energy sums, on a
        thread pool; the report reads nothing of the HPM trace or the
        full decomposition, so replicates skip them (the HPM's noise
        draws follow the DAQ's on the stream, so skipping them moves
        no DAQ byte).  Results are folded into the accumulators in
        replicate order, so the report does not depend on the pool.
        """
        experiment = Experiment(self.config, obs=self.obs)
        obs = experiment.bound_obs()
        run, target, prepared = experiment.recording(sim)
        truth = _ground_truth(run.timeline)
        with obs.tracer.wall_span("bootstrap", replicates=self.replicates):
            measured = self._replicate_energies(prepared, target, obs)
        cpu, mem, per_comp = zip(*measured)
        totals = {
            "cpu_energy_j": cpu,
            "mem_energy_j": mem,
            "total_energy_j": [c + m for c, m in zip(cpu, mem)],
        }
        by_label = [
            {_component_label(cid): e for cid, e in energies.items()}
            for energies in per_comp
        ]
        # A replicate that never observed a component measured it at
        # zero energy, so every accumulator holds `replicates` samples.
        components = {
            label: [energies.get(label, 0.0) for energies in by_label]
            for label in dict.fromkeys(
                label for energies in by_label for label in energies
            )
        }
        report = UncertaintyReport(
            n_replicates=self.replicates,
            base_seed=self.config.seed,
            ci_level=self.ci_level,
            noise=self.noise,
            seed_version=REPLICATE_SEED_VERSION,
            totals={
                name: EnergyDistribution.from_stats(
                    name, _stats(values), ci_level=self.ci_level,
                    truth=truth["totals"].get(name),
                )
                for name, values in totals.items()
            },
            components={
                label: EnergyDistribution.from_stats(
                    label, _stats(values), ci_level=self.ci_level,
                    truth=truth["components"].get(label),
                )
                for label, values in components.items()
            },
        )
        if attach_to is not None:
            attach_to.uncertainty = report
        return report

    def _replicate_energies(self, prepared, target, obs):
        """``[(cpu J, mem J, {cid: cpu J})]`` per replicate, in index
        order.

        Each thread reuses one :class:`Workspace` for all its
        replicates.  The instruments of an observed run (``obs``
        enabled) are lock-free, so its replicates run on one thread.
        """
        local = threading.local()

        def measure(index):
            work = getattr(local, "work", None)
            if work is None:
                work = local.work = Workspace()
            knobs = MeasurementConfig.resolve(
                self.config, target, self.replicate_measurement(index)
            )
            power, _, _ = acquire(target, prepared, knobs, obs, work=work)
            return (power.cpu_energy_j(), power.mem_energy_j(),
                    power.component_cpu_energy_j())

        workers = 1 if obs.enabled else _pool_size(self.replicates)
        if workers == 1:
            return [measure(i) for i in range(self.replicates)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(measure, range(self.replicates)))


def _stats(values):
    """*values*, in order, folded into one :class:`OnlineStats`."""
    stats = OnlineStats()
    for value in values:
        stats.add(value)
    return stats


def _pool_size(replicates):
    """Replicate threads: one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(replicates, cpus))


def _ground_truth(timeline):
    """Exact energies from the recorded timeline."""
    cpu = timeline.cpu_energy_j()
    mem = timeline.mem_energy_j()
    per_comp = timeline.component_cpu_energy_j()
    return {
        "totals": {
            "cpu_energy_j": float(cpu),
            "mem_energy_j": float(mem),
            "total_energy_j": float(cpu + mem),
        },
        "components": {
            _component_label(cid): float(e)
            for cid, e in per_comp.items()
        },
    }


def bootstrap_uncertainty(config, sim, noise=DEFAULT_NOISE,
                          replicates=32, ci_level=0.95,
                          measurement=None, obs=None,
                          attach_to=None):
    """One-call API: build the engine, run it, return the report."""
    engine = BootstrapEngine(
        config, noise=noise, replicates=replicates,
        ci_level=ci_level, measurement=measurement, obs=obs,
    )
    return engine.run(sim, attach_to=attach_to)


__all__ = [
    "BootstrapEngine",
    "REPLICATE_SEED_VERSION",
    "UncertaintyReport",
    "bootstrap_uncertainty",
    "derive_replicate_seed",
]
