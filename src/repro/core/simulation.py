"""The simulate phase and its serialized artifact.

The paper's protocol is two-phase: execute the workload once with the
instrumentation active, then decompose *offline* from the recorded DAQ
and HPM traces (Section IV).  This module makes the first phase an
explicit, cacheable product: :func:`simulate` runs the VM and returns a
:class:`SimulationResult`, whose :class:`SimulationArtifact` captures
everything the measurement phase observes —

* the ground-truth timeline, as exact-dtype column arrays
  (:meth:`repro.timeline.ExecutionTimeline.to_columns`);
* the component-ID port's latch history (cycle/value arrays plus the
  idle value), replayed through :class:`ReplayPort`;
* the run's ground truth the exporters read (collector name, GC stats,
  port-write and perturbation counts, compile tallies);
* the measurement-relevant platform facts (name — which selects the
  sense-resistor channels — and the effective HPM period after
  overrides).

Because the samplers are pure passes over a finished timeline and the
measurement RNG derives from the config seed, measuring from an
artifact is bit-identical to measuring the live run: one recorded
execution can be measured under any number of DAQ periods (the
accuracy-vs-overhead frontier of ``repro overhead``, and the campaign
runner's sim-key sharing) without re-simulating.

Axis classification lives in :mod:`repro.spec`
(:data:`~repro.spec.SIMULATION_CONFIG_FIELDS` /
:data:`~repro.spec.MEASUREMENT_CONFIG_FIELDS`); the artifact cache key
over the simulation-only fields lives in
:mod:`repro.campaign.artifacts`.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, MeasurementError
from repro.jvm.vm import RunResult
from repro.obs import NULL_OBS
from repro.timeline import ExecutionTimeline

#: Schema tag on serialized artifacts; bump on incompatible layout
#: changes so stale artifacts are rejected at load, not mis-measured.
ARTIFACT_SCHEMA = "repro-sim-artifact-v1"


@dataclass(frozen=True)
class MeasurementConfig:
    """The measurement-only knobs, split out of the experiment config.

    These select how a finished execution is *observed* — they never
    change the execution itself, so any number of them can share one
    :class:`SimulationArtifact`.  A knob left ``None`` defers to the
    experiment config and then to the platform; :meth:`resolve` is the
    one place that applies that precedence.

    The last two knobs belong to the uncertainty subsystem
    (:mod:`repro.analysis.uncertainty`): ``noise`` attaches a
    :class:`~repro.measurement.noise.NoiseConfig` error model to the
    measurement chain, and ``measurement_seed`` replaces the experiment
    seed in the measurement-side RNG derivations so one artifact can be
    re-measured under independent, exactly reproducible noise draws.
    Left ``None``, measurement stays byte-identical to the
    pre-uncertainty path.
    """

    daq_period_s: Optional[float] = None
    hpm_period_s: Optional[float] = None
    hpm_rotation: Optional[tuple] = None
    noise: Optional[object] = None           # NoiseConfig
    measurement_seed: Optional[int] = None

    def __post_init__(self):
        if self.daq_period_s is not None and self.daq_period_s <= 0:
            raise ConfigurationError("daq_period_s must be positive")
        if self.hpm_period_s is not None and self.hpm_period_s <= 0:
            raise ConfigurationError("hpm_period_s must be positive")
        if (
            self.measurement_seed is not None
            and self.measurement_seed < 0
        ):
            raise ConfigurationError(
                "measurement_seed must be >= 0"
            )
        from repro.measurement.multiplexing import resolve_rotation

        object.__setattr__(
            self, "hpm_rotation", resolve_rotation(self.hpm_rotation)
        )

    @classmethod
    def resolve(cls, config, target, override=None):
        """The knobs one measurement of *config* runs under: each from
        the *override* when it sets it, else from *config*, else from
        the *target* platform's default (``noise`` stays optional)."""
        o = override if override is not None else cls()
        return cls(
            daq_period_s=o.daq_period_s or config.daq_period_s,
            hpm_period_s=(o.hpm_period_s or config.hpm_period_s
                          or target.hpm_period_s),
            hpm_rotation=o.hpm_rotation or config.hpm_rotation,
            noise=o.noise,
            measurement_seed=(config.seed if o.measurement_seed is None
                              else o.measurement_seed),
        )


class ReplayPort:
    """A component-ID port reconstructed from recorded latch history.

    Exposes exactly the surface the samplers consume
    (:meth:`history_arrays` and ``idle_value``), plus the read/history
    accessors of the live :class:`~repro.hardware.ioport.ComponentIDPort`
    so analysis code works on either.
    """

    def __init__(self, cycles, values, idle_value=0, name="replay"):
        self._cycles = np.asarray(cycles, dtype=np.int64)
        self._values = np.asarray(values, dtype=np.int16)
        if self._cycles.shape != self._values.shape:
            raise MeasurementError(
                "port history cycle/value arrays disagree in length"
            )
        self.idle_value = int(idle_value)
        self.name = name

    def history_arrays(self):
        return self._cycles, self._values

    def history(self):
        return list(zip(self._cycles.tolist(), self._values.tolist()))

    def read(self, cycle):
        i = int(np.searchsorted(self._cycles, cycle, side="right")) - 1
        if i < 0:
            return self.idle_value
        return int(self._values[i])

    @property
    def write_count(self):
        # Mirrors the live port: the power-on latch is not a write.
        return max(len(self._cycles) - 1, 0)


@dataclass(frozen=True)
class MeasurementTarget:
    """The platform facts the measurement phase actually consumes.

    The DAQ needs the platform *name* (it selects the sense-resistor
    channel models) and a port; the HPM sampler needs the effective
    sampling period and the same port.  Nothing else of the platform is
    observable from the measurement side, which is what makes artifact
    replay exact.
    """

    name: str
    hpm_period_s: float
    port: object


@dataclass
class SimulationArtifact:
    """Serialized product of one simulate phase.

    Everything here is plain data (scalars, NumPy arrays, a dict) so the
    artifact pickles compactly and survives across processes; the
    ``sim_config`` dict is the canonical simulation identity the content
    hash was computed over, kept inline for human inspection and
    defensive verification.
    """

    sim_key: str
    sim_config: dict
    platform_name: str
    hpm_period_s: float
    timeline_columns: dict          # ExecutionTimeline.to_columns()
    port_cycles: np.ndarray
    port_values: np.ndarray
    port_idle: int
    benchmark: str
    vm_name: str
    collector_name: str
    heap_mb: int
    seed: int
    repetitions: int
    port_writes: int
    perturbation_cycles: int
    opt_compiles: int = 0
    base_compiles: int = 0
    jit_compiles: int = 0
    gc_stats: object = None         # GCStats snapshot

    # -- construction ---------------------------------------------------

    @classmethod
    def from_run(cls, config, run, platform):
        """Snapshot a completed simulate phase.

        Copies, never aliases: the artifact must stay valid however the
        live platform/VM objects are reused or mutated afterwards.
        """
        from repro.campaign.artifacts import sim_key
        from repro.spec import canonical_sim_dict

        port_cycles, port_values = platform.port.history_arrays()
        return cls(
            sim_key=sim_key(config),
            sim_config=canonical_sim_dict(config),
            platform_name=platform.name,
            hpm_period_s=float(platform.hpm_period_s),
            timeline_columns=run.timeline.to_columns(),
            port_cycles=np.array(port_cycles, copy=True),
            port_values=np.array(port_values, copy=True),
            port_idle=int(getattr(platform.port, "idle_value", 0)),
            benchmark=run.benchmark,
            vm_name=run.vm_name,
            collector_name=run.collector_name,
            heap_mb=run.heap_mb,
            seed=run.seed,
            repetitions=run.repetitions,
            port_writes=run.port_writes,
            perturbation_cycles=run.perturbation_cycles,
            opt_compiles=run.opt_compiles,
            base_compiles=run.base_compiles,
            jit_compiles=run.jit_compiles,
            gc_stats=replace(run.gc_stats),
        )

    # -- reconstruction -------------------------------------------------

    def timeline(self):
        """The ground-truth timeline, reconstructed exactly."""
        return ExecutionTimeline.from_columns(self.timeline_columns)

    def port(self):
        """The latch history as a sampler-compatible :class:`ReplayPort`."""
        return ReplayPort(
            self.port_cycles, self.port_values,
            idle_value=self.port_idle,
        )

    def measurement_target(self):
        """The platform view the measurement phase runs against."""
        return MeasurementTarget(
            name=self.platform_name,
            hpm_period_s=self.hpm_period_s,
            port=self.port(),
        )

    def run_result(self):
        """The run's ground-truth side as a :class:`RunResult`.

        The live-object fields that do not serialize (collector,
        classloader, workload) come back ``None``; everything the
        exporters and reports read is present.
        """
        return RunResult(
            benchmark=self.benchmark,
            vm_name=self.vm_name,
            platform_name=self.platform_name,
            collector_name=self.collector_name,
            heap_mb=self.heap_mb,
            seed=self.seed,
            timeline=self.timeline(),
            gc_stats=replace(self.gc_stats),
            collector=None,
            classloader=None,
            workload=None,
            port_writes=self.port_writes,
            perturbation_cycles=self.perturbation_cycles,
            repetitions=self.repetitions,
            opt_compiles=self.opt_compiles,
            base_compiles=self.base_compiles,
            jit_compiles=self.jit_compiles,
        )

    @property
    def n_segments(self):
        return int(self.timeline_columns.get("n", 0))

    # -- serialization --------------------------------------------------

    def to_payload(self):
        """Plain-dict form (the bytes the artifact store pickles)."""
        return {
            "schema": ARTIFACT_SCHEMA,
            "sim_key": self.sim_key,
            "sim_config": dict(self.sim_config),
            "platform_name": self.platform_name,
            "hpm_period_s": self.hpm_period_s,
            "timeline_columns": self.timeline_columns,
            "port_cycles": self.port_cycles,
            "port_values": self.port_values,
            "port_idle": self.port_idle,
            "benchmark": self.benchmark,
            "vm_name": self.vm_name,
            "collector_name": self.collector_name,
            "heap_mb": self.heap_mb,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "port_writes": self.port_writes,
            "perturbation_cycles": self.perturbation_cycles,
            "opt_compiles": self.opt_compiles,
            "base_compiles": self.base_compiles,
            "jit_compiles": self.jit_compiles,
            "gc_stats": self.gc_stats,
        }

    @classmethod
    def from_payload(cls, payload):
        """Rebuild from :meth:`to_payload` output; schema-checked."""
        if not isinstance(payload, dict):
            raise MeasurementError(
                f"artifact payload must be a dict, got "
                f"{type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != ARTIFACT_SCHEMA:
            raise MeasurementError(
                f"unknown artifact schema {schema!r} "
                f"(expected {ARTIFACT_SCHEMA!r})"
            )
        data = {k: v for k, v in payload.items() if k != "schema"}
        return cls(**data)


@dataclass
class SimulationResult:
    """The live product of one simulate phase (pre-serialization)."""

    config: object              # ExperimentConfig
    run: RunResult              # live, with collector/workload attached
    platform: object            # live Platform

    def artifact(self):
        """Snapshot into a serializable :class:`SimulationArtifact`."""
        return SimulationArtifact.from_run(
            self.config, self.run, self.platform
        )

    def measurement_target(self):
        """Measure straight off the live objects (the fused path)."""
        return MeasurementTarget(
            name=self.platform.name,
            hpm_period_s=float(self.platform.hpm_period_s),
            port=self.platform.port,
        )


def simulate(config, obs=None):
    """Run the simulate phase for *config*: build the platform and VM,
    execute the workload, return a :class:`SimulationResult`.

    This is the exact setup + VM-run half of the historical fused
    ``Experiment.run``; the tracer spans keep their names so existing
    trace tooling sees the same phases.
    """
    obs = obs if obs is not None else NULL_OBS
    tracer = obs.tracer
    with tracer.wall_span("setup"):
        # Builders live in the scenario layer (imported lazily:
        # repro.spec imports the experiment config this module
        # serves).
        from repro.spec import build_platform, build_vm

        platform = build_platform(config)
        vm = build_vm(config, platform, obs=obs)
    # The paper's warm-up pass is modeled inside the VM run
    # (``warm=`` pre-heats OS caches), so execution is a single
    # phase here; see docs/OBSERVABILITY.md.
    with tracer.wall_span("vm-run", warmup=config.warmup):
        run = vm.run(
            config.benchmark,
            input_scale=config.input_scale,
            warm=config.warmup,
            repetitions=config.repetitions,
        )
    return SimulationResult(config=config, run=run, platform=platform)


__all__ = [
    "ARTIFACT_SCHEMA",
    "MeasurementConfig",
    "MeasurementTarget",
    "ReplayPort",
    "SimulationArtifact",
    "SimulationResult",
    "simulate",
]
