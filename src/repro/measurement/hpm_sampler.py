"""Timer-driven hardware-performance-monitor sampling.

"Our system performance measurements are obtained using the processor's
hardware performance monitors (HPM) ... the operating system's main timer
is responsible for taking periodic samples (every 1 ms in our P6 platform
and 10 ms in the DBPXA255) of anything that is running on the processor.
We keep track of JVM component execution by placing a system call at the
start of the JVM component that informs the OS what JVM component is
currently executing." (Section IV-E)

The sampler reads the free-running counters at every timer tick and
attributes the delta since the previous tick to the component that was
executing *at the tick* — the same last-sample-wins attribution as the
real OS-timer scheme, with the same error character for components
shorter than the timer period.
"""

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.prepared import prepare
from repro.measurement.traces import PerfTrace
from repro.obs import NULL_OBS


class HPMSampler:
    """Samples performance counters along a completed timeline."""

    def __init__(self, platform, period_s=None, obs=None, noise=None):
        self.platform = platform
        self.period_s = period_s or platform.hpm_period_s
        self.obs = obs if obs is not None else NULL_OBS
        # Uncertainty hook: a seeded NoiseModel delays the timer ticks
        # by interrupt latency before the counters are read.  None keeps
        # sampling byte-identical to the hook-free path.
        self.noise = noise
        if self.period_s <= 0:
            raise MeasurementError("HPM period must be positive")

    def sample(self, source, port=None):
        """Produce a :class:`PerfTrace` for a completed run.

        *source* and ``port`` are as for
        :meth:`repro.measurement.daq.DAQ.acquire`.
        """
        if port is None:
            port = self.platform.port
        target = prepare(source, port)
        duration = target.duration_s
        # Same relative tolerance as the DAQ: a run of N periods whose
        # float duration lands ulps below N * period still yields N
        # ticks instead of rejecting (N == 1) or dropping the last one.
        ratio = duration / self.period_s
        n = int(ratio * (1.0 + 1e-9) + 1e-9)
        if n < 1:
            raise MeasurementError("run shorter than one HPM period")
        ticks = (np.arange(n + 1, dtype=np.float64)) * self.period_s
        ticks[-1] = min(ticks[-1], duration)
        if self.noise is not None:
            ticks = self.noise.hpm_tick_times(
                ticks, self.period_s, duration
            )

        # Component at each tick, from the port latch (the "system call"
        # view the OS has); ticks before the first latch update see the
        # port's idle value.
        seg, frac, cycles, component = target.observe(ticks, clip=True)
        # Cumulative counters at each tick (linear within segments).
        # Cycles count on the clock the latch history records, which
        # for a VM run starts at cycle 0.
        cum = {"cycles": cycles}
        for name, (starts, per_seg) in target.counter_bases.items():
            cum[name] = starts[seg] + frac * per_seg[seg]

        # Attribute each inter-tick delta to the component at the tick's
        # *end* (the handler sees who is running when the timer fires).
        comp_of_delta = component[1:]
        deltas = {name: np.diff(values) for name, values in cum.items()}
        out = {
            "samples": {},
            "cycles": {},
            "instructions": {},
            "l2_accesses": {},
            "l2_misses": {},
        }
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("hpm.samples").inc(n)
            metrics.counter("hpm.pre_latch_ticks").inc(
                target.pre_latch(cycles)
            )
        for cid in np.unique(comp_of_delta):
            mask = comp_of_delta == cid
            key = int(cid)
            out["samples"][key] = int(mask.sum())
            for name in ("cycles", "instructions", "l2_accesses",
                         "l2_misses"):
                out[name][key] = float(deltas[name][mask].sum())
        return PerfTrace(
            sample_period_s=self.period_s,
            n_samples=n,
            component_samples=out["samples"],
            component_cycles=out["cycles"],
            component_instructions=out["instructions"],
            component_l2_accesses=out["l2_accesses"],
            component_l2_misses=out["l2_misses"],
        )
