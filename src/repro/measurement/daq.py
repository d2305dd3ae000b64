"""The high-speed data acquisition system.

"Once voltage and current consumption are known and sampled every 40 us
(the fastest sampling rate of our digital acquisition system based on the
number of sampling channels used), we multiply these values to obtain
instantaneous power consumption.  At each sampling point we examine the
memory-mapped register and assign the measured power consumption to the
corresponding component.  This approach places a 40 us measurement window
on all power measurements: transient changes inside the 40 us window are
not captured by our system, nor do we keep track of when exactly a
component switch happens." (Section IV-D)

The simulated DAQ reproduces those properties exactly: it samples the
ground-truth timeline at fixed wall-clock instants, reads the power that
was being drawn *at that instant* through the sense-resistor channels
(noise included), and attributes the whole sample to the component ID
latched on the port at that instant.  Component activity shorter than the
sampling window can therefore be missed or misattributed — the same
attribution error the real infrastructure has, and one the test suite
quantifies against ground truth.
"""

import numpy as np

from repro.errors import MeasurementError
from repro.measurement.prepared import Workspace, prepare
from repro.measurement.sense import channels_for
from repro.measurement.traces import PowerTrace
from repro.obs import NULL_OBS
from repro.units import DAQ_SAMPLE_PERIOD_S


#: Samples looked up per block in :meth:`DAQ.acquire`.
_BLOCK = 16384


class DAQ:
    """Samples power channels plus the component-ID register."""

    def __init__(self, platform, rng, sample_period_s=DAQ_SAMPLE_PERIOD_S,
                 obs=None, noise=None):
        if sample_period_s <= 0:
            raise MeasurementError("sample period must be positive")
        self.platform = platform
        self.sample_period_s = sample_period_s
        self.rng = rng
        self.obs = obs if obs is not None else NULL_OBS
        # ``noise`` is the uncertainty subsystem's hook (a seeded
        # NoiseModel or None): it supplies the sense channels' ADC
        # quantizer and jitters the instants the sample clock actually
        # fires at.  None leaves acquisition byte-identical to the
        # hook-free path.
        self.noise = noise
        adc = noise.quantizer() if noise is not None else None
        self.cpu_channel, self.mem_channel = channels_for(
            platform.name, rng, adc=adc
        )

    def acquire(self, source, port=None, work=None):
        """Acquire a :class:`PowerTrace` over a completed run.

        *source* is the run's timeline, or a
        :class:`~repro.measurement.prepared.PreparedTarget` built once
        for many passes.  ``port`` (timeline sources only) defaults to
        the platform's component-ID port, whose latch history the VM
        populated during the run.  With a
        :class:`~repro.measurement.prepared.Workspace` as *work*, the
        trace's channel and component arrays live in its buffers, valid
        until the workspace's next pass.
        """
        if port is None:
            port = self.platform.port
        target = prepare(source, port)
        work = Workspace() if work is None else work
        period = self.sample_period_s
        duration = target.duration_s
        times, window_s, tail_s = target.memo(
            ("daq-clock", period), lambda: _sample_clock(duration, period)
        )
        n = len(times)
        # The instants the DAQ *actually* reads the timeline at: with a
        # noise model attached these carry the sample clock's jitter,
        # while the trace keeps nominal timestamps — the real instrument
        # reports its own clock, not its true fire times.
        noise_draw = work.buffer("daq.noise", n)
        if self.noise is not None:
            read_times = self.noise.daq_sample_times(
                times, period, duration, out=noise_draw
            )
        else:
            read_times = times

        # Look the instants up block by block: the lookup is per sample,
        # so blocking changes no value, and keeps its temporaries small.
        cpu = work.buffer("daq.cpu_w", n)
        mem = work.buffer("daq.mem_w", n)
        component = work.buffer("daq.component", n, np.int16)
        pre_latch = 0
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            seg, _, cycles, component[lo:hi] = target.observe(
                read_times[lo:hi], work=work
            )
            target.arrays.cpu_power.take(seg, mode="clip", out=cpu[lo:hi])
            target.arrays.mem_power.take(seg, mode="clip", out=mem[lo:hi])
            if self.obs.metrics.enabled:
                pre_latch += target.pre_latch(cycles)
        # The read instants are consumed, so the channels' noise draws
        # reuse their buffer; each reading overwrites its true power.
        self.cpu_channel.measure(cpu, out=cpu, scratch=noise_draw)
        self.mem_channel.measure(mem, out=mem, scratch=noise_draw)

        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("daq.samples").inc(n)
            metrics.counter("daq.samples_attributed").inc(n - pre_latch)
            metrics.counter("daq.samples_pre_latch").inc(pre_latch)
            if tail_s:
                metrics.counter("daq.partial_tail_windows").inc()
        self.obs.log.debug(
            "daq.acquired", samples=n,
            sample_period_us=round(1e6 * period, 3),
            duration_s=round(duration, 6),
        )

        return PowerTrace(
            times_s=times,
            cpu_power_w=cpu,
            mem_power_w=mem,
            component=component,
            sample_period_s=self.sample_period_s,
            window_s=window_s,
        )


def _sample_clock(duration, period):
    """``(times, window_s, tail_s)`` of the DAQ's nominal sample clock
    over a run of *duration* seconds; the arrays are read-only, since
    every trace acquired at this period shares them."""
    # Count full windows with a *relative* tolerance: the duration is
    # a cumulative float sum, so a run of exactly N periods can land
    # within a few ulps below N * period.  A fixed absolute epsilon
    # only covers that near N == 1 and rejected runs a hair under
    # one period outright.
    ratio = duration / period
    n_full = int(ratio * (1.0 + 1e-9) + 1e-9)
    if n_full < 1:
        raise MeasurementError(
            "run shorter than one DAQ sample period"
        )
    # Cover the whole run: full windows plus, when the duration is
    # not an exact multiple of the period, one final partial window
    # weighted by its actual width.  Without it up to a full sample
    # window of tail energy is silently discarded.
    # When the count rounded *up* (duration a few ulps under a whole
    # number of periods) the tail comes out slightly negative; treat
    # it as zero rather than emitting a partial window.
    tail_s = duration - n_full * period
    if tail_s <= 1e-6 * period:
        tail_s = 0.0
    n = n_full + (1 if tail_s else 0)
    window_s = np.full(n, period, dtype=np.float64)
    if tail_s:
        window_s[-1] = tail_s
    times = np.cumsum(window_s) - 0.5 * window_s
    times.flags.writeable = False
    window_s.flags.writeable = False
    return times, window_s, tail_s
