"""Acquired measurement traces and their per-component aggregation.

A :class:`PowerTrace` is what the DAQ produces: one row per 40 us sample
with CPU power, memory power, and the component ID latched on the I/O
port at the sample instant.  A :class:`PerfTrace` is what the HPM sampler
produces: per-sample counter deltas attributed to the component running
at the timer tick.

Both offer the offline analyses the paper's Section VI is built from:
per-component energy, average and peak power, execution-time shares, and
per-component microarchitectural rates (IPC, L2 miss rate).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MeasurementError

#: Samples per block of the two-level per-component sums.
_SUM_BLOCK = 1024


@dataclass
class PowerTrace:
    """DAQ output: sampled power channels + component attribution.

    ``window_s`` carries each sample's integration window.  All windows
    span one ``sample_period_s`` except possibly the last: when the run
    is not an exact multiple of the period the DAQ closes the trace with
    a final partial window so no tail energy is lost.
    """

    times_s: np.ndarray
    cpu_power_w: np.ndarray
    mem_power_w: np.ndarray
    component: np.ndarray
    sample_period_s: float
    window_s: np.ndarray = None
    #: Per-component aggregates, computed on first use.
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if len(self.times_s) == 0:
            raise MeasurementError("empty power trace")
        if self.window_s is None:
            self.window_s = np.full(
                len(self.times_s), self.sample_period_s,
                dtype=np.float64,
            )
        elif len(self.window_s) != len(self.times_s):
            raise MeasurementError(
                "window_s and times_s lengths disagree"
            )

    @property
    def n_samples(self):
        return len(self.times_s)

    # -- export views --------------------------------------------------

    @property
    def cpu_power_export_w(self):
        """CPU channel clamped at zero for reporting and plotting.

        The stored samples keep the sense channels' symmetric noise
        (negative excursions included) so energy integrals stay
        unbiased; a physical power can't be negative, so the *reported*
        trace is clamped only at this export boundary.
        """
        return np.maximum(self.cpu_power_w, 0.0)

    @property
    def mem_power_export_w(self):
        """Memory channel clamped at zero for reporting and plotting."""
        return np.maximum(self.mem_power_w, 0.0)

    @property
    def duration_s(self):
        return float(self.window_s.sum())

    def components_present(self):
        """Distinct component IDs observed in the trace."""
        return list(self._groups()[3])

    # -- per-component aggregation -------------------------------------
    #
    # Every per-component figure is one pass over the samples (a
    # ``bincount`` or ``maximum.at`` keyed by component), cached on the
    # trace, and every sum is a fixed-order NumPy reduction rather than
    # ``np.dot``: BLAS picks its dot kernel from the CPU at run time, so
    # its rounding (and the measured joules' last bits) would depend on
    # the machine.

    def _cached(self, key, build):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def _groups(self):
        """``(ids, shape, present, cids, counts)`` of the per-component
        sums.

        Sample *i* of component *c* lands in cell ``(i // _SUM_BLOCK,
        c - low)`` of a ``shape = (blocks, components)`` table whose
        flat index is ``ids[i]``.  One ``bincount`` then sums each
        component within each block, and :meth:`_per_component` adds
        the blocks pairwise: the rounding error grows with the block
        length, not with the trace length as one running sum's would.
        ``present`` are the non-empty component columns, ``cids`` their
        IDs and ``counts`` their sample counts.
        """
        def build():
            comp = self.component
            low = min(int(comp.min()), 0)
            width = int(comp.max()) - low + 1
            blocks = -(-len(comp) // _SUM_BLOCK)
            ids = np.repeat(
                np.arange(0, blocks * width, width, dtype=np.intp),
                _SUM_BLOCK,
            )[:len(comp)]
            ids += comp
            ids -= low
            counts = np.bincount(ids, minlength=blocks * width)
            counts = counts.reshape(blocks, width).sum(axis=0)
            present = np.flatnonzero(counts)
            return (ids, (blocks, width), present,
                    (present + low).tolist(), counts[present])
        return self._cached("groups", build)

    def _per_component(self, key, values):
        """``{cid: sum of values() over its samples}``, cached as
        *key*."""
        def build():
            ids, shape, present, cids, _ = self._groups()
            table = np.bincount(
                ids, weights=values(), minlength=shape[0] * shape[1]
            ).reshape(shape)
            sums = np.add.reduce(np.ascontiguousarray(table.T), axis=1)
            return dict(zip(cids, sums[present].tolist()))
        return dict(self._cached(key, build))

    # -- energy ------------------------------------------------------

    def cpu_energy_j(self):
        """Total measured CPU energy (sum of P * dt)."""
        return self._cached("cpu_j", lambda: float(
            np.add.reduce(self.cpu_power_w * self.window_s)))

    def mem_energy_j(self):
        """Total measured memory energy."""
        return self._cached("mem_j", lambda: float(
            np.add.reduce(self.mem_power_w * self.window_s)))

    def component_cpu_energy_j(self):
        """Measured CPU energy attributed to each component ID."""
        return self._per_component(
            "cpu_j_by_component", lambda: self.cpu_power_w * self.window_s
        )

    def component_mem_energy_j(self):
        """Measured memory energy attributed to each component ID."""
        return self._per_component(
            "mem_j_by_component", lambda: self.mem_power_w * self.window_s
        )

    # -- power -----------------------------------------------------------

    def component_avg_power_w(self):
        """Average CPU power per component (mean over its samples)."""
        sums = self._per_component("cpu_w_by_component",
                                   lambda: self.cpu_power_w)
        _, _, _, cids, counts = self._groups()
        return {cid: sums[cid] / int(n) for cid, n in zip(cids, counts)}

    def component_peak_power_w(self):
        """Peak CPU power per component (max over its samples)."""
        def build():
            ids, shape, present, cids, _ = self._groups()
            peaks = np.full(shape[0] * shape[1], -np.inf)
            np.maximum.at(peaks, ids, self.cpu_power_w)
            peaks = peaks.reshape(shape).max(axis=0)
            return dict(zip(cids, peaks[present].tolist()))
        return dict(self._cached("peak_w_by_component", build))

    def avg_power_w(self):
        return float(self.cpu_power_w.mean())

    def peak_power_w(self):
        return float(self.cpu_power_w.max())

    # -- time --------------------------------------------------------------

    def component_seconds(self):
        """Wall time attributed to each component."""
        return self._per_component("s_by_component", lambda: self.window_s)


@dataclass
class PerfTrace:
    """HPM sampler output, already aggregated per component."""

    sample_period_s: float
    n_samples: int
    component_samples: dict     # cid -> tick count
    component_cycles: dict      # cid -> cycles
    component_instructions: dict
    component_l2_accesses: dict
    component_l2_misses: dict

    def component_ipc(self):
        """Measured IPC per component."""
        out = {}
        for cid, cycles in self.component_cycles.items():
            instr = self.component_instructions.get(cid, 0)
            out[cid] = instr / cycles if cycles > 0 else 0.0
        return out

    def component_l2_miss_rate(self):
        """Measured L2 miss rate per component."""
        out = {}
        for cid, acc in self.component_l2_accesses.items():
            miss = self.component_l2_misses.get(cid, 0)
            out[cid] = miss / acc if acc > 0 else 0.0
        return out

    def component_time_share(self):
        """Fraction of timer ticks landing in each component."""
        total = sum(self.component_samples.values())
        if total == 0:
            raise MeasurementError("perf trace contains no samples")
        return {
            cid: n / total for cid, n in self.component_samples.items()
        }
